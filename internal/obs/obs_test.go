package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	var c Counter
	var g Gauge
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(2)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if g.Value() != workers*per {
		t.Errorf("gauge = %d, want %d", g.Value(), workers*per)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d", s.Count)
	}
	if want := []int64{2, 1, 1, 1}; len(s.Counts) != len(want) {
		t.Fatalf("counts = %v", s.Counts)
	} else {
		for i := range want {
			if s.Counts[i] != want[i] {
				t.Errorf("bucket %d = %d, want %d", i, s.Counts[i], want[i])
			}
		}
	}
	if math.Abs(s.Sum-106) > 1e-12 {
		t.Errorf("sum = %v", s.Sum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(LatencyBuckets)
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w%4) * 0.01)
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Errorf("count = %d, want %d", s.Count, workers*per)
	}
	var bucketTotal int64
	for _, c := range s.Counts {
		bucketTotal += c
	}
	if bucketTotal != s.Count {
		t.Errorf("bucket total %d != count %d", bucketTotal, s.Count)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30, 40})
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i%40) + 0.5)
	}
	s := h.Snapshot()
	q50 := s.Quantile(0.5)
	if q50 < 10 || q50 > 30 {
		t.Errorf("q50 = %v, want within [10, 30]", q50)
	}
	if q := s.Quantile(0.999); q > 40 {
		t.Errorf("q99.9 = %v exceeds max bound", q)
	}
	if (HistogramSnapshot{}).Quantile(0.5) != 0 {
		t.Error("empty snapshot quantile should be 0")
	}
}

func TestHistogramBadBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-ascending bounds")
		}
	}()
	NewHistogram([]float64{1, 1})
}

func TestRegistryGetOrCreateAndSnapshot(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Error("same name must return same counter")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("same name must return same gauge")
	}
	if r.Histogram("h", LatencyBuckets) != r.Histogram("h", nil) {
		t.Error("same name must return same histogram")
	}
	r.Counter("a").Add(3)
	r.Gauge("g").Set(-2)
	r.Histogram("h", nil).Observe(0.2)
	s := r.Snapshot()
	if s.Counters["a"] != 3 || s.Gauges["g"] != -2 || s.Histograms["h"].Count != 1 {
		t.Errorf("snapshot: %+v", s)
	}
	if _, err := json.Marshal(s); err != nil {
		t.Fatalf("snapshot must be JSON-marshalable: %v", err)
	}
}

func TestJournalEvents(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.Event("hello", map[string]any{"k": 1, "s": "v"})
	j.Event("bye", nil)
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var events []string
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		events = append(events, rec["event"].(string))
		if _, ok := rec["ts"]; !ok {
			t.Error("missing ts")
		}
		if _, ok := rec["t_ms"]; !ok {
			t.Error("missing t_ms")
		}
	}
	if len(events) != 2 || events[0] != "hello" || events[1] != "bye" {
		t.Fatalf("events: %v", events)
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Event("x", nil) // must not panic
	j.EpochDone(EpochEvent{})
	sp := j.StartSpan("phase")
	if sp.End() < 0 {
		t.Error("negative span duration")
	}
	if j.Err() != nil || j.Close() != nil {
		t.Error("nil journal Err/Close must be nil")
	}
}

func TestJournalEpochDone(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.EpochDone(EpochEvent{Model: "flavor_lstm", Epoch: 1, Epochs: 4, Loss: 2.5, LR: 0.003, Steps: 10, WallMS: 7})
	j.EpochDone(EpochEvent{Model: "flavor_lstm", Epoch: 3, Epochs: 4, Loss: 2.1, Dev: 2.4, HasDev: true})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines: %d", len(lines))
	}
	var first, second map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if first["event"] != "epoch" || first["model"] != "flavor_lstm" || first["loss"].(float64) != 2.5 {
		t.Errorf("first: %v", first)
	}
	if _, ok := first["dev_loss"]; ok {
		t.Error("dev_loss must be omitted when not evaluated")
	}
	if second["dev_loss"].(float64) != 2.4 {
		t.Errorf("second: %v", second)
	}
}

func TestOpenJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Event("start", map[string]any{"seed": 7})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(blob), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["event"] != "start" || rec["seed"].(float64) != 7 {
		t.Errorf("rec: %v", rec)
	}
}

// TestSpanRegistryAndJournal: a span started on a journal emits one
// "span" event carrying its name and wall time.
func TestSpanRegistryAndJournal(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	if d := j.StartSpan("train").End(); d < 0 {
		t.Fatal("negative duration")
	}
	var rec map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &rec); err != nil {
		t.Fatal(err)
	}
	if rec["event"] != "span" || rec["name"] != "train" {
		t.Errorf("rec: %v", rec)
	}
	if _, ok := rec["wall_ms"]; !ok {
		t.Error("missing wall_ms")
	}
}

func TestSinkFunc(t *testing.T) {
	var got []EpochEvent
	var sink EpochSink = SinkFunc(func(e EpochEvent) { got = append(got, e) })
	sink.EpochDone(EpochEvent{Model: "m", Epoch: 0, Loss: 1})
	if len(got) != 1 || got[0].Model != "m" {
		t.Fatalf("got: %+v", got)
	}
}

func TestReadMemStats(t *testing.T) {
	s := ReadMemStats()
	if s.HeapInUseBytes == 0 || s.SysBytes == 0 || s.Mallocs == 0 {
		t.Fatalf("implausible memory snapshot: %+v", s)
	}
	if s.Mallocs < s.Frees {
		t.Fatalf("mallocs %d < frees %d", s.Mallocs, s.Frees)
	}
	if s.Goroutines < 1 {
		t.Fatalf("goroutines %d", s.Goroutines)
	}
	// Allocation churn must move the cumulative counters but the
	// snapshot itself must stay cheap and side-effect free.
	before := ReadMemStats()
	sink := make([][]byte, 64)
	for i := range sink {
		sink[i] = make([]byte, 4096)
	}
	_ = sink
	after := ReadMemStats()
	if after.TotalAllocBytes < before.TotalAllocBytes {
		t.Fatalf("total_alloc went backwards: %d -> %d", before.TotalAllocBytes, after.TotalAllocBytes)
	}
	if b, err := json.Marshal(s); err != nil || len(b) == 0 {
		t.Fatalf("snapshot not JSON-marshalable: %v", err)
	}
}

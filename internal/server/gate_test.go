package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/trace"
)

// copyModel deep-copies m through its wire format, so a test can change
// the copy without touching the shared test model.
func copyModel(t *testing.T, m *core.Model) *core.Model {
	t.Helper()
	blob, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	c := new(core.Model)
	if err := c.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	return c
}

// scaledCopy is a copy of m with every LSTM weight scaled by 1.25: a
// model of the same shapes that decodes other bytes under another tag.
func scaledCopy(t *testing.T, m *core.Model) *core.Model {
	t.Helper()
	c := copyModel(t, m)
	for _, net := range []*nn.LSTM{c.Flavor.Net, c.Lifetime.Net} {
		for _, p := range net.Params() {
			for i := range p.Value.Data {
				p.Value.Data[i] *= 1.25
			}
		}
	}
	return c
}

// servedTag reads the tag GET /model reports.
func servedTag(t *testing.T, h http.Handler) string {
	t.Helper()
	var meta struct {
		Tag string `json:"tag"`
	}
	if err := json.Unmarshal(do(t, h, "GET", "/model", "").Body.Bytes(), &meta); err != nil {
		t.Fatal(err)
	}
	return meta.Tag
}

// TestRefusedReloadKeepsRecordTag: a reload the gate refuses (another
// model under a catalog of another size) changes neither the model
// serving nor the tag its records carry, and GET /model reports that
// same tag; a reload the gate accepts moves both to the new model.
func TestRefusedReloadKeepsRecordTag(t *testing.T) {
	s := freshServer(t)
	defer s.Close()
	var mu sync.Mutex
	var tags []string
	s.OnTrace = func(tag string, _ int64, _ trace.Window, _ float64, _ *trace.Trace) {
		mu.Lock()
		tags = append(tags, tag)
		mu.Unlock()
	}
	h := s.Handler()
	old := s.currentModel()
	next := scaledCopy(t, old)
	oldTag, nextTag := core.ModelTag(old), core.ModelTag(next)
	if oldTag == nextTag {
		t.Fatal("the scaled copy has the serving model's tag; the test would be vacuous")
	}
	generate := func() string {
		t.Helper()
		if rec := do(t, h, "POST", "/generate", `{"periods": 12, "seed": 3}`); rec.Code != http.StatusOK {
			t.Fatalf("generate: status %d: %s", rec.Code, rec.Body.String())
		}
		mu.Lock()
		defer mu.Unlock()
		return tags[len(tags)-1]
	}

	s.ReloadFunc = func() (*core.Model, *trace.FlavorSet, error) { return next, synth.HuaweiFlavors(), nil }
	if rec := do(t, h, "POST", "/-/reload", ""); rec.Code != http.StatusInternalServerError {
		t.Fatalf("mismatched reload: status %d, want 500", rec.Code)
	}
	if got := generate(); got != oldTag {
		t.Errorf("record after the refused reload carries tag %s, want the serving model's %s", got, oldTag)
	}
	if got := servedTag(t, h); got != oldTag {
		t.Errorf("GET /model tag after the refused reload = %s, want %s", got, oldTag)
	}

	if err := s.Reload(next, s.catalog); err != nil {
		t.Fatal(err)
	}
	if got := generate(); got != nextTag {
		t.Errorf("record after the accepted reload carries tag %s, want %s", got, nextTag)
	}
	if got := servedTag(t, h); got != nextTag {
		t.Errorf("GET /model tag after the accepted reload = %s, want %s", got, nextTag)
	}
}

// TestRecordTagFollowsDecodingSnapshot swaps in a model that decodes
// other bytes while week-long requests are decoding on the old engine:
// they finish there after the swap, and every record must carry the tag
// of the model whose bytes it holds, so a request that drains on the old
// engine is not tagged with the new model.
func TestRecordTagFollowsDecodingSnapshot(t *testing.T) {
	s := freshServer(t)
	defer s.Close()
	h := s.Handler()
	const n, periods = 2, 7 * trace.PeriodsPerDay
	old := s.currentModel()
	next := scaledCopy(t, old)
	want := map[string]string{} // a trace's JSON -> the tag of the model that decodes it
	for seed := int64(1); seed <= n; seed++ {
		want[refBytes(t, s, old, core.PrecisionF64, seed, periods)] = core.ModelTag(old)
		want[refBytes(t, s, next, core.PrecisionF64, seed, periods)] = core.ModelTag(next)
	}
	if len(want) != 2*n {
		t.Fatal("the scaled copy decodes some of the serving model's bytes; the test would be vacuous")
	}
	errs := make(chan error, 2*n)
	s.OnTrace = func(tag string, _ int64, _ trace.Window, _ float64, tr *trace.Trace) {
		var buf strings.Builder
		if err := tr.WriteJSON(&buf); err != nil {
			errs <- err
		} else if wantTag, ok := want[buf.String()]; !ok || tag != wantTag {
			errs <- fmt.Errorf("record tagged %s holds the bytes of the model tagged %q", tag, wantTag)
		}
	}
	var wg sync.WaitGroup
	for seed := 1; seed <= n; seed++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"periods": %d, "seed": %d, "format": "json"}`, periods, seed)
			if rec := do(t, h, "POST", "/generate", body); rec.Code != http.StatusOK {
				errs <- fmt.Errorf("seed %d: status %d", seed, rec.Code)
			}
		}(seed)
	}
	inFlight := func() (k int64) {
		for name, v := range s.Metrics().Snapshot().Gauges {
			if strings.HasPrefix(name, "decode.shard_occupancy.") {
				k += v
			}
		}
		return k
	}
	for deadline := time.Now().Add(30 * time.Second); inFlight() < n; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests ever decoded at once", inFlight(), n)
		}
	}
	if err := s.Reload(next, s.catalog); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestReloadRefusesF32Divergence: at Precision f32 the gate runs
// core.Model.ValidateF32 on every snapshot, so a reload whose f32
// conversion is wrong (planted through the exported PrepareF32 result,
// as core's TestValidateF32RejectsBrokenConversion does) is refused and
// the old snapshot keeps serving the same bytes.
func TestReloadRefusesF32Divergence(t *testing.T) {
	s := freshServer(t)
	defer s.Close()
	s.Precision = string(core.PrecisionF32)
	h := s.Handler()
	old := s.currentModel()
	body := `{"periods": 24, "seed": 9, "format": "json"}`
	before := do(t, h, "POST", "/generate", body)
	if before.Code != http.StatusOK {
		t.Fatalf("f32 generate: status %d: %s", before.Code, before.Body.String())
	}

	bad := copyModel(t, old)
	f32 := bad.PrepareF32()
	f32.Flavor = nn.NewLSTM(bad.Flavor.Net.Cfg, rng.New(1001)).Convert32()
	f32.Lifetime = nn.NewLSTM(bad.Lifetime.Net.Cfg, rng.New(1002)).Convert32()
	if err := s.Reload(bad, s.catalog); err == nil {
		t.Fatal("Reload accepted a model whose f32 conversion is wrong")
	}
	if s.currentModel() != old {
		t.Error("a refused reload replaced the serving model")
	}
	if after := do(t, h, "POST", "/generate", body); after.Code != http.StatusOK || after.Body.String() != before.Body.String() {
		t.Fatalf("after the refused reload: status %d, or the served bytes changed", after.Code)
	}
}

// TestRefreshCountsOutcomes: Refresh, the reload path cmd/traced's
// SIGHUP takes, counts a failed ReloadFunc and a refused snapshot in
// reload.errors and an accepted one in reload.success, as POST
// /-/reload does.
func TestRefreshCountsOutcomes(t *testing.T) {
	s := freshServer(t)
	defer s.Close()
	model := s.currentModel()
	sources := []func() (*core.Model, *trace.FlavorSet, error){
		func() (*core.Model, *trace.FlavorSet, error) { return nil, nil, errors.New("no new model") },
		func() (*core.Model, *trace.FlavorSet, error) { return model, synth.HuaweiFlavors(), nil },
	}
	for _, src := range sources {
		s.ReloadFunc = src
		if _, err := s.Refresh(); err == nil {
			t.Fatal("Refresh reported success for a failing source")
		}
	}
	if got := s.reg.Counter("reload.errors").Value(); got != 2 {
		t.Errorf("reload.errors = %d, want 2", got)
	}
	s.ReloadFunc = func() (*core.Model, *trace.FlavorSet, error) { return model, s.catalog, nil }
	if m, err := s.Refresh(); err != nil || m != model {
		t.Fatalf("Refresh = %p, %v; want the published model", m, err)
	}
	if got := s.reg.Counter("reload.success").Value(); got != 1 {
		t.Errorf("reload.success = %d, want 1", got)
	}
}

package repro

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/rng"
	"repro/internal/synth"
	"repro/internal/trace"
	"repro/internal/workload"
)

const resumeEpochs = 3

// resumeFixture builds the small end-to-end training setup shared by
// the kill/resume property tests.
func resumeFixture(t *testing.T) (train *trace.Trace, catalog *trace.FlavorSet, testW trace.Window) {
	t.Helper()
	cfg := workload.PresetConfig("azure")
	cfg.Days = 3
	cfg.Users = 60
	cfg.BaseRate = 1.5
	full := cfg.Generate(7)
	trainW, _, testW := synth.StandardSplit(cfg.Days)
	return full.Slice(trainW, 0), full.Flavors, testW
}

// trainFullModel runs the full pipeline (arrival GLM + flavor LSTM +
// lifetime hazard net) with the given checkpoint spec.
func trainFullModel(t *testing.T, train *trace.Trace, spec *core.CheckpointSpec) *core.Model {
	t.Helper()
	m, err := core.TrainModel(train, core.ModelOptions{
		Train: core.TrainConfig{
			Hidden: 8, Layers: 2, SeqLen: 16, BatchSize: 4,
			Epochs: resumeEpochs, LR: 5e-3, Seed: 3,
			Checkpoint: spec,
		},
		Arrival: core.ArrivalOptions{Checkpoint: spec},
	})
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	return m
}

// trainAndGenerate trains with the given checkpoint spec and returns
// the serialized model plus the JSON bytes of a generated trace.
func trainAndGenerate(t *testing.T, train *trace.Trace, catalog *trace.FlavorSet, testW trace.Window, spec *core.CheckpointSpec) (modelBlob, traceJSON []byte) {
	t.Helper()
	m := trainFullModel(t, train, spec)
	var err error
	modelBlob, err = m.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal model: %v", err)
	}
	tr := core.WithCatalog(m.Generate(rng.New(11), testW), catalog)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("write trace: %v", err)
	}
	return modelBlob, buf.Bytes()
}

// cutDir simulates a crash at epoch boundary maxSeq: a fresh directory
// holding only the checkpoint files with sequence numbers <= maxSeq
// (across every training stage's prefix), exactly the on-disk state of
// a process killed right after that boundary's save.
func cutDir(t *testing.T, src string, maxSeq int) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".ckpt") {
			continue
		}
		base := strings.TrimSuffix(name, ".ckpt")
		seq, err := strconv.Atoi(base[strings.LastIndex(base, "-")+1:])
		if err != nil {
			t.Fatal(err)
		}
		if seq > maxSeq {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// TestKillAndResumeBitExact is the end-to-end crash-recovery property
// (DESIGN.md §8): a full-pipeline training run killed at ANY epoch
// boundary and resumed from its checkpoint directory produces a final
// model — and the traces generated from it — byte-identical to the
// uninterrupted run, at both REPRO_PROCS=1 and 8. It also pins that
// enabling checkpointing at all changes nothing, and that a truncated
// newest checkpoint (torn write) falls back to the previous boundary
// instead of failing or drifting.
func TestKillAndResumeBitExact(t *testing.T) {
	train, catalog, testW := resumeFixture(t)

	wantModel, wantTrace := trainAndGenerate(t, train, catalog, testW, nil)
	if len(wantTrace) == 0 {
		t.Fatal("empty baseline trace")
	}

	// Checkpointing must be trajectory-neutral.
	dir := t.TempDir()
	gotModel, gotTrace := trainAndGenerate(t, train, catalog, testW,
		&core.CheckpointSpec{Dir: dir, Keep: -1})
	if !bytes.Equal(wantModel, gotModel) || !bytes.Equal(wantTrace, gotTrace) {
		t.Fatal("enabling checkpointing changed the trained model or its traces")
	}

	for _, procs := range []int{1, 8} {
		procs := procs
		t.Run("procs="+strconv.Itoa(procs), func(t *testing.T) {
			defer par.SetProcs(par.SetProcs(procs))
			for k := 1; k < resumeEpochs; k++ {
				m, tr := trainAndGenerate(t, train, catalog, testW, &core.CheckpointSpec{
					Dir: cutDir(t, dir, k), Keep: -1, Resume: true,
				})
				if !bytes.Equal(wantModel, m) {
					t.Fatalf("model resumed from boundary %d differs from uninterrupted run", k)
				}
				if !bytes.Equal(wantTrace, tr) {
					t.Fatalf("trace from model resumed at boundary %d differs", k)
				}
			}
		})
	}

	// Torn final write: truncate the newest checkpoint of every prefix;
	// resume must skip them, fall back to the previous boundary, and
	// still converge to identical bytes.
	torn := cutDir(t, dir, resumeEpochs+1)
	entries, err := os.ReadDir(torn)
	if err != nil {
		t.Fatal(err)
	}
	newest := map[string]string{} // prefix -> newest file name
	for _, e := range entries {
		base := strings.TrimSuffix(e.Name(), ".ckpt")
		prefix := base[:strings.LastIndex(base, "-")]
		if e.Name() > newest[prefix] {
			newest[prefix] = e.Name()
		}
	}
	for _, name := range newest {
		path := filepath.Join(torn, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, tr := trainAndGenerate(t, train, catalog, testW, &core.CheckpointSpec{
		Dir: torn, Keep: -1, Resume: true,
	})
	if !bytes.Equal(wantModel, m) || !bytes.Equal(wantTrace, tr) {
		t.Fatal("resume after torn checkpoint write diverged from uninterrupted run")
	}
}

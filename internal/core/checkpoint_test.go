package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/survival"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ckptTrace builds the small shared fixture: a train slice plus a dev
// slice so the flavor loop's dev-selection state is exercised too.
func ckptTrace(t *testing.T) (tr, dev *trace.Trace, devOffset int) {
	t.Helper()
	cfg := workload.PresetConfig("azure")
	cfg.Days = 2
	cfg.Users = 30
	cfg.BaseRate = 1.5
	full := cfg.Generate(5)
	cut := full.Periods * 3 / 4
	tr = full.Slice(trace.Window{Start: 0, End: cut}, 0)
	dev = full.Slice(trace.Window{Start: cut, End: full.Periods}, 0)
	return tr, dev, cut
}

// cutCheckpoints simulates a crash at epoch boundary maxSeq: it returns
// a fresh directory holding only the checkpoint files with sequence
// numbers <= maxSeq, exactly what would exist on disk had the process
// died right after that boundary's save.
func cutCheckpoints(t *testing.T, src string, maxSeq int) string {
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
		i := strings.LastIndex(base, "-")
		seq, err := strconv.Atoi(base[i+1:])
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

const ckptTestEpochs = 3

// TestTrainLoopsResumeBitExact is the per-loop crash/resume property:
// for each of this package's network training loops (internal/experiments
// has the ablation fits' twin), (1) enabling
// checkpointing does not perturb the trained weights, and (2) a run
// killed at ANY epoch boundary and resumed from disk reaches weights
// byte-identical to the uninterrupted run.
func TestTrainLoopsResumeBitExact(t *testing.T) {
	tr, dev, devOffset := ckptTrace(t)
	bins := survival.PaperBins()
	baseCfg := func(spec *CheckpointSpec) TrainConfig {
		return TrainConfig{
			Hidden: 6, Layers: 1, SeqLen: 16, BatchSize: 4,
			Epochs: ckptTestEpochs, LR: 5e-3, Seed: 3,
			Dev: dev, DevOffset: devOffset, DevEvery: 2,
			Checkpoint: spec,
		}
	}
	loops := []struct {
		name  string
		train func(spec *CheckpointSpec) []byte
	}{
		{"flavor-lstm", func(spec *CheckpointSpec) []byte {
			b, err := TrainFlavor(tr, baseCfg(spec)).Net.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{"lifetime-hazard", func(spec *CheckpointSpec) []byte {
			b, err := TrainLifetime(tr, bins, baseCfg(spec)).Net.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
	}
	for _, loop := range loops {
		loop := loop
		t.Run(loop.name, func(t *testing.T) {
			want := loop.train(nil)

			dir := t.TempDir()
			got := loop.train(&CheckpointSpec{Dir: dir, Keep: -1})
			if !bytes.Equal(want, got) {
				t.Fatal("enabling checkpointing changed the trained weights")
			}

			for k := 1; k < ckptTestEpochs; k++ {
				resumed := loop.train(&CheckpointSpec{
					Dir: cutCheckpoints(t, dir, k), Keep: -1, Resume: true,
				})
				if !bytes.Equal(want, resumed) {
					t.Fatalf("resume from epoch boundary %d diverged from uninterrupted run", k)
				}
			}

			// Resuming a finished run short-circuits to the final weights.
			done := loop.train(&CheckpointSpec{Dir: dir, Keep: -1, Resume: true})
			if !bytes.Equal(want, done) {
				t.Fatal("resume of a completed run returned different weights")
			}
		})
	}
}

// TestArrivalCheckpointSkipsRefit: the one-shot GLM checkpoint restores
// identical coefficients without re-running the solver.
func TestArrivalCheckpointSkipsRefit(t *testing.T) {
	tr, _, _ := ckptTrace(t)
	base, err := TrainArrival(tr, ArrivalOptions{Kind: BatchArrivals})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	saved, err := TrainArrival(tr, ArrivalOptions{
		Kind: BatchArrivals, Checkpoint: &CheckpointSpec{Dir: dir},
	})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := TrainArrival(tr, ArrivalOptions{
		Kind: BatchArrivals, Checkpoint: &CheckpointSpec{Dir: dir, Resume: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range base.Reg.W {
		if base.Reg.W[i] != saved.Reg.W[i] || base.Reg.W[i] != resumed.Reg.W[i] {
			t.Fatalf("coefficient %d diverged: %v / %v / %v", i, base.Reg.W[i], saved.Reg.W[i], resumed.Reg.W[i])
		}
	}
	if base.Reg.Intercept != resumed.Reg.Intercept {
		t.Fatal("intercept diverged through checkpoint")
	}
	// A different fit setup must not pick up the stale checkpoint.
	other, err := TrainArrival(tr, ArrivalOptions{
		Kind: VMArrivals, Checkpoint: &CheckpointSpec{Dir: dir, Resume: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	same := other.Reg.Intercept == base.Reg.Intercept
	for i := range other.Reg.W {
		if i < len(base.Reg.W) && other.Reg.W[i] != base.Reg.W[i] {
			same = false
		}
	}
	if same {
		t.Fatal("fingerprint mismatch did not force a refit")
	}
}

// TestResumeIgnoresMismatchedFingerprint: a checkpoint from different
// hyperparameters must be ignored, not loaded into the wrong shapes.
func TestResumeIgnoresMismatchedFingerprint(t *testing.T) {
	tr, dev, devOffset := ckptTrace(t)
	dir := t.TempDir()
	cfgA := TrainConfig{
		Hidden: 6, Layers: 1, SeqLen: 16, BatchSize: 4,
		Epochs: 2, LR: 5e-3, Seed: 3, Dev: dev, DevOffset: devOffset,
		Checkpoint: &CheckpointSpec{Dir: dir, Keep: -1},
	}
	TrainFlavor(tr, cfgA)

	cfgB := cfgA
	cfgB.Hidden = 8
	cfgB.Checkpoint = &CheckpointSpec{Dir: dir, Keep: -1, Resume: true}
	cfgNoCk := cfgB
	cfgNoCk.Checkpoint = nil
	want, err := TrainFlavor(tr, cfgNoCk).Net.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	got, err := TrainFlavor(tr, cfgB).Net.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got) {
		t.Fatal("mismatched checkpoint perturbed a fresh run")
	}
}

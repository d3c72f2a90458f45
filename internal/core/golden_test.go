package core_test

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"testing"

	"repro/internal/core"
	"repro/internal/mat/mattest"
	"repro/internal/par"
	"repro/internal/survival"
	"repro/internal/workload"
)

// Trained-weight hashes of the tiny fits below, recorded at the commit
// that introduced this test (before the training kernels moved off the
// scalar paths). They are constants of the numerics, not of the build:
// the determinism suites compare REPRO_PROCS 1 vs 8 inside one binary,
// this test compares every later commit — on the assembly and on the
// portable kernels — against the same bits. A kernel or training-loop
// change that moves one is a change of results and must say so; never
// re-record to make a refactor pass.
const (
	goldenFlavorLSTM   = "51459c67b829b12e17cd02f8d03f469eb137be3a7e4d3e0aaab092dce05d460c"
	goldenLifetimeLSTM = "a63186789b14b63c858377400bc21ff257b3a144e33f94cf49a4ec91ea950a0e"
	// These hash MarshalBinary, a gob stream, and gob numbers types in
	// the order a process first encodes them: the blobs hold still only
	// while nn.Config is the first type the test binary encodes — true of
	// a full run and of this test alone, not of every -run selection.
	// The ablation fits' twins (internal/experiments,
	// TestAblationGolden) hash the parameter bits themselves, which no
	// test order can move.
)

// snapshotBytes is a network's MarshalBinary blob.
func snapshotBytes(t *testing.T, net encoding.BinaryMarshaler) []byte {
	blob, err := net.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return blob
}

// TestTrainedSnapshotGolden fits a tiny network with every SGD training
// entry point of this package (1-day "mixed" history, hidden 8 × 2, 2
// epochs, fixed seed) and compares sha256 of each network's
// MarshalBinary with the recorded constants, at one worker and at
// eight, on both kernel tiers.
func TestTrainedSnapshotGolden(t *testing.T) {
	spec := workload.Preset("mixed")
	spec.Days = 1
	cfg, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	history := cfg.Generate(20210521)
	tc := core.TrainConfig{Hidden: 8, Layers: 2, Epochs: 2, Seed: 7}

	fits := []struct {
		name, want string
		fit        func() []byte
	}{
		{"flavor_lstm", goldenFlavorLSTM, func() []byte {
			return snapshotBytes(t, core.TrainFlavor(history, tc).Net)
		}},
		{"lifetime_lstm", goldenLifetimeLSTM, func() []byte {
			return snapshotBytes(t, core.TrainLifetime(history, survival.PaperBins(), tc).Net)
		}},
	}
	mattest.BothTiersUnraced(t, func(t *testing.T) {
		for _, procs := range []int{1, 8} {
			prev := par.SetProcs(procs)
			for _, f := range fits {
				sum := sha256.Sum256(f.fit())
				if got := hex.EncodeToString(sum[:]); got != f.want {
					t.Errorf("%s at %d workers: weights sha256 %s, want %s", f.name, procs, got, f.want)
				}
			}
			par.SetProcs(prev)
		}
	})
}

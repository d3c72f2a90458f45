package core_test

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/mat/mattest"
	"repro/internal/nn"
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
	goldenFlavorGRU    = "0c966a95de4fcbdb147c9e372926a21a40e55f106289644dcd90ebfce02fd2a9"
	// The three above hash MarshalBinary, a gob stream, and gob numbers
	// types in the order a process first encodes them: those blobs hold
	// still only while nn.Config is the first type the test binary
	// encodes — true of a full run and of this test alone, not of every
	// -run selection. The entries below hash the parameter bits
	// themselves (weightBytes), which no test order can move.
	//
	// Recorded on the last commit with seven separate training loops,
	// before the Transformer moved under the shared epoch skeleton.
	goldenFlavorTransformer = "f00604c8e13eb3e191e6b9296dff3eab71321b2068b617cda8fe1a3f77daa7f2"
	// Recorded on the commit that moved the PMF and joint fits from a
	// full-batch Forward/Backward onto the sharded window runner: the
	// per-shard gradient regrouping changed their low bits once, by
	// design. Pinned like the rest from there on.
	goldenLifetimePMF = "87fc87e5370d33060819e45c11db4e197b2269befc58e49d9ff85c4212001b36"
	goldenJointLSTM   = "6264f43c13123a773d80cd27a216086914ad8308d2fe3d17b44040a855b945d0"
)

// snapshotBytes is a network's MarshalBinary blob.
func snapshotBytes(t *testing.T, net encoding.BinaryMarshaler) []byte {
	blob, err := net.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return blob
}

// weightBytes is every parameter's name and float64 bits, in
// construction order.
func weightBytes(params []*nn.Param) []byte {
	var out []byte
	for _, p := range params {
		out = append(out, p.Name...)
		for _, v := range p.Value.Data {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

// TestTrainedSnapshotGolden fits a tiny network with every SGD training
// entry point (1-day "mixed" history, hidden 8 × 2, 2 epochs, fixed
// seed) and compares sha256 of each network's MarshalBinary with the
// recorded constants, at one worker and at eight, on both kernel tiers.
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
		{"flavor_gru", goldenFlavorGRU, func() []byte {
			return snapshotBytes(t, core.TrainFlavorGRU(history, tc).Net)
		}},
		{"flavor_transformer", goldenFlavorTransformer, func() []byte {
			return weightBytes(core.TrainFlavorTransformer(history, core.TransformerTrainConfig{
				ModelDim: 8, Heads: 2, Layers: 2, Epochs: 2, Seed: 7,
			}).Net.Params())
		}},
		{"lifetime_pmf", goldenLifetimePMF, func() []byte {
			return weightBytes(core.TrainLifetimePMF(history, survival.PaperBins(), tc).Net.Params())
		}},
		{"joint_lstm", goldenJointLSTM, func() []byte {
			return weightBytes(core.TrainJoint(history, tc).Net.Params())
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

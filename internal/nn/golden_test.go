package nn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/mat/mattest"
	"repro/internal/rng"
)

// Logit hashes of fleetProtocolDigest on the f32 fleet, recorded on the
// last commit that still had a hand-written Fleet32 beside Fleet (PR 16's
// tree). The f64 fleet is pinned to the scalar reference forward on
// every run; before these constants the f32 fleet was pinned only to
// itself within one build, so a kernel change that moved every f32 bit
// the same way passed. They are constants of the f32 numerics: the
// packed fleet reproduces the row-major fleet they were recorded on, on
// the assembly and on the portable kernels. Never re-record one to make
// a refactor pass.
var goldenFleet32Logits = map[Config]string{
	{InputDim: 9, HiddenDim: 8, Layers: 2, OutputDim: 5}:    "a196d1a8df26b1786e0e55c874ae92b4957be4bf41647b0681bd1cef83e48162",
	{InputDim: 30, HiddenDim: 48, Layers: 2, OutputDim: 17}: "387102238077fc4f9981b9bdee7e882eac303e973b8d7a7efd73571a1b7f90a6",
}

// fleetProtocolDigest drives a fleet through a fixed protocol that
// touches every part of the row bookkeeping — admission past the
// initial capacity (a grow), varying step subsets mixing one-hot and
// dense inputs, retires of a first, a middle and the last row with
// swap-remove compaction, and a re-admission into a used row — and
// returns the sha256 of every logit it produced, as float64 bits in
// step order.
func fleetProtocolDigest(f StepFleet) string {
	const streams = 7
	h := sha256.New()
	rows := make(map[int]int)  // stream -> fleet row
	owner := make(map[int]int) // fleet row -> stream
	steps := make([]int, streams+1)
	admit := func(s int) {
		rows[s] = f.Admit()
		owner[rows[s]] = s
	}
	retire := func(s int) {
		row := rows[s]
		delete(rows, s)
		delete(owner, row)
		if moved := f.Retire(row); moved >= 0 {
			o := owner[moved]
			delete(owner, moved)
			rows[o], owner[row] = row, o
		}
	}
	pick := rng.New(4242)
	var buf [8]byte
	round := func(all bool) {
		var sub, batch []int
		for s := 0; s <= streams; s++ {
			if _, live := rows[s]; live && (all || pick.Float64() < 0.6) {
				fleetInput(f.InputRow(len(sub)), s, steps[s])
				sub = append(sub, s)
				batch = append(batch, rows[s])
				steps[s]++
			}
		}
		for _, v := range f.Step(batch).Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	for s := 0; s < streams; s++ {
		admit(s) // the fleets under test start at capacity 2: grows twice
	}
	round(true)
	for r := 0; r < 20; r++ {
		round(false)
	}
	retire(0) // first row: the last row moves down
	round(true)
	retire(3) // a middle row
	for r := 0; r < 10; r++ {
		round(false)
	}
	retire(owner[f.Rows()-1]) // the last row: nothing moves
	round(true)
	admit(streams) // a fresh stream in a previously used row
	for r := 0; r < 10; r++ {
		round(false)
	}
	round(true)
	return hex.EncodeToString(h.Sum(nil))
}

// TestFleet32LogitsGolden pins the f32 fleet's bits across commits, on
// both kernel tiers alike.
func TestFleet32LogitsGolden(t *testing.T) {
	mattest.BothTiers(t, func(t *testing.T) {
		for cfg, want := range goldenFleet32Logits {
			net32 := NewLSTM(cfg, rng.New(7)).Convert32()
			if got := fleetProtocolDigest(net32.NewFleet32Packed(2, net32.Pack())); got != want {
				t.Errorf("%+v packed: logits sha256 %s, want %s", cfg, got, want)
			}
		}
	})
}

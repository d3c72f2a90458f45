// Workspace: the package's memory-discipline layer (DESIGN.md "Memory
// discipline"). Every per-call buffer a Forward/Backward pass needs —
// activation slabs, gate caches, backward scratch, row views — is drawn
// from a per-network Workspace instead of the heap, so the steady-state
// training and generation hot paths allocate nothing.
//
// A Workspace holds two bump arenas and flips between them on each
// Forward call: the current call's buffers come from one arena while
// the previous call's buffers (in particular the State views a caller
// carries across truncated-BPTT windows, and the returned ys) stay
// readable in the other. A buffer is therefore valid until the
// next-but-one Forward on the same network. Backward bump-continues on
// the arena of the cache it was given.
//
// Determinism contract: the arena only changes where results are
// stored, never how they are computed — kernel call sequence, shapes,
// and per-element accumulation order are untouched, so reusing buffers
// is bit-exact with respect to fresh allocation (workspace_test.go
// proves it). Workspaces are per-network and never shared. Sharded
// training uses none: its shards run on single arenas that the trainer
// lends out one per running shard (shard.go), so no two running shards
// share one and the fan-out stays race-free, and a shard's buffers are
// valid only until it hands its arena back. A network makes its
// Workspace on first use and keeps it until ReleaseWorkspace.
package nn

import (
	"repro/internal/mat"
)

// arena is a bump allocator over reusable matrix slabs and view
// headers. reset rewinds it without freeing, so steady-state calls
// reuse the same backing arrays.
type arena struct {
	bufs   []*mat.Dense // owned slabs, in acquisition order
	views  []*mat.Dense // owned view headers, in acquisition order
	floats [][]float64  // owned float scratch slices, in acquisition order
	nb     int          // slabs handed out since reset
	nv     int          // views handed out since reset
	nf     int          // float slices handed out since reset

	cache Cache // reusable forward cache (one per arena)
}

func (a *arena) reset() { a.nb, a.nv, a.nf = 0, 0, 0 }

// slab returns an r×c matrix backed by arena memory, growing the
// backing array only when the requested size exceeds its capacity.
// zero=true clears it (required for GEMM accumulation targets); pass
// false only when every element is written before it is read.
func (a *arena) slab(r, c int, zero bool) *mat.Dense {
	need := r * c
	var m *mat.Dense
	if a.nb < len(a.bufs) {
		m = a.bufs[a.nb]
		if cap(m.Data) >= need {
			m.Rows, m.Cols, m.Data = r, c, m.Data[:need]
			if zero {
				m.Zero()
			}
			a.nb++
			return m
		}
		m.Rows, m.Cols, m.Data = r, c, make([]float64, need)
		a.nb++
		return m
	}
	m = mat.NewDense(r, c)
	a.bufs = append(a.bufs, m)
	a.nb++
	return m
}

// fslice returns an arena-owned []float64 of length n, grown on demand.
// The contents are unspecified; callers must fully write before reading.
func (a *arena) fslice(n int) []float64 {
	if a.nf < len(a.floats) {
		s := a.floats[a.nf]
		if cap(s) >= n {
			a.floats[a.nf] = s[:n]
			a.nf++
			return s[:n]
		}
		s = make([]float64, n)
		a.floats[a.nf] = s
		a.nf++
		return s
	}
	s := make([]float64, n)
	a.floats = append(a.floats, s)
	a.nf++
	return s
}

// view returns an arena-owned header over rows [lo, hi) of m, aliasing
// m's storage.
func (a *arena) view(m *mat.Dense, lo, hi int) *mat.Dense {
	var v *mat.Dense
	if a.nv < len(a.views) {
		v = a.views[a.nv]
	} else {
		v = &mat.Dense{}
		a.views = append(a.views, v)
	}
	a.nv++
	v.Rows, v.Cols = hi-lo, m.Cols
	v.Data = m.Data[lo*m.Cols : hi*m.Cols]
	return v
}

// Workspace is a pair of bump arenas owned by one network. flip
// switches to (and rewinds) the other arena, keeping the previous
// call's buffers intact for state carried across windows.
type Workspace struct {
	arenas [2]arena
	cur    int
}

func (w *Workspace) flip() *arena {
	w.cur ^= 1
	a := &w.arenas[w.cur]
	a.reset()
	return a
}

func (n *LSTM) workspace() *Workspace {
	if n.ws == nil {
		n.ws = &Workspace{}
	}
	return n.ws
}

// ReleaseWorkspace detaches the network's scratch arenas so the
// collector can take them; the next Forward makes a fresh Workspace.
// States and ys obtained from Forward alias the workspace. Safe to call
// on a network that never ran.
func (n *LSTM) ReleaseWorkspace() {
	n.ws = nil
}

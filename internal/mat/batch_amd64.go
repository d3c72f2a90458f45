package mat

// haveBatchASM reports whether the AVX2 batched-decode kernels may be
// used. The gate requires AVX, AVX2, FMA, and OS-enabled YMM state:
// AVX2 for the 256-bit integer ops in the vector ldexp, and AVX+FMA
// because expAVX2 transcribes math.Exp's FMA path — math's own
// useFMA flag is exactly HasAVX && HasFMA, so whenever our kernels are
// enabled the scalar math.Exp they must match bit-for-bit is on that
// same path.
func haveBatchASM() bool { return cpuHasAVX2FMA() }

// cpuHasAVX2FMA reports AVX+AVX2+FMA with OS-enabled YMM state
// (CPUID leaves 1 and 7, XGETBV). Implemented in batch_amd64.s.
func cpuHasAVX2FMA() bool

// expAVX2 sets dst[i] = math.Exp(x[i]) for i in [0, n), n a positive
// multiple of 4, bit-identically to math.Exp's amd64 FMA path. dst and
// x may alias exactly. Implemented in batch_amd64.s.
//
//go:noescape
func expAVX2(dst, x *float64, n int)

// sigmoidAVX2 sets dst[i] = 1/(1+math.Exp(-x[i])), bit for bit, under
// expAVX2's contract. Implemented in batch_amd64.s.
//
//go:noescape
func sigmoidAVX2(dst, x *float64, n int)

// tanhAVX2 sets dst[i] = math.Tanh(x[i]) (the pure-Go tanh: amd64 has no
// assembly one), bit for bit, under expAVX2's contract. Implemented in
// batch_amd64.s.
//
//go:noescape
func tanhAVX2(dst, x *float64, n int)

// lstmCellAVX2 is LSTMCell's kernel: for m > 0 rows of gate
// pre-activations z (4·hd wide), cell state c and hidden output h (hd
// wide, hd a positive multiple of 4) it adds the bias b to z, applies
// the gate activations in place, and updates c and h — sigmoidAVX2's and
// tanhAVX2's bodies and separate VMULPD / VADDPD, so finite inputs give
// the portable body's bits. tanh(c) is stored to tc (hd wide) before o
// scales it into h; tc may be h itself. Implemented in batch_amd64.s.
//
//go:noescape
func lstmCellAVX2(z, b, c, h, tc *float64, m, hd int)

// rowSumAVX2 is the row-sum kernel (rowSum: MulAddSparse, MulAdd's
// small products, SumRows, Add): for the
// cnt > 0 listed columns k = idx[e] of one input row x, ascending, it
// adds x[k]·b[k*n+j] into dst[j] for j in [0, n&^3), holding up to 48
// dst columns in registers across the whole list. x[k] == 1 is a bare
// VADDPD (the product with 1.0 is exact, so it is skipped); any other
// value is VMULPD then VADDPD, never FMA. Columns n&^3..n-1 are the
// caller's job. Implemented in batch_amd64.s.
//
//go:noescape
func rowSumAVX2(dst, x, b *float64, n int, idx *uint8, cnt int)

// gemmPacked16AVX2 accumulates a group of tiles in [1, 3] consecutive
// 16-column packed panel tiles into dst for m activation rows:
// dst[i*n+j] += Σ_k a[i*k+k′]·p[t*k*16+k′*16+j%16], t = j/16, j in
// [0, 16·tiles), with dst addressed at the group's first column. Each
// element's k terms are ascending, a separate VMULPD then VADDPD each,
// so results are the scalar oracle's bits; the panel loads are
// contiguous, and the group's accumulators are all in registers at
// once. m and k must be positive. Implemented in batch_amd64.s.
//
//go:noescape
func gemmPacked16AVX2(dst, a, p *float64, m, k, n, tiles int)

// gemmPacked4AVX2 is gemmPacked16AVX2 over 4-column narrow tiles.
// Implemented in batch_amd64.s.
//
//go:noescape
func gemmPacked4AVX2(dst, a, p *float64, m, k, n, tiles int)

package mat

// gemm32AVX2 computes dst[i*n+j] += Σ_k a[i*k+k′]·b[k′*n+j] in float32
// for all m rows and columns [0, n&^7), eight lanes per YMM register —
// twice gemmAVX2's width — accumulating each element's k terms in
// ascending order with separate VMULPS+VADDPS (no FMA, matching the
// portable fallback's plain float32 expression). Columns n&^7..n-1 are
// the caller's job. Implemented in batch32_amd64.s.
//
//go:noescape
func gemm32AVX2(dst, a, b *float32, m, k, n int)

// rowSum32AVX2 is rowSumAVX2 in float32: eight lanes, up to 96 dst
// columns in registers, columns [0, n&^7). Implemented in
// batch32_amd64.s.
//
//go:noescape
func rowSum32AVX2(dst, x, b *float32, n int, idx *uint8, cnt int)

// sigmoid32AVX2 sets dst[i] = 1/(1+exp(-x[i])) for i in [0, n), n a
// positive multiple of 8, bit-identical to the portable sigmoid32 in
// act32.go. Implemented in batch32_amd64.s.
//
//go:noescape
func sigmoid32AVX2(dst, x *float32, n int)

// tanh32AVX2 sets dst[i] = tanh(x[i]) for i in [0, n), n a positive
// multiple of 8, bit-identical to the portable tanh32 in act32.go.
// Implemented in batch32_amd64.s.
//
//go:noescape
func tanh32AVX2(dst, x *float32, n int)

// gemmPacked32AVX2 accumulates one 32-column packed panel tile into dst
// for m activation rows: dst[i*n+j] += Σ_k a[i*k+k′]·p[k′*32+j], j in
// [0, 32), with dst addressed at the tile's first column. Same
// ascending-k separate-VMULPS+VADDPS schedule as gemm32AVX2, so results
// are bit-identical; only the panel loads are contiguous. m and k must
// be positive. Implemented in batch32_amd64.s.
//
//go:noescape
func gemmPacked32AVX2(dst, a, p *float32, m, k, n int)

// gemmPacked8AVX2 is the 8-column narrow-tile variant of
// gemmPacked32AVX2. Implemented in batch32_amd64.s.
//
//go:noescape
func gemmPacked8AVX2(dst, a, p *float32, m, k, n int)

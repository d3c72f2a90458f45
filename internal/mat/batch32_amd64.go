package mat

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

// gemmPacked32AVX2 is gemmPacked16AVX2 in float32: a group of tiles in
// [1, 3] consecutive 32-column packed panel tiles, eight lanes per
// register, separate VMULPS+VADDPS. Implemented in batch32_amd64.s.
//
//go:noescape
func gemmPacked32AVX2(dst, a, p *float32, m, k, n, tiles int)

// gemmPacked8AVX2 is gemmPacked32AVX2 over 8-column narrow tiles.
// Implemented in batch32_amd64.s.
//
//go:noescape
func gemmPacked8AVX2(dst, a, p *float32, m, k, n, tiles int)

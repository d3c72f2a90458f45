//go:build !amd64

package mat

// Without assembly kernels the float32 packed GEMM, row sum and
// activations use their portable fallbacks (panel.go, batch.go,
// act32.go), which are bit-identical (and the reference the assembly is
// tested against).

func rowSum32AVX2(dst, x, b *float32, n int, idx *uint8, cnt int) {
	panic("mat: rowSum32AVX2 without assembly kernel")
}

func sigmoid32AVX2(dst, x *float32, n int) {
	panic("mat: sigmoid32AVX2 without assembly kernel")
}

func tanh32AVX2(dst, x *float32, n int) {
	panic("mat: tanh32AVX2 without assembly kernel")
}

func gemmPacked32AVX2(dst, a, p *float32, m, k, n, tiles int) {
	panic("mat: gemmPacked32AVX2 without assembly kernel")
}

func gemmPacked8AVX2(dst, a, p *float32, m, k, n, tiles int) {
	panic("mat: gemmPacked8AVX2 without assembly kernel")
}

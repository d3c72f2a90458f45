//go:build !amd64

package mat

// haveBatchASM reports whether assembly batched-decode kernels exist
// for this architecture. Without them the GEMMs, ExpSlice,
// SigmoidSlice, TanhSlice and LSTMCell use the portable bodies in
// batch.go and panel.go, which are bit-identical (and the reference the
// assembly is tested against).
func haveBatchASM() bool { return false }

func gemmAVX2(dst, a, b *float64, m, k, n int) {
	panic("mat: gemmAVX2 without assembly kernel")
}

func rowSumAVX2(dst, x, b *float64, n int, idx *uint8, cnt int) {
	panic("mat: rowSumAVX2 without assembly kernel")
}

func expAVX2(dst, x *float64, n int) {
	panic("mat: expAVX2 without assembly kernel")
}

func sigmoidAVX2(dst, x *float64, n int) {
	panic("mat: sigmoidAVX2 without assembly kernel")
}

func tanhAVX2(dst, x *float64, n int) {
	panic("mat: tanhAVX2 without assembly kernel")
}

func lstmCellAVX2(z, b, c, h *float64, m, hd int) {
	panic("mat: lstmCellAVX2 without assembly kernel")
}

func gemmPacked16AVX2(dst, a, p *float64, m, k, n, tiles int) {
	panic("mat: gemmPacked16AVX2 without assembly kernel")
}

func gemmPacked4AVX2(dst, a, p *float64, m, k, n, tiles int) {
	panic("mat: gemmPacked4AVX2 without assembly kernel")
}

//go:build !amd64

package blas

// avx2Tables reports that there are no AVX2 tables besides the init-time
// selection: off amd64 the portable tables are the only ones.
func avx2Tables() (kernels[float64], kernels[float32], bool) {
	return kernels[float64]{}, kernels[float32]{}, false
}

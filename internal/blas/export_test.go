package blas

// WithPortableKernels lets the external tests of this package run lapack's
// kernels, which reach the kernel tables only through blas, on the
// portable tables.
var WithPortableKernels = withPortableKernels

// WithAVX2Kernels does the same on the AVX2 tables where init picked the
// AVX-512 ones, and reports whether it ran f.
var WithAVX2Kernels = withAVX2Kernels

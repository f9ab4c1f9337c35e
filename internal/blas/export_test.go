package blas

// WithPortableKernels lets the external tests of this package run lapack's
// kernels, which reach the kernel tables only through blas, on the
// portable tables.
var WithPortableKernels = withPortableKernels

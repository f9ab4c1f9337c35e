package lapack

import (
	"fmt"
	"math"

	"luqr/internal/blas"
	"luqr/internal/mat"
)

// Mixed-precision kernels: float32 arithmetic on float32 storage.
//
// Each routine here mirrors its float64 namesake — same pivot semantics,
// same compact-WY V/T contracts, same in-place storage layout — with every
// floating-point operation performed at float32 on the mat.Matrix32 tile
// images of the residency layer (package tile). Widened, the factors are
// interchangeable with the f64 ones: Unmqr can replay a Geqrt32RIB factor,
// a Getrf32R panel feeds the same Laswp/Trsm elimination, and the
// serialized factor format does not change shape. The level-3 flops run
// through the blas float32 packed path (Gemm32R/Trsm32R/Trmm32R). T factors
// stay in the caller's float32 scratch and are widened once per factor
// task, not per update.

// Laswp32R applies Getrf row interchanges to a float32 tile image, forward
// (inverse == false) or backward (inverse == true), exactly like Laswp.
func Laswp32R(a *mat.Matrix32, piv []int, inverse bool) {
	if !inverse {
		for k := 0; k < len(piv); k++ {
			if piv[k] != k {
				a.SwapRows(k, piv[k])
			}
		}
		return
	}
	for k := len(piv) - 1; k >= 0; k-- {
		if piv[k] != k {
			a.SwapRows(k, piv[k])
		}
	}
}

func absf32(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}

// Getrf32R is Getrf at float32: LU with partial pivoting, recursive
// right-looking; a zero pivot is a breakdown.
func Getrf32R(a *mat.Matrix32) (piv []int, err error) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic(fmt.Sprintf("lapack: Getrf32R requires m >= n, got %dx%d", m, n))
	}
	piv = make([]int, n)
	return piv, getrfRecursive32R(a, piv)
}

func getrfRecursive32R(a *mat.Matrix32, piv []int) (err error) {
	m, n := a.Rows, a.Cols
	if n <= getrfLeaf {
		return getrfUnblocked32R(a, piv)
	}
	n1 := n / 2
	if e := getrfRecursive32R(a.View(0, 0, m, n1), piv[:n1]); e != nil {
		err = e
	}
	Laswp32R(a.View(0, n1, m, n-n1), piv[:n1], false)
	u12 := a.View(0, n1, n1, n-n1)
	blas.Trsm32R(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, a.View(0, 0, n1, n1), u12)
	blas.Gemm32R(blas.NoTrans, blas.NoTrans, -1, a.View(n1, 0, m-n1, n1), u12, 1, a.View(n1, n1, m-n1, n-n1))
	if e := getrfRecursive32R(a.View(n1, n1, m-n1, n-n1), piv[n1:]); e != nil {
		err = e
	}
	for j := n1; j < n; j++ {
		piv[j] += n1
		if piv[j] != j {
			r1, r2 := a.Row(j), a.Row(piv[j])
			for c := 0; c < n1; c++ {
				r1[c], r2[c] = r2[c], r1[c]
			}
		}
	}
	return err
}

// getrfUnblocked32R is getrfUnblocked at float32, with the same fused
// next-pivot search.
func getrfUnblocked32R(a *mat.Matrix32, piv []int) (err error) {
	m, n := a.Rows, a.Cols
	d, ld := a.Data, a.Stride
	p, pv := 0, absf32(d[0])
	for i := 1; i < m; i++ {
		if v := absf32(d[i*ld]); v > pv {
			p, pv = i, v
		}
	}
	for k := 0; k < n; k++ {
		piv[k] = p
		if p != k {
			rk := d[k*ld : k*ld+n]
			rp := d[p*ld : p*ld+n]
			for c, v := range rk {
				rk[c], rp[c] = rp[c], v
			}
		}
		akk := d[k*ld+k]
		last := k+1 == n
		if akk == 0 {
			err = ErrSingular
			if !last {
				p, pv = k+1, absf32(d[(k+1)*ld+k+1])
				for i := k + 2; i < m; i++ {
					if v := absf32(d[i*ld+k+1]); v > pv {
						p, pv = i, v
					}
				}
			}
			continue
		}
		inv := 1 / akk
		rowk := d[k*ld+k+1 : k*ld+n]
		pv = -1
		for i := k + 1; i < m; i++ {
			off := i * ld
			lik := d[off+k] * inv
			d[off+k] = lik
			rowi := d[off+k+1 : off+n]
			if lik != 0 {
				for j, v := range rowk {
					rowi[j] = rowi[j] - lik*v
				}
			}
			if !last {
				if v := absf32(rowi[0]); v > pv {
					p, pv = i, v
				}
			}
		}
	}
	return err
}

// Larfg32R is Larfg at float32: same norm, sign choice, tau, and scaling.
func Larfg32R(alpha float32, x []float32) (beta, tau float32) {
	sigma := blas.Dot32R(x, x)
	if sigma == 0 {
		return alpha, 0
	}
	mu := float32(math.Sqrt(float64(alpha*alpha + sigma)))
	var b32 float32
	if alpha <= 0 {
		b32 = mu
	} else {
		b32 = -mu
	}
	t32 := (b32 - alpha) / b32
	blas.Scal32R(1/(alpha-b32), x)
	return b32, t32
}

// larftColumn32R is larftColumn at float32.
func larftColumn32R(t *mat.Matrix32, j int, tau float32, w []float32) {
	for r := 0; r < j; r++ {
		var s float32
		row := t.Row(r)
		for c := r; c < j; c++ {
			s += row[c] * w[c]
		}
		t.Set(r, j, -tau*s)
	}
	t.Set(j, j, tau)
}

// larftMerge32R is larftMerge at float32. The final negation is exact.
func larftMerge32R(t *mat.Matrix32, j0, bs int, y *mat.Matrix32) {
	blas.Trmm32R(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, 1, t.View(0, 0, j0, j0), y)
	blas.Trmm32R(blas.Right, blas.Upper, blas.NoTrans, blas.NonUnit, 1, t.View(j0, j0, bs, bs), y)
	for i := 0; i < j0; i++ {
		dst := t.Row(i)[j0 : j0+bs]
		src := y.Row(i)
		for c := range dst {
			dst[c] = -src[c]
		}
	}
}

// subRows32R computes dst −= src row-wise.
func subRows32R(dst, src *mat.Matrix32) {
	for i := 0; i < dst.Rows; i++ {
		d, s := dst.Row(i), src.Row(i)
		for c := range d {
			d[c] = d[c] - s[c]
		}
	}
}

// addRows32R computes dst += src row-wise.
func addRows32R(dst, src *mat.Matrix32) {
	for i := 0; i < dst.Rows; i++ {
		d, s := dst.Row(i), src.Row(i)
		for c := range d {
			d[c] = d[c] + s[c]
		}
	}
}

// Geqrt32RIB is GeqrtIB at float32: R and V in a, full T in t, inner block
// size ib (PanelIB when ib <= 0).
func Geqrt32RIB(a, t *mat.Matrix32, ib int) {
	m, n := a.Rows, a.Cols
	if m < n {
		panic(fmt.Sprintf("lapack: Geqrt32RIB requires m >= n, got %dx%d", m, n))
	}
	if t.Rows < n || t.Cols < n {
		panic(fmt.Sprintf("lapack: Geqrt32RIB T too small: %dx%d for n=%d", t.Rows, t.Cols, n))
	}
	t.Zero()
	if ib <= 0 {
		ib = PanelIB()
	}
	if n <= ib {
		geqrtUnblocked32R(a, t)
		return
	}
	for j0 := 0; j0 < n; j0 += ib {
		bs := min(ib, n-j0)
		v := a.View(j0, j0, m-j0, bs)
		tb := t.View(j0, j0, bs, bs)
		geqrtUnblocked32R(v, tb)
		if j0+bs < n {
			Unmqr32R(blas.Trans, v, tb, a.View(j0, j0+bs, m-j0, n-j0-bs))
		}
		if j0 > 0 {
			mergeGeqrtT32R(a, t, j0, bs)
		}
	}
}

// mergeGeqrtT32R is mergeGeqrtT with the cross-Gram GEMM and the dlarft
// recurrence at float32. The V2 materialization copies stored values (and
// writes exact 0/1), so it introduces no rounding of its own.
func mergeGeqrtT32R(a, t *mat.Matrix32, j0, bs int) {
	m := a.Rows
	v2, v2buf := mat.GetMatrix32(m-j0, bs)
	defer mat.PutBuf32(v2buf)
	for i := 0; i < m-j0; i++ {
		dst := v2.Row(i)
		src := a.Row(j0 + i)[j0 : j0+bs]
		for c := range dst {
			switch {
			case i < c:
				dst[c] = 0
			case i == c:
				dst[c] = 1
			default:
				dst[c] = src[c]
			}
		}
	}
	y, ybuf := mat.GetMatrix32(j0, bs)
	defer mat.PutBuf32(ybuf)
	blas.Gemm32R(blas.Trans, blas.NoTrans, 1, a.View(j0, 0, m-j0, j0), v2, 0, y)
	larftMerge32R(t, j0, bs, y)
}

// geqrtUnblocked32R is geqrtUnblocked at float32.
func geqrtUnblocked32R(a, t *mat.Matrix32) {
	m, n := a.Rows, a.Cols
	buf := mat.GetBuf32(m + n)
	defer mat.PutBuf32(buf)
	x := buf.Data[:m]
	w := buf.Data[m:]
	for j := 0; j < n; j++ {
		for i := j + 1; i < m; i++ {
			x[i-j-1] = a.At(i, j)
		}
		beta, tau := Larfg32R(a.At(j, j), x[:m-j-1])
		a.Set(j, j, beta)
		for i := j + 1; i < m; i++ {
			a.Set(i, j, x[i-j-1])
		}
		if tau != 0 && j+1 < n {
			wj := w[:n-j-1]
			copy(wj, a.Row(j)[j+1:n])
			for i := j + 1; i < m; i++ {
				blas.Axpy32R(a.At(i, j), a.Row(i)[j+1:n], wj)
			}
			blas.Axpy32R(-tau, wj, a.Row(j)[j+1:n])
			for i := j + 1; i < m; i++ {
				blas.Axpy32R(-tau*a.At(i, j), wj, a.Row(i)[j+1:n])
			}
		}
		wt := w[:j]
		copy(wt, a.Row(j)[:j])
		for r := j + 1; r < m; r++ {
			blas.Axpy32R(a.At(r, j), a.Row(r)[:j], wt)
		}
		larftColumn32R(t, j, tau, wt)
	}
}

// Unmqr32R is Unmqr at float32: W = VᵀC through the TRMM/GEMM pair, T
// applied by TRMM, and the subtraction back into C.
func Unmqr32R(trans blas.Transpose, v, t, c *mat.Matrix32) {
	m, n := v.Rows, v.Cols
	if c.Rows != m {
		panic(fmt.Sprintf("lapack: Unmqr32R shape mismatch V=%dx%d C=%dx%d", m, n, c.Rows, c.Cols))
	}
	k := c.Cols
	v1 := v.View(0, 0, n, n)
	c1 := c.View(0, 0, n, k)
	w, wbuf := mat.GetMatrix32(n, k)
	defer mat.PutBuf32(wbuf)
	w.CopyFrom(c1)
	blas.Trmm32R(blas.Left, blas.Lower, blas.Trans, blas.Unit, 1, v1, w)
	if m > n {
		blas.Gemm32R(blas.Trans, blas.NoTrans, 1, v.View(n, 0, m-n, n), c.View(n, 0, m-n, k), 1, w)
	}
	tview := t.View(0, 0, n, n)
	if trans == blas.Trans {
		blas.Trmm32R(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, 1, tview, w)
	} else {
		blas.Trmm32R(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, 1, tview, w)
	}
	if m > n {
		w2, w2buf := mat.GetMatrix32(n, k)
		defer mat.PutBuf32(w2buf)
		w2.CopyFrom(w)
		blas.Trmm32R(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, v1, w2)
		subRows32R(c1, w2)
		blas.Gemm32R(blas.NoTrans, blas.NoTrans, -1, v.View(n, 0, m-n, n), w, 1, c.View(n, 0, m-n, k))
		return
	}
	// m == n: the trailing GEMM is gone and W is dead after the
	// subtraction, so V1·W runs in place without the scratch copy.
	blas.Trmm32R(blas.Left, blas.Lower, blas.NoTrans, blas.Unit, 1, v1, w)
	subRows32R(c1, w)
}

// Tsqrt32RIB is TsqrtIB at float32; same V = [I; V2] contract, R's strictly
// lower storage untouched.
func Tsqrt32RIB(r, a, t *mat.Matrix32, ib int) {
	n := r.Cols
	m := a.Rows
	if r.Rows != n {
		panic(fmt.Sprintf("lapack: Tsqrt32RIB needs square R, got %dx%d", r.Rows, r.Cols))
	}
	if a.Cols != n {
		panic(fmt.Sprintf("lapack: Tsqrt32RIB A cols %d != R order %d", a.Cols, n))
	}
	if t.Rows < n || t.Cols < n {
		panic(fmt.Sprintf("lapack: Tsqrt32RIB T too small: %dx%d", t.Rows, t.Cols))
	}
	t.Zero()
	if ib <= 0 {
		ib = PanelIB()
	}
	if n <= ib {
		tsqrtUnblocked32R(r, a, t)
		return
	}
	for j0 := 0; j0 < n; j0 += ib {
		bs := min(ib, n-j0)
		v2 := a.View(0, j0, m, bs)
		tb := t.View(j0, j0, bs, bs)
		tsqrtUnblocked32R(r.View(j0, j0, bs, bs), v2, tb)
		if j0+bs < n {
			Tsmqr32R(blas.Trans, v2, tb, r.View(j0, j0+bs, bs, n-j0-bs), a.View(0, j0+bs, m, n-j0-bs))
		}
		if j0 > 0 {
			y, ybuf := mat.GetMatrix32(j0, bs)
			blas.Gemm32R(blas.Trans, blas.NoTrans, 1, a.View(0, 0, m, j0), v2, 0, y)
			larftMerge32R(t, j0, bs, y)
			mat.PutBuf32(ybuf)
		}
	}
}

// tsqrtUnblocked32R is tsqrtUnblocked at float32.
func tsqrtUnblocked32R(r, a, t *mat.Matrix32) {
	n := r.Cols
	m := a.Rows
	buf := mat.GetBuf32(m + n)
	defer mat.PutBuf32(buf)
	x := buf.Data[:m]
	w := buf.Data[m:]
	for j := 0; j < n; j++ {
		for i := 0; i < m; i++ {
			x[i] = a.At(i, j)
		}
		beta, tau := Larfg32R(r.At(j, j), x)
		r.Set(j, j, beta)
		for i := 0; i < m; i++ {
			a.Set(i, j, x[i])
		}
		if tau != 0 && j+1 < n {
			rrow := r.Row(j)[j+1 : n]
			wj := w[:n-j-1]
			copy(wj, rrow)
			for i := 0; i < m; i++ {
				arow := a.Row(i)
				blas.Axpy32R(arow[j], arow[j+1:n], wj)
			}
			blas.Axpy32R(-tau, wj, rrow)
			for i := 0; i < m; i++ {
				arow := a.Row(i)
				blas.Axpy32R(-tau*arow[j], wj, arow[j+1:n])
			}
		}
		wt := w[:j]
		for i := range wt {
			wt[i] = 0
		}
		for q := 0; q < m; q++ {
			arow := a.Row(q)
			blas.Axpy32R(arow[j], arow[:j], wt)
		}
		larftColumn32R(t, j, tau, wt)
	}
}

// Tsmqr32R is Tsmqr at float32.
func Tsmqr32R(trans blas.Transpose, v2, t, c1, c2 *mat.Matrix32) {
	m, n := v2.Rows, v2.Cols
	if c1.Rows != n || c2.Rows != m || c1.Cols != c2.Cols {
		panic(fmt.Sprintf("lapack: Tsmqr32R shape mismatch V2=%dx%d C1=%dx%d C2=%dx%d",
			m, n, c1.Rows, c1.Cols, c2.Rows, c2.Cols))
	}
	k := c1.Cols
	w, wbuf := mat.GetMatrix32(n, k)
	defer mat.PutBuf32(wbuf)
	w.CopyFrom(c1)
	blas.Gemm32R(blas.Trans, blas.NoTrans, 1, v2, c2, 1, w)
	tview := t.View(0, 0, n, n)
	if trans == blas.Trans {
		blas.Trmm32R(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, 1, tview, w)
	} else {
		blas.Trmm32R(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, 1, tview, w)
	}
	subRows32R(c1, w)
	blas.Gemm32R(blas.NoTrans, blas.NoTrans, -1, v2, w, 1, c2)
}

// Ttqrt32RIB is TtqrtIB at float32; strictly lower parts of both tiles stay
// untouched exactly as in the f64 kernel.
func Ttqrt32RIB(r1, r2, t *mat.Matrix32, ib int) {
	n := r1.Cols
	if r1.Rows != n || r2.Rows != n || r2.Cols != n {
		panic(fmt.Sprintf("lapack: Ttqrt32RIB needs square tiles, got %dx%d and %dx%d",
			r1.Rows, r1.Cols, r2.Rows, r2.Cols))
	}
	if t.Rows < n || t.Cols < n {
		panic(fmt.Sprintf("lapack: Ttqrt32RIB T too small: %dx%d", t.Rows, t.Cols))
	}
	t.Zero()
	if ib <= 0 {
		ib = PanelIB()
	}
	if n <= ib {
		ttqrtUnblocked32R(r1, r2.View(0, 0, n, n), t, 0)
		return
	}
	for j0 := 0; j0 < n; j0 += ib {
		bs := min(ib, n-j0)
		rest := n - j0 - bs
		tb := t.View(j0, j0, bs, bs)
		ttqrtUnblocked32R(r1.View(j0, j0, bs, bs), r2.View(0, j0, j0+bs, bs), tb, j0)
		if rest > 0 {
			ttqrtApply32R(r1, r2, tb, j0, bs, rest)
		}
		if j0 > 0 {
			y, ybuf := mat.GetMatrix32(j0, bs)
			y.CopyFrom(r2.View(0, j0, j0, bs))
			blas.Trmm32R(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, 1, r2.View(0, 0, j0, j0), y)
			larftMerge32R(t, j0, bs, y)
			mat.PutBuf32(ybuf)
		}
	}
}

// ttqrtApply32R is ttqrtApply at float32.
func ttqrtApply32R(r1, r2, tb *mat.Matrix32, j0, bs, rest int) {
	c1 := r1.View(j0, j0+bs, bs, rest)
	tri := r2.View(j0, j0, bs, bs)
	c2bot := r2.View(j0, j0+bs, bs, rest)
	w, wbuf := mat.GetMatrix32(bs, rest)
	defer mat.PutBuf32(wbuf)
	w.CopyFrom(c1)
	if j0 > 0 {
		blas.Gemm32R(blas.Trans, blas.NoTrans, 1, r2.View(0, j0, j0, bs), r2.View(0, j0+bs, j0, rest), 1, w)
	}
	wt, wtbuf := mat.GetMatrix32(bs, rest)
	defer mat.PutBuf32(wtbuf)
	wt.CopyFrom(c2bot)
	blas.Trmm32R(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, 1, tri, wt)
	addRows32R(w, wt)
	blas.Trmm32R(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, 1, tb, w)
	subRows32R(c1, w)
	if j0 > 0 {
		blas.Gemm32R(blas.NoTrans, blas.NoTrans, -1, r2.View(0, j0, j0, bs), w, 1, r2.View(0, j0+bs, j0, rest))
	}
	wt.CopyFrom(w)
	blas.Trmm32R(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, 1, tri, wt)
	subRows32R(c2bot, wt)
}

// ttqrtUnblocked32R is ttqrtUnblocked at float32.
func ttqrtUnblocked32R(r1, r2, t *mat.Matrix32, off int) {
	n := r1.Cols
	buf := mat.GetBuf32(2*n + off)
	defer mat.PutBuf32(buf)
	x := buf.Data[: n+off : n+off]
	w := buf.Data[n+off:]
	for j := 0; j < n; j++ {
		h := off + j
		for i := 0; i <= h; i++ {
			x[i] = r2.At(i, j)
		}
		beta, tau := Larfg32R(r1.At(j, j), x[:h+1])
		r1.Set(j, j, beta)
		for i := 0; i <= h; i++ {
			r2.Set(i, j, x[i])
		}
		if tau != 0 && j+1 < n {
			r1row := r1.Row(j)[j+1 : n]
			wj := w[:n-j-1]
			copy(wj, r1row)
			for i := 0; i <= h; i++ {
				r2row := r2.Row(i)
				blas.Axpy32R(r2row[j], r2row[j+1:n], wj)
			}
			blas.Axpy32R(-tau, wj, r1row)
			for i := 0; i <= h; i++ {
				r2row := r2.Row(i)
				blas.Axpy32R(-tau*r2row[j], wj, r2row[j+1:n])
			}
		}
		wt := w[:j]
		for i := range wt {
			wt[i] = 0
		}
		for q := 0; q <= h; q++ {
			r2row := r2.Row(q)
			i0 := q - off
			if i0 < 0 {
				i0 = 0
			}
			if i0 < j {
				blas.Axpy32R(r2row[j], r2row[i0:j], wt[i0:j])
			}
		}
		larftColumn32R(t, j, tau, wt)
	}
}

// Ttmqr32R is Ttmqr at float32.
func Ttmqr32R(trans blas.Transpose, v2, t, c1, c2 *mat.Matrix32) {
	n := v2.Rows
	if v2.Cols != n || c1.Rows != n || c2.Rows != n || c1.Cols != c2.Cols {
		panic(fmt.Sprintf("lapack: Ttmqr32R shape mismatch V2=%dx%d C1=%dx%d C2=%dx%d",
			v2.Rows, v2.Cols, c1.Rows, c1.Cols, c2.Rows, c2.Cols))
	}
	k := c1.Cols
	w, wbuf := mat.GetMatrix32(n, k)
	defer mat.PutBuf32(wbuf)
	w.CopyFrom(c2)
	blas.Trmm32R(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, 1, v2, w)
	addRows32R(w, c1)
	tview := t.View(0, 0, n, n)
	if trans == blas.Trans {
		blas.Trmm32R(blas.Left, blas.Upper, blas.Trans, blas.NonUnit, 1, tview, w)
	} else {
		blas.Trmm32R(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, 1, tview, w)
	}
	subRows32R(c1, w)
	blas.Trmm32R(blas.Left, blas.Upper, blas.NoTrans, blas.NonUnit, 1, v2, w)
	subRows32R(c2, w)
}

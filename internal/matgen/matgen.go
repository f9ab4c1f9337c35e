// Package matgen generates the test matrices of the paper's evaluation:
// seeded random matrices (§V-B) and the set of special/pathological matrices
// of Table III and §V-C, most of which come from Higham's Matrix Computation
// Toolbox and the MATLAB gallery.
//
// Each generator documents its construction; where the paper's source is a
// private code (foster, wright) the construction is reproduced from the
// original papers and the doc comment states the parameter choices.
package matgen

import (
	"fmt"
	"math"
	"math/rand"

	"luqr/internal/mat"
)

// Random returns an n×n matrix with i.i.d. standard normal entries — the
// random matrices of §V-B.
func Random(n int, rng *rand.Rand) *mat.Matrix {
	m := mat.New(n, n)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// DiagDominant returns a strictly (block) diagonally dominant random matrix:
// normal off-diagonal entries with the diagonal lifted to twice the row sum.
// On such matrices the Sum criterion (α ≥ 1) accepts every step (§III-B).
func DiagDominant(n int, rng *rand.Rand) *mat.Matrix {
	m := Random(n, rng)
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				s += math.Abs(m.At(i, j))
			}
		}
		m.Set(i, i, 2*s+1)
	}
	return m
}

// RandomVector returns a length-n vector of standard normals.
func RandomVector(n int, rng *rand.Rand) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// House returns the Householder matrix A = I − β·v·vᵀ, β = 2/vᵀv, for a
// random v (Table III #1). A is orthogonal and symmetric.
func House(n int, rng *rand.Rand) *mat.Matrix {
	v := RandomVector(n, rng)
	vtv := 0.0
	for _, x := range v {
		vtv += x * x
	}
	beta := 2 / vtv
	m := mat.Identity(n)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j := 0; j < n; j++ {
			row[j] -= beta * v[i] * v[j]
		}
	}
	return m
}

// Parter returns the Parter matrix A(i,j) = 1/(i−j+0.5) (Table III #2), a
// Toeplitz matrix with most singular values near π.
func Parter(n int) *mat.Matrix {
	m := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, 1/(float64(i-j)+0.5))
		}
	}
	return m
}

// Ris returns the Ris matrix A(i,j) = 0.5/(n−i−j+1.5) with 1-based indices
// (Table III #3); eigenvalues cluster around ±π/2.
func Ris(n int) *mat.Matrix {
	m := mat.New(n, n)
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			m.Set(i-1, j-1, 0.5/(float64(n-i-j)+1.5))
		}
	}
	return m
}

// Condex returns a counter-example matrix to condition estimators
// (Table III #4): the Cline–Conn–Van Loan 4×4 counter-example with
// θ = 100 embedded in the identity, following MATLAB's
// gallery('condex', n, 1).
func Condex(n int) *mat.Matrix {
	if n < 4 {
		panic(fmt.Sprintf("matgen: Condex needs n >= 4, got %d", n))
	}
	const theta = 100.0
	m := mat.Identity(n)
	block := [][]float64{
		{1, -1, -2 * theta, 0},
		{0, 1, theta, -theta},
		{0, 1, 1 + theta, -(theta + 1)},
		{0, 0, 0, theta},
	}
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			m.Set(i, j, block[i][j])
		}
	}
	return m
}

// Circul returns a circulant matrix whose first row is random (Table III
// #5): row i is the first row cyclically right-shifted i places.
func Circul(n int, rng *rand.Rand) *mat.Matrix {
	v := RandomVector(n, rng)
	m := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, v[((j-i)%n+n)%n])
		}
	}
	return m
}

// Hankel returns A = hankel(c, r) with random c, r and c(n) = r(1)
// (Table III #6): A(i,j) = c(i+j−1) when i+j−1 ≤ n, else r(i+j−n)
// (1-based), constant along anti-diagonals.
func Hankel(n int, rng *rand.Rand) *mat.Matrix {
	c := RandomVector(n, rng)
	r := RandomVector(n, rng)
	r[0] = c[n-1]
	m := mat.New(n, n)
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			k := i + j - 1
			if k <= n {
				m.Set(i-1, j-1, c[k-1])
			} else {
				m.Set(i-1, j-1, r[k-n])
			}
		}
	}
	return m
}

// Compan returns the companion matrix (sparse) of a random degree-n
// polynomial (Table III #7): first row −c₂/c₁ … −c_{n+1}/c₁, ones on the
// subdiagonal.
func Compan(n int, rng *rand.Rand) *mat.Matrix {
	c := RandomVector(n+1, rng)
	for c[0] == 0 {
		c[0] = rng.NormFloat64()
	}
	m := mat.New(n, n)
	for j := 0; j < n; j++ {
		m.Set(0, j, -c[j+1]/c[0])
	}
	for i := 1; i < n; i++ {
		m.Set(i, i-1, 1)
	}
	return m
}

// Lehmer returns the symmetric positive definite Lehmer matrix
// A(i,j) = i/j for j ≥ i (1-based; Table III #8). Its inverse is
// tridiagonal.
func Lehmer(n int) *mat.Matrix {
	m := mat.New(n, n)
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			if j >= i {
				m.Set(i-1, j-1, float64(i)/float64(j))
			} else {
				m.Set(i-1, j-1, float64(j)/float64(i))
			}
		}
	}
	return m
}

// Dorr returns the Dorr matrix (Table III #9): a row diagonally dominant,
// ill-conditioned, tridiagonal matrix from a singularly perturbed boundary
// value problem, with parameter θ = 0.01 as in the MATLAB gallery.
func Dorr(n int) *mat.Matrix {
	const theta = 0.01
	h := 1 / float64(n+1)
	m := mat.New(n, n)
	for i := 1; i <= n; i++ {
		var sub, sup float64 // A(i, i−1), A(i, i+1)
		term := (0.5 - float64(i)*h) / h
		if float64(i) <= (float64(n)+1)/2 {
			sub = -theta / (h * h)
			sup = -theta/(h*h) - term
		} else {
			sub = -theta/(h*h) + term
			sup = -theta / (h * h)
		}
		diag := -(sub + sup)
		if i > 1 {
			m.Set(i-1, i-2, sub)
		}
		m.Set(i-1, i-1, diag)
		if i < n {
			m.Set(i-1, i, sup)
		}
	}
	return m
}

// Demmel returns A = D·(I + 1e−7·rand(n)) with D = diag(10^{14·(i−1)/n})
// (Table III #10): graded, very ill-conditioned.
func Demmel(n int, rng *rand.Rand) *mat.Matrix {
	m := mat.New(n, n)
	for i := 0; i < n; i++ {
		d := math.Pow(10, 14*float64(i)/float64(n))
		for j := 0; j < n; j++ {
			v := 1e-7 * rng.Float64()
			if i == j {
				v += 1
			}
			m.Set(i, j, d*v)
		}
	}
	return m
}

// Chebvand returns the Chebyshev Vandermonde matrix on n equally spaced
// points of [0, 1] (Table III #11): A(i,j) = T_{i−1}(x_j).
func Chebvand(n int) *mat.Matrix {
	m := mat.New(n, n)
	for j := 0; j < n; j++ {
		x := 0.0
		if n > 1 {
			x = float64(j) / float64(n-1)
		}
		tm2, tm1 := 1.0, x
		for i := 0; i < n; i++ {
			var t float64
			switch i {
			case 0:
				t = 1
			case 1:
				t = x
			default:
				t = 2*x*tm1 - tm2
				tm2, tm1 = tm1, t
			}
			m.Set(i, j, t)
		}
	}
	return m
}

// Invhess returns the matrix whose inverse is upper Hessenberg (Table III
// #12), following gallery('invhess', 1:n): A(i,j) = j+1 for i ≥ j and
// A(i,j) = −(i+1) for i < j (0-based).
func Invhess(n int) *mat.Matrix {
	m := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i >= j {
				m.Set(i, j, float64(j+1))
			} else {
				m.Set(i, j, -float64(i+1))
			}
		}
	}
	return m
}

// Prolate returns the ill-conditioned symmetric Toeplitz prolate matrix with
// bandwidth parameter w = 0.25 (Table III #13): a₀ = 2w,
// a_k = sin(2πwk)/(πk).
func Prolate(n int) *mat.Matrix {
	const w = 0.25
	a := make([]float64, n)
	a[0] = 2 * w
	for k := 1; k < n; k++ {
		a[k] = math.Sin(2*math.Pi*w*float64(k)) / (math.Pi * float64(k))
	}
	m := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := i - j
			if d < 0 {
				d = -d
			}
			m.Set(i, j, a[d])
		}
	}
	return m
}

// Cauchy returns the Cauchy matrix A(i,j) = 1/(x_i + y_j) with x = y = 1..n
// (Table III #14).
func Cauchy(n int) *mat.Matrix {
	m := mat.New(n, n)
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			m.Set(i-1, j-1, 1/float64(i+j))
		}
	}
	return m
}

// Hilb returns the Hilbert matrix A(i,j) = 1/(i+j−1) (Table III #15).
func Hilb(n int) *mat.Matrix {
	m := mat.New(n, n)
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			m.Set(i-1, j-1, 1/float64(i+j-1))
		}
	}
	return m
}

// Lotkin returns the Hilbert matrix with its first row set to ones
// (Table III #16): unsymmetric, ill-conditioned.
func Lotkin(n int) *mat.Matrix {
	m := Hilb(n)
	for j := 0; j < n; j++ {
		m.Set(0, j, 1)
	}
	return m
}

// Kahan returns Kahan's upper triangular matrix with θ = 1.2 (Table III
// #17): A(i,i) = s^i, A(i,j) = −c·s^i for j > i (0-based), s = sin θ,
// c = cos θ.
func Kahan(n int) *mat.Matrix {
	const theta = 1.2
	s, c := math.Sin(theta), math.Cos(theta)
	m := mat.New(n, n)
	for i := 0; i < n; i++ {
		si := math.Pow(s, float64(i))
		m.Set(i, i, si)
		for j := i + 1; j < n; j++ {
			m.Set(i, j, -c*si)
		}
	}
	return m
}

// Orthogo returns the symmetric orthogonal eigenvector matrix
// A(i,j) = sqrt(2/(n+1))·sin(i·j·π/(n+1)) (Table III #18).
func Orthogo(n int) *mat.Matrix {
	m := mat.New(n, n)
	f := math.Sqrt(2 / float64(n+1))
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			m.Set(i-1, j-1, f*math.Sin(float64(i)*float64(j)*math.Pi/float64(n+1)))
		}
	}
	return m
}

// Wilkinson returns the classical matrix attaining the 2^{n−1} growth bound
// of Gaussian elimination with partial pivoting (Table III #19):
// ones on the diagonal and in the last column, −1 below the diagonal.
func Wilkinson(n int) *mat.Matrix {
	m := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch {
			case i == j || j == n-1:
				m.Set(i, j, 1)
			case i > j:
				m.Set(i, j, -1)
			}
		}
	}
	return m
}

// Foster returns a matrix of the family in Foster (1994), "Gaussian
// elimination with partial pivoting can fail in practice" (Table III #20):
// the trapezoid-rule quadrature discretization of a Volterra integral
// equation (Foster's application is an annuity/loan equation) whose
// right-hand side couples the unknown terminal value into every equation:
//
//	A(i,j) = δ_ij − c·h·w_j  (j ≤ i < n−1; w = ½ at the interval ends, 1
//	                          inside — the composite trapezoid weights)
//	A(i,n−1) = 1             (the terminal-value coupling column)
//
// With c·h = 0.5 the diagonal (1 − c·h/2) dominates its column, so partial
// pivoting performs no row interchanges, while the negative multipliers
// −c·h/(1 − c·h/2) make the final column grow geometrically by a factor
// (1 + c·h/(1 − c·h/2)) = 5/3 per step — the GEPP failure mechanism Foster
// identified. Growth ≈ (5/3)^{n−2}.
func Foster(n int) *mat.Matrix {
	const ch = 0.5
	m := mat.Identity(n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i && j < n-1; j++ {
			w := 1.0
			if j == 0 || j == i {
				w = 0.5
			}
			m.Set(i, j, m.At(i, j)-ch*w)
		}
	}
	for i := 0; i < n; i++ {
		m.Set(i, n-1, 1)
	}
	return m
}

// Wright returns the multiple-shooting two-point boundary value matrix of
// Wright (1993) (Table III #21): block bidiagonal with identity diagonal
// blocks, subdiagonal blocks −E = −e^{Mh}, and the boundary-condition block
// row [B₀ 0 … 0 B₁] on top, with
//
//	M = [−1/6 1; 1 −1/6],  h = 0.3,
//	B₀ = I (initial values),  B₁ = ½[1 1; 1 1] (the growing-mode projector,
//	anchoring the unstable direction at t = T).
//
// These boundary blocks keep the matrix well conditioned at every size (a
// QR solve reaches forward errors ~1e−14 at n = 640 while the GEPP-based
// condition estimate overflows — the point of the example). With h < 1/3
// every entry of E is below 1, so partial pivoting performs no row
// interchanges (every pivot is the unit diagonal), while the last block
// column of U accumulates the products E·B₁, E²·B₁, …, whose norm grows
// like e^{5mh/6} — Wright's exponential-growth mechanism. n must be even
// (one extra unit row and column are appended when it is odd).
func Wright(n int) *mat.Matrix {
	m := mat.New(n, n)
	nb2 := n / 2 // number of 2×2 block rows that fit
	if nb2 < 2 {
		return mat.Identity(n)
	}
	// E = e^{Mh} for symmetric M with eigenpairs (λ = −1/6+1, v = [1,1]/√2)
	// and (λ = −1/6−1, v = [1,−1]/√2): E = e^{−h/6}·[cosh h, sinh h; …].
	const h = 0.3
	ea := math.Exp(-h/6) * math.Cosh(h) // diagonal of E (< 1 for h < 1/3)
	eb := math.Exp(-h/6) * math.Sinh(h) // off-diagonal of E
	set2 := func(bi, bj int, a, b, c, d float64) {
		m.Set(2*bi, 2*bj, a)
		m.Set(2*bi, 2*bj+1, b)
		m.Set(2*bi+1, 2*bj, c)
		m.Set(2*bi+1, 2*bj+1, d)
	}
	// Boundary block row: B₀·x₀ + B₁·x_m = c.
	set2(0, 0, 1, 0, 0, 1)
	set2(0, nb2-1, 0.5, 0.5, 0.5, 0.5)
	// Shooting rows: −E·x_i + x_{i+1} = d_i for i = 0..nb2−2.
	for i := 0; i < nb2-1; i++ {
		set2(i+1, i, -ea, -eb, -eb, -ea)
		set2(i+1, i+1, 1, 0, 0, 1)
	}
	if n%2 == 1 { // pad the odd trailing dimension
		m.Set(n-1, n-1, 1)
	}
	return m
}

// Fiedler returns the Fiedler matrix A(i,j) = |i − j| (§V-C): symmetric,
// nonsingular for n ≥ 2, with a zero diagonal — LU without pivoting breaks
// down on it immediately, which is the paper's §V-C observation.
func Fiedler(n int) *mat.Matrix {
	m := mat.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			d := i - j
			if d < 0 {
				d = -d
			}
			m.Set(i, j, float64(d))
		}
	}
	return m
}

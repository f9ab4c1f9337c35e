package matgen

import (
	"fmt"
	"math/rand"

	"luqr/internal/mat"
)

// Generator produces an n×n matrix. Deterministic generators ignore rng.
type Generator func(n int, rng *rand.Rand) *mat.Matrix

// Entry describes one matrix of the experiment set. Gen panics below MinN,
// so callers taking an order from outside check it first.
type Entry struct {
	Name string
	Desc string
	Gen  Generator
	MinN int
}

// SpecialSet returns the special matrices of Table III in the paper's order,
// followed by the Fiedler matrix of §V-C.
func SpecialSet() []Entry {
	wrap := func(f func(int) *mat.Matrix) Generator {
		return func(n int, _ *rand.Rand) *mat.Matrix { return f(n) }
	}
	return []Entry{
		{"house", "Householder matrix, A = I − β·v·vᵀ", House, 1},
		{"parter", "Parter Toeplitz matrix, A(i,j) = 1/(i−j+0.5)", wrap(Parter), 1},
		{"ris", "Ris matrix, A(i,j) = 0.5/(n−i−j+1.5)", wrap(Ris), 1},
		{"condex", "counter-example to condition estimators", wrap(Condex), 4},
		{"circul", "circulant matrix", Circul, 1},
		{"hankel", "random Hankel matrix", Hankel, 1},
		{"compan", "companion matrix of a random polynomial (sparse)", Compan, 1},
		{"lehmer", "Lehmer SPD matrix, A(i,j) = i/j for j ≥ i", wrap(Lehmer), 1},
		{"dorr", "Dorr diagonally dominant ill-conditioned tridiagonal (sparse)", wrap(Dorr), 1},
		{"demmel", "D·(I + 1e−7·rand), D = diag(10^{14(i−1)/n})", Demmel, 1},
		{"chebvand", "Chebyshev Vandermonde on equispaced points of [0,1]", wrap(Chebvand), 1},
		{"invhess", "inverse is upper Hessenberg", wrap(Invhess), 1},
		{"prolate", "ill-conditioned Toeplitz prolate matrix", wrap(Prolate), 1},
		{"cauchy", "Cauchy matrix", wrap(Cauchy), 1},
		{"hilb", "Hilbert matrix, A(i,j) = 1/(i+j−1)", wrap(Hilb), 1},
		{"lotkin", "Hilbert matrix with first row set to ones", wrap(Lotkin), 1},
		{"kahan", "Kahan upper trapezoidal matrix", wrap(Kahan), 1},
		{"orthogo", "symmetric orthogonal eigenvector matrix", wrap(Orthogo), 1},
		{"wilkinson", "attains the 2^{n−1} GEPP growth bound", wrap(Wilkinson), 1},
		{"foster", "Volterra quadrature matrix of Foster (1994)", wrap(Foster), 1},
		{"wright", "multiple-shooting BVP matrix of Wright (1993)", wrap(Wright), 1},
		{"fiedler", "Fiedler matrix |i−j| (zero diagonal; §V-C)", wrap(Fiedler), 1},
	}
}

// ByName returns the special-set generator with the given name.
func ByName(name string) (Entry, error) {
	for _, e := range SpecialSet() {
		if e.Name == name {
			return e, nil
		}
	}
	if name == "random" {
		return Entry{"random", "i.i.d. N(0,1) entries", Random, 1}, nil
	}
	if name == "diagdom" {
		return Entry{"diagdom", "strictly diagonally dominant random", DiagDominant, 1}, nil
	}
	return Entry{}, fmt.Errorf("matgen: unknown matrix %q", name)
}

package luqr_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"luqr"
)

// The facade tests exercise the library exactly the way a downstream user
// would: through the top-level package only.

func TestFacadeSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 96
	a, err := luqr.GenerateMatrix("random", n, rng)
	if err != nil {
		t.Fatal(err)
	}
	xTrue := make([]float64, n)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		row := a.Row(i)
		for j, v := range row {
			b[i] += v * xTrue[j]
		}
	}
	res, err := luqr.Solve(a, b, luqr.Config{
		Alg:       luqr.AlgLUQR,
		NB:        16,
		Grid:      luqr.NewGrid(2, 2),
		Criterion: luqr.MaxCriterion(200),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range xTrue {
		if math.Abs(res.X[i]-xTrue[i]) > 1e-7*(1+math.Abs(xTrue[i])) {
			t.Fatalf("x[%d] = %g, want %g", i, res.X[i], xTrue[i])
		}
	}
	if hpl := luqr.HPL3(a, res.X, b); hpl > 10 {
		t.Fatalf("HPL3 = %g", hpl)
	}
	// Second right-hand side through the stored factorization.
	x2, err := res.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.X {
		if x2[i] != res.X[i] {
			t.Fatal("re-solve of the same RHS diverged")
		}
	}
}

func TestFacadeAllAlgorithms(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, _ := luqr.GenerateMatrix("diagdom", 64, rng)
	b := make([]float64, 64)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	for _, alg := range []luqr.Algorithm{
		luqr.AlgLUQR, luqr.AlgLUNoPiv, luqr.AlgLUIncPiv, luqr.AlgLUPP, luqr.AlgHQR, luqr.AlgCALU,
	} {
		res, err := luqr.Solve(a, b, luqr.Config{Alg: alg, NB: 16})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Report.HPL3 > 10 {
			t.Fatalf("%v: HPL3 = %g", alg, res.Report.HPL3)
		}
	}
}

func TestFacadeCriteria(t *testing.T) {
	for _, c := range []luqr.Criterion{
		luqr.MaxCriterion(1), luqr.SumCriterion(1), luqr.MUMPSCriterion(2.1),
		luqr.RandomCriterion(50), luqr.AlwaysLU(), luqr.AlwaysQR(),
	} {
		if c == nil || c.Name() == "" {
			t.Fatal("bad criterion from facade constructor")
		}
	}
}

func TestFacadeSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a, _ := luqr.GenerateMatrix("random", 64, rng)
	b := make([]float64, 64)
	res, err := luqr.Solve(a, b, luqr.Config{
		Alg: luqr.AlgHQR, NB: 16, Grid: luqr.NewGrid(2, 2), Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := luqr.Simulate(res.Report.Trace, luqr.Dancer())
	if s.Makespan <= 0 || s.TotalFlops <= 0 {
		t.Fatalf("empty simulation result: %+v", s)
	}
	dot := luqr.TraceDOT(res.Report.Trace, true)
	if len(dot) == 0 {
		t.Fatal("empty DOT output")
	}
}

func TestFacadeSpecialMatrices(t *testing.T) {
	set := luqr.SpecialMatrices()
	if len(set) != 22 {
		t.Fatalf("special set has %d entries", len(set))
	}
	rng := rand.New(rand.NewSource(4))
	for _, e := range set {
		if _, err := luqr.GenerateMatrix(e.Name, 16, rng); err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
	}
	if _, err := luqr.GenerateMatrix("nonsense", 16, rng); err == nil {
		t.Fatal("unknown matrix accepted")
	}
	if _, err := luqr.GenerateMatrix("condex", 3, rng); err == nil {
		t.Fatal("condex accepted an order below its minimum")
	}
}

func TestFacadeRandSVD(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := luqr.RandSVD(48, 1e8, rng)
	b := make([]float64, 48)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	res, err := luqr.Solve(a, b, luqr.Config{Alg: luqr.AlgHQR, NB: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.HPL3 > 10 {
		t.Fatalf("HQR backward error %g on κ=1e8 matrix", res.Report.HPL3)
	}
}

func TestFacadeVariantsAndTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a, _ := luqr.GenerateMatrix("random", 64, rng)
	b := make([]float64, 64)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	res, err := luqr.Solve(a, b, luqr.Config{
		Alg: luqr.AlgLUQR, NB: 16, Variant: luqr.VariantB1,
		Criterion: luqr.MaxCriterion(100),
		IntraTree: luqr.TreeBinary, InterTree: luqr.TreeFibonacci,
		Scope: luqr.ScopeTile,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.HPL3 > 10 {
		t.Fatalf("HPL3 = %g", res.Report.HPL3)
	}
}

func TestFacadeHLU(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, _ := luqr.GenerateMatrix("random", 64, rng)
	b := make([]float64, 64)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	res, err := luqr.Solve(a, b, luqr.Config{Alg: luqr.AlgHLU, NB: 16, Grid: luqr.NewGrid(2, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.HPL3 > 50 {
		t.Fatalf("HLU HPL3 = %g", res.Report.HPL3)
	}
}

// ExampleSolve demonstrates the basic hybrid solve on a small diagonally
// dominant system, where the Sum criterion accepts every LU step (§III-B).
func ExampleSolve() {
	rng := rand.New(rand.NewSource(1))
	a, _ := luqr.GenerateMatrix("diagdom", 64, rng)
	xTrue := make([]float64, 64)
	for i := range xTrue {
		xTrue[i] = 1
	}
	b := make([]float64, 64)
	for i := 0; i < 64; i++ {
		row := a.Row(i)
		for j, v := range row {
			b[i] += v * xTrue[j]
		}
	}
	res, err := luqr.Solve(a, b, luqr.Config{
		Alg:       luqr.AlgLUQR,
		NB:        16,
		Criterion: luqr.SumCriterion(1),
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("LU steps: %d, QR steps: %d\n", res.Report.LUSteps, res.Report.QRSteps)
	fmt.Printf("solution accurate: %v\n", math.Abs(res.X[0]-1) < 1e-10)
	// Output:
	// LU steps: 4, QR steps: 0
	// solution accurate: true
}

// ExampleResult_Solve factors once and solves a second right-hand side by
// replaying the stored transformations (§II-D.1's second pass).
func ExampleResult_Solve() {
	rng := rand.New(rand.NewSource(2))
	a, _ := luqr.GenerateMatrix("diagdom", 32, rng)
	b1 := make([]float64, 32)
	b1[0] = 1
	res, err := luqr.Solve(a, b1, luqr.Config{Alg: luqr.AlgHQR, NB: 16})
	if err != nil {
		panic(err)
	}
	b2 := make([]float64, 32)
	b2[31] = 1
	x2, err := res.Solve(b2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("second solve ok: %v\n", luqr.HPL3(a, x2, b2) < 1)
	// Output:
	// second solve ok: true
}

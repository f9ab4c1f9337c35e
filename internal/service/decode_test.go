package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"luqr/internal/matgen"
)

// benchBody builds a POST /v1/solve body as the serve benchmark does
// (benchmark/serve.go): the encoded matrix spec and the pinned config
// spliced around the encoded right-hand side.
func benchBody(t testing.TB, spec MatrixSpec, rhs []float64) []byte {
	t.Helper()
	alpha := 100.0
	var parts [3][]byte
	for i, v := range []any{spec, ConfigSpec{Alg: "luqr", NB: 64, P: 2, Q: 2, Criterion: "max", Alpha: &alpha}, rhs} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = b
	}
	return []byte(`{"matrix":` + string(parts[0]) + `,"config":` + string(parts[1]) + `,"rhs":` + string(parts[2]) + `}`)
}

// benchBodies are the serve benchmark's three request kinds at the orders
// it sends them: a generator-named hit or miss (diagdom N=512) and an
// explicit-data request (diagdom N=256), each with a random right-hand side.
func benchBodies(t testing.TB, seed int64) map[string][]byte {
	rng := rand.New(rand.NewSource(seed))
	a := matgen.DiagDominant(256, rand.New(rand.NewSource(seed+500)))
	return map[string][]byte{
		"gen":  benchBody(t, MatrixSpec{N: 512, Gen: "diagdom", Seed: seed * 1_000_003}, matgen.RandomVector(512, rng)),
		"data": benchBody(t, MatrixSpec{N: 256, Data: a.Data}, matgen.RandomVector(256, rng)),
	}
}

// referenceDecode is the decode POST /v1/solve and POST /v1/jobs ran
// before the canonical pass: encoding/json's streaming decoder.
func referenceDecode(b []byte) (SolveRequest, error) {
	var req SolveRequest
	err := json.NewDecoder(bytes.NewReader(b)).Decode(&req)
	return req, err
}

// requestDiff names the first field where a and b differ, or returns "".
// Floats compare by bit pattern (so -0 differs from +0), and a nil slice or
// pointer differs from an empty or set one.
func requestDiff(a, b SolveRequest) string {
	sameFloats := func(x, y []float64) bool {
		if (x == nil) != (y == nil) || len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	ma, mb, ca, cb := a.Matrix, b.Matrix, a.Config, b.Config
	switch {
	case !sameFloats(ma.Data, mb.Data):
		return "matrix.data"
	case !sameFloats(a.RHS, b.RHS):
		return "rhs"
	case (ca.Alpha == nil) != (cb.Alpha == nil) ||
		ca.Alpha != nil && math.Float64bits(*ca.Alpha) != math.Float64bits(*cb.Alpha):
		return "config.alpha"
	}
	if ma.N != mb.N || ma.Gen != mb.Gen || ma.Seed != mb.Seed {
		return fmt.Sprintf("matrix %d %q %d vs %d %q %d", ma.N, ma.Gen, ma.Seed, mb.N, mb.Gen, mb.Seed)
	}
	ca.Alpha, cb.Alpha = nil, nil
	if ca != cb {
		return fmt.Sprintf("config %+v vs %+v", ca, cb)
	}
	return ""
}

// decodeSeeds are bodies at the edges of what encoding/json accepts.
func decodeSeeds(t testing.TB) [][]byte {
	rng := rand.New(rand.NewSource(1))
	a := matgen.DiagDominant(4, rng)
	seeds := [][]byte{
		// The benchmark's two body shapes at small orders: the fuzzer
		// minimizes every input that adds coverage, and at the benchmark's
		// orders (10 KB and 1.3 MB) that alone outlasts a 30 s run.
		benchBody(t, MatrixSpec{N: 8, Gen: "diagdom", Seed: 1_000_003}, matgen.RandomVector(8, rng)),
		benchBody(t, MatrixSpec{N: 4, Data: a.Data}, matgen.RandomVector(4, rng)),
		[]byte(`{"matrix":{"n":160,"gen":"random","seed":3},"config":{"alg":"luqr","nb":40,"p":2,"q":2,"alpha":0,"workers":2,"precision":"auto"},"rhs":null}`),
		[]byte(`{"matrix":{"n":2,"data":[4,1,1,3]},"config":{"nb":1,"criterion":"sum","variant":"b2"},"rhs":[1,2]}`),
		[]byte("{nope"),
		[]byte(""),
		[]byte("null"),
		[]byte("{}"),
		[]byte("[]"),
		// Whitespace everywhere.
		[]byte(" \t{\n\"matrix\" :\r{ \"n\" : 2 ,\"data\" : [ 4 , 1\n, 1 ,3 ] } ,\t\"config\":{\"nb\" : 1, \"alpha\" : 2.5 } , \"rhs\" : [ ] }\n"),
		// Keys in another case: encoding/json matches them case-insensitively.
		[]byte(`{"Matrix":{"N":2,"DATA":[4,1,1,3]},"config":{"NB":1,"Alpha":1},"RHS":[1,2]}`),
		[]byte(`{"matrix":{"n":2,"Seed":5,"gen":"random"}}`),
		// Duplicate keys: objects merge and the last array wins.
		[]byte(`{"matrix":{"n":2},"matrix":{"gen":"random"},"rhs":[1,2,3],"rhs":[4]}`),
		[]byte(`{"matrix":{"n":2,"n":4,"gen":"random"},"config":{"alpha":1,"alpha":null}}`),
		// null for every field.
		[]byte(`{"matrix":null,"config":null,"rhs":null}`),
		[]byte(`{"matrix":{"n":null,"gen":null,"seed":null,"data":null},"config":{"alg":null,"nb":null,"ib":null,"p":null,"q":null,"criterion":null,"alpha":null,"variant":null,"workers":null,"seed":null,"precision":null},"rhs":null}`),
		// Unknown keys holding nested values.
		[]byte(`{"extra":{"a":[1,{"b":null}],"c":"d"},"matrix":{"n":2,"x":[[]],"gen":"random"},"config":{"y":true}}`),
		// Escapes and invalid UTF-8 in strings.
		[]byte(`{"matrix":{"n":2,"gen":"random"},"config":{"alg":"lu\"qr"}}`),
		[]byte(`{"matrix":{"n":2,"gen":"ran\u0064om"},"config":{"alg":"a\\b","variant":"\/"}}`),
		[]byte(`{"matrix":{"n":2,"g\u0065n":"random"}}`),
		[]byte("{\"matrix\":{\"n\":2,\"gen\":\"random\xff\"},\"config\":{\"alg\":\"\xc3\xa9\"}}"),
		[]byte("{\"matrix\":{\"n\":2,\"gen\":\"ran\x7fdom\"},\"config\":{\"alg\":\"a\tb\"}}"),
		[]byte(`{"matrix":{"n":2,"gen":"random"}}`),
		// Integers written as floats.
		[]byte(`{"matrix":{"n":1.0,"gen":"random"}}`),
		[]byte(`{"matrix":{"n":2,"gen":"random","seed":1e2}}`),
		[]byte(`{"matrix":{"n":2,"gen":"random"},"config":{"nb":-0,"workers":9223372036854775808}}`),
		// Bytes after the object.
		[]byte(`{"matrix":{"n":2,"gen":"random"}} trailing`),
		[]byte(`{"matrix":{"n":2,"gen":"random"}}{"matrix":{"n":4}}`),
		[]byte(`{"matrix":{"n":2,"gen":"random"}}` + "\n"),
		// Wrong types.
		[]byte(`{"matrix":[],"config":"x","rhs":{}}`),
		[]byte(`{"matrix":{"n":"2","gen":3,"data":[true]}}`),
	}
	// Every number edge in a float array, in alpha and in an int field.
	for _, num := range []string{"-0", "0e0", "1E+2", "1e308", "1e309", "4.9e-324", "1e-400", "01", "1.", ".5", "+1", "-", "1e", "-01", "0.0e-0", "2.5E-3", "NaN", "Infinity"} {
		seeds = append(seeds,
			[]byte(`{"matrix":{"n":2,"gen":"random"},"rhs":[1,`+num+`]}`),
			[]byte(`{"matrix":{"n":2,"gen":"random"},"config":{"alpha":`+num+`}}`),
			[]byte(`{"matrix":{"n":2,"gen":"random","seed":`+num+`}}`))
	}
	// TestHTTPValidation's bodies.
	for _, body := range invalidBodies {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, b)
	}
	// Truncations of a valid body.
	valid := seeds[3]
	for i := range valid {
		seeds = append(seeds, valid[:i])
	}
	return seeds
}

// FuzzDecodeRequest: for any bytes, the served decoder and encoding/json's
// streaming decoder agree on success, on the error, and on every decoded
// field; a body the canonical pass accepts decodes to what encoding/json
// makes of it.
func FuzzDecodeRequest(f *testing.F) {
	for _, b := range decodeSeeds(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		want, werr := referenceDecode(b)
		if fast, ok := decodeCanonical(b); ok {
			if werr != nil {
				t.Fatalf("canonical pass accepted a body encoding/json refuses (%v)", werr)
			}
			if d := requestDiff(fast, want); d != "" {
				t.Fatalf("canonical pass: %s", d)
			}
		}
		got, err := decodeRequest(b)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("error %v, encoding/json %v", err, werr)
		}
		if err == nil {
			if d := requestDiff(got, want); d != "" {
				t.Fatalf("decoded %s", d)
			}
		}
	})
}

// TestBenchmarkBodiesTakeFastPath: every body the serve benchmark sends,
// and one setting every field, decodes in the canonical pass to what
// encoding/json makes of it.
func TestBenchmarkBodiesTakeFastPath(t *testing.T) {
	every := []byte(`{"matrix":{"n":160,"gen":"random","seed":3,"data":null},"config":{"alg":"luqr","nb":40,"ib":8,"p":2,"q":2,"criterion":"sum","alpha":0,"variant":"b2","workers":2,"seed":7,"precision":"auto"},"rhs":[1]}`)
	for _, seed := range []int64{1, 9301} {
		bodies := benchBodies(t, seed)
		bodies["every field"] = every
		for kind, b := range bodies {
			got, ok := decodeCanonical(b)
			if !ok {
				t.Fatalf("seed %d: the %s body left the canonical pass", seed, kind)
			}
			want, err := referenceDecode(b)
			if err != nil {
				t.Fatal(err)
			}
			if d := requestDiff(got, want); d != "" {
				t.Fatalf("seed %d %s body: %s", seed, kind, d)
			}
		}
	}
}

// TestDecodeConcurrentNoAlias decodes bodies through the pooled buffers
// from several goroutines at once. A decoded string or slice that aliased
// its buffer would be overwritten by a later body read into it: the race
// detector flags the overlap, and the values no longer match encoding/json's.
func TestDecodeConcurrentNoAlias(t *testing.T) {
	bodies := [][]byte{
		[]byte(`{"matrix":{"n":2,"gen":"random","seed":1},"config":{"alg":"hqr","criterion":"sum","variant":"b2","precision":"auto"},"rhs":[1,2]}`),
		[]byte(`{"matrix":{"n":2,"gen":"diagdom","seed":2},"config":{"alg":"luqr","criterion":"max","variant":"a2","precision":"f32"},"rhs":[3,4]}`),
		[]byte(`{"matrix":{"n":2,"data":[4,1,1,3]},"config":{"alg":"lupp","criterion":"mumps","precision":"f64"},"rhs":[5,6]}`),
		[]byte(`{"Matrix":{"n":2,"gen":"wilkinson"},"config":{"alg":"calu","criterion":"random"}}`),
	}
	const goroutines, rounds = 4, 200
	var wg sync.WaitGroup
	got := make([][]SolveRequest, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				req, err := readRequest(bytes.NewReader(bodies[(g+r)%len(bodies)]))
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], req)
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		for r, req := range got[g] {
			want, err := referenceDecode(bodies[(g+r)%len(bodies)])
			if err != nil {
				t.Fatal(err)
			}
			if d := requestDiff(req, want); d != "" {
				t.Fatalf("goroutine %d round %d: %s", g, r, d)
			}
		}
	}
}

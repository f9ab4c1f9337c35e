package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"luqr/internal/mat"
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

// numberEdges are numbers at the edges of the JSON grammar and of
// float64's range.
var numberEdges = []string{"-0", "0e0", "1E+2", "1e308", "1e309", "4.9e-324", "1e-400", "01", "1.", ".5", "+1", "-", "1e", "-01", "0.0e-0", "2.5E-3", "NaN", "Infinity"}

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
	for _, num := range numberEdges {
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
// makes of it. The served decoder runs three times on each input through
// one memo, which earlier inputs have filled too, each decode followed by
// the memo's remember as an accepted request's is: the first two sight a
// canonical body's data array and keep it, so the third is a memo hit that
// shares the second decode's values and must equal every decode and
// encoding/json's.
func FuzzDecodeRequest(f *testing.F) {
	for _, b := range decodeSeeds(f) {
		f.Add(b)
	}
	memo := newDataMemo(16, DefaultMaxBodyBytes)
	f.Fuzz(func(t *testing.T, b []byte) {
		want, werr := referenceDecode(b)
		fast, _, canonical := decodeCanonical(b, nil)
		if canonical {
			if werr != nil {
				t.Fatalf("canonical pass accepted a body encoding/json refuses (%v)", werr)
			}
			if d := requestDiff(fast, want); d != "" {
				t.Fatalf("canonical pass: %s", d)
			}
		}
		var kept SolveRequest
		for pass := 0; pass < 3; pass++ {
			got, key, err := decodeRequest(b, memo)
			if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
				t.Fatalf("pass %d: error %v, encoding/json %v", pass, err, werr)
			}
			if err != nil {
				return
			}
			if d := requestDiff(got, want); d != "" {
				t.Fatalf("pass %d: decoded %s", pass, d)
			}
			memo.remember(key, got.Matrix.Data)
			switch pass {
			case 1:
				kept = got
			case 2:
				if canonical && len(got.Matrix.Data) > 0 && &got.Matrix.Data[0] != &kept.Matrix.Data[0] {
					t.Fatal("memo pass scanned matrix.data again instead of taking the remembered values")
				}
			}
		}
	})
}

// numberSyntax is the strict JSON number grammar. strictNumber matches
// one whole number; committedNumber matches the bytes scanNumber reads
// before it decides, since a '.' or an 'e' commits it to a fraction or an
// exponent.
const numberSyntax = `-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`

var (
	strictNumber    = regexp.MustCompile(`^` + numberSyntax + `$`)
	committedNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)?(\.[0-9]*)?([eE][+-]?[0-9]*)?`)
	anyNumber       = regexp.MustCompile(numberSyntax)
)

// numberSeeds are numbers at the edges of the grammar and of both exact
// paths: ties to even, more than 19 significant digits, long zero runs,
// long exponents.
var numberSeeds = []string{
	"9007199254740993", "9007199254740995", "-9007199254740993e0",
	"18014398509481986", "18014398509481990", "4503599627370496.5", "4503599627370497.5",
	"9999999999999999999", "10000000000000000000", "18446744073709551615", "18446744073709551616",
	"12345678901234567890123", "1234567890123456789.0", "1.00000000000000000000001",
	"100000000000000000000000000000e-29", "1000000000000000000000000000000000000000000",
	"0.000000000000000000000000000001234", "-0.00000000000000000000000000000000000000000000001e44",
	"0.1", "0.2", "0.3", "1e22", "1e23", "9007199254740991e22", "9007199254740992e-22", "1e-19", "9999999999999999999e19",
	"1e0000000000000000000000000000000000000000001", "1e-9999999999999999999999", "0e99999999999999999",
	"123456789e-1000000", "1e999999", "1e1000000", "0.0000000000000000000000000000001e1000030",
	" \t\r\n1.5", "1.5,", "2]", "--1", "1e+", "1.e5", "0.e1", "1E-0", "00", "0123",
}

// randomNumbers returns 6n numbers: n shortest-form floats as
// json.Marshal writes them, n digit strings with a point and an exponent,
// 2n ties at 53 bits and 2n 19-digit neighbours of ties, for the product
// and the quotient path.
func randomNumbers(rng *rand.Rand, n int) []string {
	digits := func(count int) string {
		b := make([]byte, count)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		if b[0] == '0' {
			b[0] = '1'
		}
		return string(b)
	}
	var nums []string
	for i := 0; i < n; i++ {
		f := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		b, err := json.Marshal(f)
		if err != nil {
			panic(err)
		}
		nums = append(nums, string(b))

		num, point := digits(1+rng.Intn(21)), rng.Intn(22)
		if point < len(num)-1 {
			num = num[:point+1] + "." + num[point+1:]
		}
		nums = append(nums, num+fmt.Sprintf("e%d", rng.Intn(61)-30))

		// v = 2m+1 for m in [2^52, 2^53) is halfway between two float64s,
		// and so is v·2^s; v/2^k has k ≤ 3 decimals and at most 19 digits.
		v := 1<<53 + 2*uint64(rng.Int63n(1<<52)) + 1
		nums = append(nums, fmt.Sprint(v<<rng.Intn(11)))
		k := 1 + rng.Intn(3)
		q := fmt.Sprint(v * uint64(math.Pow(5, float64(k))))
		nums = append(nums, q[:len(q)-k]+"."+q[len(q)-k:])

		// The two 19-digit significands that, times or over 10^e, fall
		// on either side of the tie v·2^s: the tie's bit is the first
		// one rounding drops, so the bits below it decide.
		e := 1 + rng.Intn(19)
		pow := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(e)), nil)
		if rng.Intn(2) == 0 {
			s := int(math.Log2(1e19)+float64(e)*math.Log2(10)) - 55
			tie := new(big.Int).Lsh(new(big.Int).SetUint64(v), uint(s))
			lo := new(big.Int).Quo(tie, pow)
			nums = append(nums, fmt.Sprintf("%de%d", lo, e), fmt.Sprintf("%de%d", lo.Add(lo, big.NewInt(1)), e))
		} else {
			num, den := new(big.Int).Mul(new(big.Int).SetUint64(v), pow), big.NewInt(1)
			if s := int(math.Log2(1e19)-float64(e)*math.Log2(10)) - 55; s >= 0 {
				num.Lsh(num, uint(s))
			} else {
				den.Lsh(den, uint(-s))
			}
			lo := new(big.Int).Quo(num, den)
			nums = append(nums, fmt.Sprintf("%de-%d", lo, e), fmt.Sprintf("%de-%d", lo.Add(lo, big.NewInt(1)), e))
		}
	}
	return nums
}

// checkNumber: for any bytes after leading whitespace, the decoder's number
// path and strconv.ParseFloat on the strict-grammar prefix agree on whether
// the number is accepted, on the bytes it takes, and on its bits.
func checkNumber(t *testing.T, b []byte) {
	d := decoder{b: b}
	got, ok := d.float()
	rest := bytes.TrimLeft(b, " \t\n\r")
	span := committedNumber.Find(rest)
	want, err := strconv.ParseFloat(string(span), 64)
	if wantOK := strictNumber.Match(span) && err == nil; ok != wantOK {
		t.Fatalf("%q: accepted %v, strconv on %q %v (%v)", b, ok, span, wantOK, err)
	}
	if !ok {
		return
	}
	if n := d.i - (len(b) - len(rest)); n != len(span) {
		t.Fatalf("%q: took %d bytes, want %d", b, n, len(span))
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%q: %v (%#x), strconv %v (%#x)", b, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// FuzzDecodeNumber holds the decoder's number path to strconv (checkNumber).
// The seed corpus stays small: the fuzzer runs every seed for baseline
// coverage first, at ~10 ms each, inside the CI leg's 30 s.
func FuzzDecodeNumber(f *testing.F) {
	for _, seeds := range [][]string{numberEdges, numberSeeds, randomNumbers(rand.New(rand.NewSource(1)), 25)} {
		for _, s := range seeds {
			f.Add([]byte(s))
		}
	}
	f.Fuzz(checkNumber)
}

// TestNumberPathMatchesStrconv runs checkNumber over more random numbers
// than FuzzDecodeNumber's seed corpus holds, and over an exponent too long
// for the scanner to keep whose value a million fraction zeros bring back
// into range (1e-1000006·10^1000010).
func TestNumberPathMatchesStrconv(t *testing.T) {
	for _, s := range randomNumbers(rand.New(rand.NewSource(2)), 5000) {
		checkNumber(t, []byte(s))
	}
	checkNumber(t, []byte("0."+strings.Repeat("0", 1_000_005)+"1e1000010"))
}

// TestBenchmarkBodiesTakeFastPath: every body the serve benchmark sends,
// and one setting every field, decodes in the canonical pass to what
// encoding/json makes of it, and converts at least 99.9% of its numbers
// without strconv.
func TestBenchmarkBodiesTakeFastPath(t *testing.T) {
	every := []byte(`{"matrix":{"n":160,"gen":"random","seed":3,"data":null},"config":{"alg":"luqr","nb":40,"ib":8,"p":2,"q":2,"criterion":"sum","alpha":0,"variant":"b2","workers":2,"seed":7,"precision":"auto"},"rhs":[1]}`)
	for _, seed := range []int64{1, 9301} {
		bodies := benchBodies(t, seed)
		bodies["every field"] = every
		for kind, b := range bodies {
			got, _, ok := decodeCanonical(b, nil)
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
			nums := anyNumber.FindAll(b, -1)
			slow := 0
			for _, num := range nums {
				d := decoder{b: num}
				if _, _, fast, _ := d.scanNumber(); !fast {
					slow++
				}
			}
			if slow*1000 > len(nums) {
				t.Errorf("seed %d %s body: %d of %d numbers went to strconv", seed, kind, slow, len(nums))
			}
		}
	}
}

// BenchmarkDecodeRequest times the served decoder, readRequest's pooled
// read and canonical pass and then the memo's remember, on the serve
// benchmark's body shapes: gen and data without a memo, so every number is
// scanned; data-miss, the data body through a memo that never hits, since
// each iteration sends an array it has not sighted; and data-repeat, the
// data body again through a memo that already holds its array.
func BenchmarkDecodeRequest(b *testing.B) {
	bodies := benchBodies(b, 1)
	for _, kind := range []string{"gen", "data", "data-miss", "data-repeat"} {
		shape, _, _ := strings.Cut(kind, "-")
		body := bytes.Clone(bodies[shape])
		b.Run(kind, func(b *testing.B) {
			decode := func(memo *dataMemo) {
				req, key, err := readRequest(bytes.NewReader(body), memo)
				if err != nil {
					b.Fatal(err)
				}
				memo.remember(key, req.Matrix.Data)
			}
			var memo *dataMemo
			if kind != shape {
				memo = newDataMemo(16, DefaultMaxBodyBytes)
			}
			if kind == "data-repeat" {
				decode(memo) // sighted
				decode(memo) // kept
			}
			// data-miss writes the iteration number over the last six
			// digits of the first matrix entry's fraction: a new array of
			// the same length on each iteration.
			first := bytes.Index(body, []byte(`"data":[`)) + len(`"data":[`)
			digits := first + bytes.IndexByte(body[first:], ',') - 6
			if kind == "data-miss" && !sixFractionDigits.Match(body[first:digits+6]) {
				b.Fatalf("first matrix entry %q has no six trailing fraction digits", body[first:digits+6])
			}
			b.SetBytes(int64(len(body)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if kind == "data-miss" {
					copy(body[digits:], fmt.Appendf(nil, "%06d", i%1_000_000))
				}
				decode(memo)
			}
		})
	}
}

// sixFractionDigits matches a number without an exponent that has at
// least six digits after its point.
var sixFractionDigits = regexp.MustCompile(`^-?[0-9]+\.[0-9]*[0-9]{6}$`)

// TestDecodeConcurrentNoAlias decodes bodies through the pooled buffers
// and one data memo from several goroutines at once. A decoded string or
// slice that aliased its buffer would be overwritten by a later body read
// into it: the race detector flags the overlap, and the values no longer
// match encoding/json's.
func TestDecodeConcurrentNoAlias(t *testing.T) {
	bodies := [][]byte{
		[]byte(`{"matrix":{"n":2,"gen":"random","seed":1},"config":{"alg":"hqr","criterion":"sum","variant":"b2","precision":"auto"},"rhs":[1,2]}`),
		[]byte(`{"matrix":{"n":2,"gen":"diagdom","seed":2},"config":{"alg":"luqr","criterion":"max","variant":"a2","precision":"f32"},"rhs":[3,4]}`),
		[]byte(`{"matrix":{"n":2,"data":[4,1,1,3]},"config":{"alg":"lupp","criterion":"mumps","precision":"f64"},"rhs":[5,6]}`),
		[]byte(`{"Matrix":{"n":2,"gen":"wilkinson"},"config":{"alg":"calu","criterion":"random"}}`),
	}
	const goroutines, rounds = 4, 200
	memo := newDataMemo(16, DefaultMaxBodyBytes)
	var wg sync.WaitGroup
	got := make([][]SolveRequest, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				req, key, err := readRequest(bytes.NewReader(bodies[(g+r)%len(bodies)]), memo)
				if err != nil {
					t.Error(err)
					return
				}
				memo.remember(key, req.Matrix.Data)
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

// keepArray decodes body through memo twice, remembering it as an
// accepted request's each time, so that memo keeps its data array, and
// returns the second decode, whose values memo now holds.
func keepArray(t *testing.T, memo *dataMemo, body []byte) SolveRequest {
	t.Helper()
	var req SolveRequest
	for range 2 {
		var key memoKey
		var err error
		if req, key, err = decodeRequest(body, memo); err != nil {
			t.Fatal(err)
		}
		memo.remember(key, req.Matrix.Data)
	}
	return req
}

// TestDataMemoSharedSliceUnmodified: four goroutines decode bodies that
// repeat one data array, each under its own config, through one memo that
// keeps it, and factor and solve them at once. Every request takes the
// memo's slice, so four factorizations read one backing array; under the
// race detector a write to it would be flagged, and the slice must hold
// its original bits afterwards.
func TestDataMemoSharedSliceUnmodified(t *testing.T) {
	const n = 32
	rng := rand.New(rand.NewSource(41))
	a := matgen.DiagDominant(n, rng)
	rhs := matgen.RandomVector(n, rng)
	alpha := 100.0
	body := func(nb int) []byte {
		b, err := json.Marshal(SolveRequest{
			Matrix: MatrixSpec{N: n, Data: a.Data},
			Config: ConfigSpec{Alg: "luqr", NB: nb, Alpha: &alpha},
			RHS:    rhs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	memo := newDataMemo(16, DefaultMaxBodyBytes)
	shared := keepArray(t, memo, body(4)).Matrix.Data
	m := mustManager(t, Options{QueueSize: 8, Concurrency: 4})
	defer m.Drain(context.Background())

	nbs := []int{4, 8, 16, 32}
	var wg sync.WaitGroup
	for _, nb := range nbs {
		wg.Add(1)
		go func(nb int) {
			defer wg.Done()
			req, key, err := readRequest(bytes.NewReader(body(nb)), memo)
			if err != nil {
				t.Error(err)
				return
			}
			if &req.Matrix.Data[0] != &shared[0] {
				t.Errorf("nb=%d: matrix.data was scanned again, not taken from the memo", nb)
			}
			p, err := parse(req.Matrix, req.Config, req.RHS, m.Options())
			if err != nil {
				t.Error(err)
				return
			}
			memo.remember(key, req.Matrix.Data)
			x, _, _, _, err := m.Solve(context.Background(), p, p.b)
			if err != nil {
				t.Error(err)
				return
			}
			if h := mat.HPL3(a, x, rhs); !(h < 16) {
				t.Errorf("nb=%d: HPL3 = %v", nb, h)
			}
		}(nb)
	}
	wg.Wait()
	for i, v := range a.Data {
		if math.Float64bits(shared[i]) != math.Float64bits(v) {
			t.Fatalf("shared matrix.data[%d] changed from %v to %v", i, v, shared[i])
		}
	}
}

// TestDataMemoBounds: the memo keeps an array only on its second
// sighting, so arrays sighted once hold nothing; it never holds more
// arrays than its entry cap, nor more key and value bytes than its byte
// cap, counting each slice's whole backing array; it evicts the least
// recently used, a hit counts as a use, and an array above the byte cap on
// its own is not kept.
func TestDataMemoBounds(t *testing.T) {
	body := func(i, n int) []byte {
		data := make([]float64, n)
		for j := range data {
			data[j] = float64(i*1000 + j)
		}
		b, err := json.Marshal(SolveRequest{Matrix: MatrixSpec{N: 2, Data: data}})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	held := func(memo *dataMemo) (entries int, bytes int64) {
		memo.mu.Lock()
		defer memo.mu.Unlock()
		if memo.lru.Len() != len(memo.entries) {
			t.Fatalf("LRU list holds %d arrays, map %d", memo.lru.Len(), len(memo.entries))
		}
		for el := memo.lru.Front(); el != nil; el = el.Next() {
			bytes += el.Value.(*memoEntry).size
		}
		if bytes != memo.bytes {
			t.Fatalf("memo counts %d bytes, holds %d", memo.bytes, bytes)
		}
		return len(memo.entries), bytes
	}
	decode := func(memo *dataMemo, b []byte) []float64 {
		req, key, err := decodeRequest(b, memo)
		if err != nil {
			t.Fatal(err)
		}
		memo.remember(key, req.Matrix.Data)
		return req.Matrix.Data
	}

	// Ten arrays sighted once each: none is kept.
	memo := newDataMemo(3, DefaultMaxBodyBytes)
	for i := 0; i < 10; i++ {
		decode(memo, body(i, 4))
	}
	if entries, bytes := held(memo); entries != 0 || bytes != 0 {
		t.Fatalf("arrays sighted once: %d kept in %d bytes", entries, bytes)
	}

	// Entry cap: ten arrays kept through a three-entry memo that a hit
	// keeps array 0 in.
	first := keepArray(t, memo, body(0, 4)).Matrix.Data
	for i := 1; i < 10; i++ {
		keepArray(t, memo, body(i, 4))
		if got := decode(memo, body(0, 4)); &got[0] != &first[0] {
			t.Fatalf("after array %d: array 0 was evicted despite its hits", i)
		}
		if entries, _ := held(memo); entries > 3 {
			t.Fatalf("after array %d: %d arrays held, cap 3", i, entries)
		}
	}

	// Byte cap: each 4-number array costs its raw bytes plus 32 bytes of
	// values; a cap of 2.5 arrays keeps two.
	one := int64(len(`[1000,1001,1002,1003]`)) + 32
	memo = newDataMemo(16, one*5/2)
	for i := 1; i < 10; i++ {
		keepArray(t, memo, body(i, 4))
		entries, bytes := held(memo)
		if bytes > one*5/2 || entries > 2 {
			t.Fatalf("after array %d: %d arrays in %d bytes, cap %d bytes", i, entries, bytes, one*5/2)
		}
	}

	// An array larger than the whole byte cap is decoded but not kept, and
	// evicts nothing; sighted again, its bytes are not copied.
	before, _ := held(memo)
	keepArray(t, memo, body(99, 64))
	if entries, _ := held(memo); entries != before {
		t.Fatalf("an oversized array changed the memo from %d to %d arrays", before, entries)
	}
	if _, key, _ := decodeRequest(body(99, 64), memo); key.raw != "" {
		t.Fatal("an array the byte cap cannot hold was copied for the memo")
	}

	// Data before n: the decoder grows the slice by appending, and the
	// memo counts the backing array it keeps, not the length.
	memo = newDataMemo(16, DefaultMaxBodyBytes)
	raw := `[1,2,3,4,5,6,7,8,9]`
	data := keepArray(t, memo, []byte(`{"matrix":{"data":`+raw+`,"n":3}}`)).Matrix.Data
	if _, bytes := held(memo); bytes != int64(len(raw))+8*int64(cap(data)) || cap(data) <= len(data) {
		t.Fatalf("memo counts %d bytes for %d raw bytes and %d values of capacity %d", bytes, len(raw), len(data), cap(data))
	}
}

// TestDataMemoDigest: requests that repeat a kept data array, under
// several configs, share its digest state and get the cache keys a fresh
// hash gives.
func TestDataMemoDigest(t *testing.T) {
	const n = 16
	a := matgen.DiagDominant(n, rand.New(rand.NewSource(8)))
	memo := newDataMemo(16, DefaultMaxBodyBytes)
	var prefix *dataPrefix
	for i, cs := range []ConfigSpec{{NB: 4}, {NB: 4}, {NB: 8}, {NB: 4, Alg: "hqr"}, {NB: 4}} {
		body, err := json.Marshal(SolveRequest{Matrix: MatrixSpec{N: n, Data: a.Data}, Config: cs})
		if err != nil {
			t.Fatal(err)
		}
		req, key, err := decodeRequest(body, memo)
		if err != nil {
			t.Fatal(err)
		}
		p, err := parse(req.Matrix, req.Config, req.RHS, Options{MaxN: 64})
		if err != nil {
			t.Fatal(err)
		}
		memo.remember(key, req.Matrix.Data)
		fresh := req.Matrix
		fresh.prefix = nil
		if want := digestKey(fresh, p.cfg, p.criterion); p.key != want {
			t.Fatalf("request %d: key %s, a fresh hash gives %s", i, p.key, want)
		}
		if i < 2 {
			continue // sighted, then kept
		}
		if req.Matrix.prefix == nil || prefix != nil && req.Matrix.prefix != prefix {
			t.Fatalf("request %d: the memo did not share the array's digest state", i)
		}
		prefix = req.Matrix.prefix
	}
	if prefix.state == nil {
		t.Fatal("no digest state was remembered")
	}
}

// TestDataMemoAcceptedOnly: through the HTTP server, a data array whose
// request parse rejects is never sighted, however often it is sent, while
// an accepted one is kept on its second request and then served from the
// memo.
func TestDataMemoAcceptedOnly(t *testing.T) {
	m := mustManager(t, Options{QueueSize: 4, Concurrency: 1})
	defer m.Drain(context.Background())
	s := NewServer(m, 0)
	post := func(body string) int {
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body)))
		return w.Code
	}
	state := func() (entries int, sighted bool) {
		s.memo.mu.Lock()
		defer s.memo.mu.Unlock()
		return len(s.memo.entries), slices.ContainsFunc(s.memo.seen, func(h uint64) bool { return h != 0 })
	}
	for range 3 {
		if code := post(`{"matrix":{"n":3,"data":[4,1,1,3]}}`); code != http.StatusBadRequest {
			t.Fatalf("n*n mismatch: status %d, want 400", code)
		}
	}
	if entries, sighted := state(); entries != 0 || sighted {
		t.Fatalf("rejected requests: %d arrays kept, sighted %v", entries, sighted)
	}
	for i, want := range []int{0, 1, 1} {
		if code := post(`{"matrix":{"n":2,"data":[4,1,1,3]},"config":{"nb":1}}`); code != http.StatusOK {
			t.Fatalf("request %d: status %d, want 200", i, code)
		}
		if entries, _ := state(); entries != want {
			t.Fatalf("after request %d: %d arrays kept, want %d", i, entries, want)
		}
	}
}

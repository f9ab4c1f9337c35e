package service

import (
	"bytes"
	"container/list"
	"encoding/json"
	"hash/maphash"
	"io"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"sync"
	"unsafe"
)

// bodyPool holds request-body buffers between requests, so a stream of
// explicit-data requests reads into memory the process already has instead
// of growing a fresh buffer per request.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readRequest reads body, already size-limited, into a pooled buffer and
// decodes it through memo (nil: none). Nothing it returns aliases the
// buffer; a matrix.data slice may be shared with other requests (dataMemo),
// and the memoKey, when the array was scanned, is what memo.remember takes
// once the request is accepted.
func readRequest(body io.Reader, memo *dataMemo) (SolveRequest, memoKey, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer bodyPool.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(body); err != nil {
		return SolveRequest{}, memoKey{}, err
	}
	return decodeRequest(buf.Bytes(), memo)
}

// decodeRequest decodes a request body exactly as
// json.NewDecoder(bytes.NewReader(b)).Decode into a zero SolveRequest does:
// the same bodies succeed, with the same values, and the same ones fail,
// with the same errors. A canonical body takes decodeCanonical's single
// pass, through memo (nil: none); any other is handed to encoding/json from
// the start.
func decodeRequest(b []byte, memo *dataMemo) (SolveRequest, memoKey, error) {
	if req, key, ok := decodeCanonical(b, memo); ok {
		return req, key, nil
	}
	var req SolveRequest
	err := json.NewDecoder(bytes.NewReader(b)).Decode(&req)
	return req, memoKey{}, err
}

// decodeCanonical decodes b in one pass when it is a canonical request:
// one JSON object holding only the request's own keys, each at most once
// and spelled exactly as its tag; strings of plain ASCII without escapes;
// numbers in the strict JSON grammar. Each number converts to the value
// strconv.ParseFloat or ParseInt gives, as encoding/json converts it, and
// null leaves a field at its zero value, as it does from a zero value
// there. ok is false on the first byte outside that subset, or on a value
// encoding/json would refuse (a number out of range, an integer written
// with a fraction); the caller then decodes b with encoding/json. Under
// these restrictions encoding/json's case-folded key matching, object
// merging, escape and UTF-8 handling never come into play, which is why the
// two decoders cannot disagree.
//
// A data array byte-identical to one memo holds takes memo's values
// without a scan (dataMemo); a scanned one returns its memoKey.
func decodeCanonical(b []byte, memo *dataMemo) (req SolveRequest, key memoKey, ok bool) {
	d := decoder{b: b}
	m, c := &req.Matrix, &req.Config
	ok = d.object(map[string]func() bool{
		"matrix": func() bool {
			return d.object(map[string]func() bool{
				"n":    func() bool { return d.setInt(&m.N) },
				"gen":  func() bool { return d.setString(&m.Gen) },
				"seed": func() bool { return d.setInt64(&m.Seed) },
				"data": func() bool {
					var hit bool
					if hit, key = d.recall(memo, m); hit {
						return true
					}
					return d.setFloats(&m.Data, d.entries(m.N, m.N))
				},
			})
		},
		"config": func() bool {
			return d.object(map[string]func() bool{
				"alg":       func() bool { return d.setString(&c.Alg) },
				"nb":        func() bool { return d.setInt(&c.NB) },
				"ib":        func() bool { return d.setInt(&c.IB) },
				"p":         func() bool { return d.setInt(&c.P) },
				"q":         func() bool { return d.setInt(&c.Q) },
				"criterion": func() bool { return d.setString(&c.Criterion) },
				"alpha":     func() bool { return d.setFloatPtr(&c.Alpha) },
				"variant":   func() bool { return d.setString(&c.Variant) },
				"workers":   func() bool { return d.setInt(&c.Workers) },
				"seed":      func() bool { return d.setInt64(&c.Seed) },
				"precision": func() bool { return d.setString(&c.Precision) },
			})
		},
		"rhs": func() bool { return d.setFloats(&req.RHS, d.entries(m.N, 1)) },
	})
	d.space()
	if ok = ok && d.i == len(b); !ok {
		key = memoKey{}
	}
	return req, key, ok
}

// recall looks the data array that starts at the cursor up in memo. In a
// canonical body a float array holds only numbers, commas and whitespace,
// so it runs from its '[' to the first ']', and memo holds only arrays
// that decoded cleanly. On a hit m takes memo's values and their digest
// state, and the cursor moves past the ']'; on a miss the cursor stays
// where it was, and key names the array the cursor's scan will read when
// it succeeds.
func (d *decoder) recall(memo *dataMemo, m *MatrixSpec) (hit bool, key memoKey) {
	d.space()
	if memo == nil || d.i == len(d.b) || d.b[d.i] != '[' {
		return false, memoKey{}
	}
	end := bytes.IndexByte(d.b[d.i:], ']')
	if end < 0 {
		return false, memoKey{}
	}
	e, key := memo.lookup(d.b[d.i : d.i+end+1])
	if e == nil {
		return false, key
	}
	m.Data, m.prefix = e.data, e.prefix
	d.i += end + 1
	return true, memoKey{}
}

// decoder is decodeCanonical's cursor over the body. Each method consumes
// one token or value and reports whether it was in the canonical subset.
type decoder struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (d *decoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (d *decoder) consume(c byte) bool {
	d.space()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// null consumes the literal null if it comes next.
func (d *decoder) null() bool {
	d.space()
	if bytes.HasPrefix(d.b[d.i:], []byte("null")) {
		d.i += len("null")
		return true
	}
	return false
}

// object decodes an object whose keys all name fields, each at most once:
// a key's function decodes its value, and is dropped once used. null is
// the zero value.
func (d *decoder) object(fields map[string]func() bool) bool {
	if d.null() {
		return true
	}
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true
	}
	for {
		key, ok := d.scanString()
		if !ok || !d.consume(':') {
			return false
		}
		field, ok := fields[string(key)]
		if !ok || !field() {
			return false
		}
		delete(fields, string(key))
		if d.consume('}') {
			return true
		}
		if !d.consume(',') {
			return false
		}
	}
}

// scanString scans a string of ASCII without control characters or escapes
// and returns its contents, which alias the body.
func (d *decoder) scanString() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	for j := d.i; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			s := d.b[d.i:j]
			d.i = j + 1
			return s, true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// setString decodes a string field into a copy that does not alias the
// body.
func (d *decoder) setString(v *string) bool {
	if d.null() {
		return true
	}
	s, ok := d.scanString()
	*v = string(s)
	return ok
}

// scanNumber scans one number in the strict JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its bytes.
// What follows it is left to the caller's next token, so "01" scans as 0
// and then fails on the 1. In the same pass it converts the number to the
// float64 strconv.ParseFloat would return, when exactFloat can: fast
// reports that f holds that value.
func (d *decoder) scanNumber() (num []byte, f float64, fast, ok bool) {
	d.space()
	b, i := d.b, d.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	// The value is mant·10^exp, where mant keeps the leading significant
	// digits, at most 19 of them, and exact is false once a nonzero digit
	// falls off its end.
	var mant uint64
	exp, exact := 0, true
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		j := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if mant < 1e18 {
				mant = mant*10 + uint64(b[i]-'0')
			} else {
				exp++
				exact = exact && b[i] == '0'
			}
		}
		if i == j {
			return nil, 0, false, false
		}
	}
	if i < len(b) && b[i] == '.' {
		i++
		j := i
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if mant < 1e18 {
				mant = mant*10 + uint64(b[i]-'0')
				exp--
			} else {
				exact = exact && b[i] == '0'
			}
		}
		if i == j {
			return nil, 0, false, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || eneg) {
			i++
		}
		j, e := i, 0
		for ; i < len(b) && '0' <= b[i] && b[i] <= '9'; i++ {
			if e < 1e6 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == j {
			return nil, 0, false, false
		}
		// An exponent of 10^6 or more stopped taking digits: strconv
		// decides such a number.
		exact = exact && e < 1e6
		if eneg {
			e = -e
		}
		exp += e
	}
	num = b[d.i:i]
	d.i = i
	if exact {
		f, fast = exactFloat(mant, exp)
		if neg {
			f = -f
		}
	}
	return num, f, fast, true
}

// pow10 holds the powers of ten a uint64 holds, 10^0 to 10^19.
var pow10 = [...]uint64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
}

// pow10f holds the powers of ten a float64 holds exactly, 10^0 to 10^22
// (5^22 < 2^53).
var pow10f = [...]float64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// exactFloat returns mant·10^exp rounded to the nearest float64, ties to
// even, when one of two exact paths decides it; ok is false otherwise.
// Clinger's fast path takes mant < 2^53 and |exp| ≤ 22: both factors are
// float64s, so one multiply or divide rounds once, correctly. Otherwise,
// for |exp| ≤ 19, the 128-bit product mant·10^exp, or the quotient
// mant/10^exp to 64 bits with a remainder, holds the value exactly enough
// for roundBits. Their results lie in [10^-19, 10^38], so neither path can
// overflow or reach a subnormal.
func exactFloat(mant uint64, exp int) (f float64, ok bool) {
	switch {
	case mant == 0:
		return 0, true
	case mant < 1<<53 && -22 <= exp && exp <= 22:
		if exp < 0 {
			return float64(mant) / pow10f[-exp], true
		}
		return float64(mant) * pow10f[exp], true
	case 0 <= exp && exp <= 19:
		hi, lo := bits.Mul64(mant, pow10[exp])
		z := bits.LeadingZeros64(hi)
		return roundBits(hi<<z|lo>>(64-z), lo<<z != 0, 64-z), true
	case -19 <= exp && exp < 0:
		// With mant and 10^-exp shifted to their top bits (m, d·2^dz),
		// m·2^63/(d·2^dz) lies in [2^62, 2^64), and mant/10^-exp is
		// that times 2^(dz-mz-63).
		mz, d := bits.LeadingZeros64(mant), pow10[-exp]
		dz := bits.LeadingZeros64(d)
		m := mant << mz
		q, r := bits.Div64(m>>1, m<<63, d<<dz)
		return roundBits(q, r != 0, dz-mz-63), true
	}
	return 0, false
}

// roundBits returns (x+ε)·2^e2 rounded to 53 bits, ties to even, for a
// nonzero x and a fraction ε in [0, 1) that is nonzero exactly when
// sticky. x ≥ 2^53 whenever sticky is set, so ε stays below the last of
// the bits rounding drops. The result must be a normal float64.
func roundBits(x uint64, sticky bool, e2 int) float64 {
	z := bits.LeadingZeros64(x)
	x <<= z
	e2 -= z
	m, rest := x>>11, x&(1<<11-1)
	if rest > 1<<10 || rest == 1<<10 && (sticky || m&1 == 1) {
		m++
		if m == 1<<53 {
			m >>= 1
			e2++
		}
	}
	// m·2^(e2+11) with m in [2^52, 2^53): the biased exponent is
	// e2+11+52+1023.
	return math.Float64frombits(uint64(e2+1086)<<52 | m&(1<<52-1))
}

// setInt64 decodes an integer field as encoding/json does, with
// strconv.ParseInt on the scanned bytes; a fraction or exponent (1.0, 1e2)
// fails there.
func (d *decoder) setInt64(v *int64) bool {
	if d.null() {
		return true
	}
	num, _, _, ok := d.scanNumber()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(num), 10, 64)
	*v = n
	return err == nil
}

// setInt decodes an int field, refusing values int does not hold.
func (d *decoder) setInt(v *int) bool {
	var n int64
	ok := d.setInt64(&n)
	*v = int(n)
	return ok && int64(*v) == n
}

// float decodes one number as encoding/json decodes a float64: to
// strconv.ParseFloat's value, which scanNumber computes itself for all but
// the rare number it cannot decide; those go to strconv.ParseFloat, where a
// value out of float64's range fails.
func (d *decoder) float() (float64, bool) {
	num, f, fast, ok := d.scanNumber()
	if !ok || fast {
		return f, ok
	}
	f, err := strconv.ParseFloat(string(num), 64)
	return f, err == nil
}

// setFloatPtr decodes a *float64 field: null is nil.
func (d *decoder) setFloatPtr(v **float64) bool {
	if d.null() {
		return true
	}
	f, ok := d.float()
	*v = &f
	return ok
}

// setFloats decodes a []float64 field into a slice of capacity want: null is
// nil and [] is empty but not nil, as in encoding/json.
func (d *decoder) setFloats(v *[]float64, want int) bool {
	if d.null() {
		return true
	}
	if !d.consume('[') {
		return false
	}
	s := make([]float64, 0, want)
	if !d.consume(']') {
		for {
			f, ok := d.float()
			if !ok {
				return false
			}
			s = append(s, f)
			if d.consume(']') {
				break
			}
			if !d.consume(',') {
				return false
			}
		}
	}
	*v = s
	return true
}

// entries returns rows·cols, the length a float array of the request is
// expected to have, when the rest of the body can hold that many numbers
// (each takes at least two bytes, one and a comma), and 0 otherwise: a
// request cannot make the decoder reserve more than its body justifies.
func (d *decoder) entries(rows, cols int) int {
	room := (len(d.b) - d.i + 1) / 2
	if rows <= 0 || cols <= 0 || rows > room/cols {
		return 0
	}
	return rows * cols
}

// dataMemo remembers the matrix.data arrays of recent accepted requests:
// an array's raw bytes, from '[' to ']', map to the values they decoded to
// and the values' digest state (dataPrefix), so a body repeating a
// remembered array byte for byte takes its values without scanning a
// number, and its cache key without hashing them. Entries are found by a
// hash of the bytes and then compared with them in full, so a hit is
// exact, never probabilistic; an array spelled any other way (other
// whitespace, other digits for the same value) misses and is scanned as
// before.
//
// An array is kept on its second sighting: the first only records its
// hash, in a ring of the last maxEntries hashes, so traffic that never
// repeats an array holds no arrays and pays one hash of each on top of its
// scan. Only arrays of requests that parsed are recorded (Server.request),
// so a rejected request can neither take a slot nor evict one. The memo
// holds at most maxEntries arrays and maxBytes of keys plus values,
// evicting the least recently used, and is safe for concurrent use.
//
// A remembered slice is handed to every request that repeats its array, so
// requests share it, and nothing may write to it: the request parser and
// the cache digest only read the data, the operator core.Run factors is a
// view of it that Run only reads (it copies A into its tiles), and a job
// drops its request when it finishes.
type dataMemo struct {
	seed       maphash.Seed
	maxEntries int
	maxBytes   int64

	mu      sync.Mutex
	bytes   int64                    // keys plus values held
	entries map[uint64]*list.Element // hash of the raw array → element; value is *memoEntry
	lru     *list.List               // front = least recently used
	seen    []uint64                 // hashes of arrays sighted once, a ring
	next    int                      // the ring slot the next sighting takes
}

type memoEntry struct {
	h      uint64
	raw    string
	data   []float64
	prefix *dataPrefix
	size   int64 // counted against maxBytes: the key and the values' backing array
}

// memoKey is what dataMemo.remember takes of a scanned data array: the
// hash of its bytes and, when the memo had sighted that hash before, a
// copy of the bytes. The zero memoKey names no array.
type memoKey struct {
	h   uint64
	raw string // "" on a first sighting
	ok  bool
}

func newDataMemo(maxEntries int, maxBytes int64) *dataMemo {
	return &dataMemo{
		seed:       maphash.MakeSeed(),
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		entries:    make(map[uint64]*list.Element),
		lru:        list.New(),
		seen:       make([]uint64, maxEntries),
	}
}

// lookup returns the remembered values of the array raw, marking them
// recently used, or, on a miss, the key remember takes for raw once its
// request is accepted.
func (m *dataMemo) lookup(raw []byte) (*memoEntry, memoKey) {
	k := memoKey{h: m.hash(raw), ok: true}
	var e *memoEntry
	m.mu.Lock()
	if el, ok := m.entries[k.h]; ok {
		m.lru.MoveToBack(el)
		e = el.Value.(*memoEntry)
	}
	again := slices.Contains(m.seen, k.h)
	m.mu.Unlock()
	if e != nil && e.raw == string(raw) {
		return e, memoKey{}
	}
	// A second sighting copies the bytes, unless the array, counted at one
	// value per comma-separated number, cannot fit the byte cap.
	if again && int64(len(raw))+8*int64(bytes.Count(raw, []byte{','})+1) <= m.maxBytes {
		k.raw = string(raw)
	}
	return nil, k
}

// hash hashes an array's bytes with the runtime's string hash, which takes
// them in one call (maphash.Bytes takes them 128 at a time, at a fifth of
// the speed); the string aliases raw only for the call.
func (m *dataMemo) hash(raw []byte) uint64 {
	return maphash.Comparable(m.seed, unsafe.String(unsafe.SliceData(raw), len(raw)))
}

// remember records the data array k of an accepted request, which decoded
// to data: on a first sighting only its hash, on a later one its bytes and
// values, evicting the least recently used arrays beyond the bounds. An
// array larger than maxBytes on its own is not kept. The kept slice is
// capped at its length, so an append to it copies instead of writing past
// it.
func (m *dataMemo) remember(k memoKey, data []float64) {
	if m == nil || !k.ok {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if k.raw == "" {
		m.seen[m.next] = k.h
		m.next = (m.next + 1) % len(m.seen)
		return
	}
	e := &memoEntry{h: k.h, raw: k.raw, data: data[:len(data):len(data)], prefix: new(dataPrefix),
		size: int64(len(k.raw)) + 8*int64(cap(data))}
	if e.size > m.maxBytes {
		return
	}
	if el, ok := m.entries[k.h]; ok {
		if el.Value.(*memoEntry).raw == k.raw {
			return // a concurrent request remembered it first
		}
		m.drop(el) // another array with the same hash: the newer one replaces it
	}
	m.entries[k.h] = m.lru.PushBack(e)
	m.bytes += e.size
	for len(m.entries) > m.maxEntries || m.bytes > m.maxBytes {
		m.drop(m.lru.Front())
	}
}

// drop removes one remembered array. m.mu must be held.
func (m *dataMemo) drop(el *list.Element) {
	e := m.lru.Remove(el).(*memoEntry)
	delete(m.entries, e.h)
	m.bytes -= e.size
}

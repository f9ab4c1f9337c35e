package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"luqr/internal/core"
	"luqr/internal/matgen"
	"luqr/internal/service"
)

// TestCheckCountsWrongAnswersAndRefusals drives the serve client against a
// fake server that answers one request correctly, one with a wrong
// solution and one with a 429 refusal, and checks that the tally counts
// all three attempts and both failures; a breakdown on the factor path
// counts too.
func TestCheckCountsWrongAnswersAndRefusals(t *testing.T) {
	const n = 16
	a, err := generate("diagdom", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := matgen.RandomVector(n, rand.New(rand.NewSource(2)))
	res, err := core.Run(a, b, core.Config{NB: 4})
	if err != nil {
		t.Fatal(err)
	}
	wrong := append([]float64(nil), res.X...)
	wrong[3] += 1

	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req service.SolveRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch req.Matrix.Seed {
		case 1:
			json.NewEncoder(w).Encode(map[string]any{"x": res.X})
		case 2:
			json.NewEncoder(w).Encode(map[string]any{"x": wrong})
		default:
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
		}
	}))
	defer srv.Close()

	var tl tally
	c := &client{url: srv.URL, http: srv.Client()}
	for seed := int64(1); seed <= 3; seed++ {
		op, err := genOperator(n, seed, a)
		if err != nil {
			t.Fatal(err)
		}
		q := &request{op: op, rhs: b}
		c.send(q)
		if err := q.check(&tl); err != nil {
			t.Fatal(err)
		}
	}
	if tl.attempted != 3 || tl.failed != 2 {
		t.Fatalf("attempted %d failed %d, want 3 and 2 (reasons %v)", tl.attempted, tl.failed, tl.reasons)
	}
	if tl.reasons["HPL3 above the band"] != 1 || tl.reasons["HTTP 429"] != 1 {
		t.Errorf("reasons %v, want one wrong answer and one refusal", tl.reasons)
	}

	tl.solution(a, b, res.X, true)
	if tl.attempted != 4 || tl.failed != 3 || tl.reasons["breakdown"] != 1 {
		t.Errorf("a breakdown was not counted: attempted %d failed %d reasons %v", tl.attempted, tl.failed, tl.reasons)
	}
}

// TestWindowDealsTheMix runs the closed-loop clients against a fake server
// that answers every request, and checks that the window records one span
// per request and deals the rotation's mix exactly, up to the clients'
// unfinished blocks.
func TestWindowDealsTheMix(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{"x": []float64{}})
	}))
	defer srv.Close()
	a, err := generate("diagdom", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	e := &serveEnv{client: &client{url: srv.URL, http: srv.Client()}}
	for i := 0; i < hotGen; i++ {
		op, err := genOperator(8, int64(i), a)
		if err != nil {
			t.Fatal(err)
		}
		e.hot = append(e.hot, op)
	}
	for i := 0; i < hotData; i++ {
		op, err := dataOperator(a)
		if err != nil {
			t.Fatal(err)
		}
		e.data = append(e.data, op)
	}
	rec := newRecorder()
	var ids atomic.Int64
	sent, _, err := e.window(1, 0, 200*time.Millisecond, rec, &ids, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sent) < 2*blockHits || len(rec.spans) != len(sent) {
		t.Fatalf("%d requests, %d spans", len(sent), len(rec.spans))
	}
	count := map[kind]int{}
	for _, q := range sent {
		if q.err != nil || q.status != http.StatusOK {
			t.Fatalf("request failed: HTTP %d %v", q.status, q.err)
		}
		count[q.kind]++
	}
	block := blockHits + blockMisses + blockData
	for k, per := range map[kind]int{kindHit: blockHits, kindMiss: blockMisses, kindData: blockData} {
		// Each client's unfinished block shifts a kind's count by at most
		// its per-block count; one more absorbs the rounding of want.
		want, slack := len(sent)*per/block, serveClients*per+1
		if count[k] < want-slack || count[k] > want+slack {
			t.Errorf("%d %s requests of %d, want %d±%d", count[k], kindNames[k], len(sent), want, slack)
		}
	}
}

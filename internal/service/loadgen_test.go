package service

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestRunLoadFailsOnServerErrors: a server that answers 500 must fail the
// load run, so `luqr-bench -load` (and the service smoke's load step)
// cannot pass while every request fails; one that answers 429 is shedding
// load as designed and must not.
func TestRunLoadFailsOnServerErrors(t *testing.T) {
	for _, tc := range []struct {
		status  int
		wantErr bool
	}{
		{http.StatusInternalServerError, true},
		{http.StatusTooManyRequests, false},
	} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodGet { // /healthz and the status polls
				w.WriteHeader(http.StatusOK)
				return
			}
			w.WriteHeader(tc.status)
		}))
		res, err := RunLoad(LoadOptions{URL: ts.URL, Clients: 2, Requests: 16, N: 8, NB: 4, Seed: 3}, nil)
		ts.Close()
		if (err != nil) != tc.wantErr {
			t.Fatalf("status %d: RunLoad error = %v, want error %v", tc.status, err, tc.wantErr)
		}
		if tc.wantErr && (res == nil || res.Errors == 0) {
			t.Fatalf("status %d: result %+v, want the failed requests counted", tc.status, res)
		}
		if !tc.wantErr && (res.Errors != 0 || res.Rejected == 0) {
			t.Fatalf("status %d: errors=%d rejected=%d, want 0 errors and some 429s", tc.status, res.Errors, res.Rejected)
		}
	}
}

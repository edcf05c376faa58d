package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// newTestServer serves a random tensor on a q=2, b=2 pool (n=10).
func newTestServer(t *testing.T) *server {
	t.Helper()
	part, err := partition.NewSpherical(2)
	if err != nil {
		t.Fatal(err)
	}
	b := 2
	n := part.M * b
	pool, err := serve.Open(tensor.Random(n, rand.New(rand.NewSource(1))), serve.Options{
		Session: parallel.Options{Part: part, B: b, Wiring: parallel.WiringP2P},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := pool.Close(); err != nil {
			t.Error(err)
		}
	})
	return &server{pool: pool, info: infoResponse{N: n}}
}

// apply posts body to the apply handler and returns the status and the
// decoded error response, failing unless the body is one JSON object.
func apply(t *testing.T, s *server, body string) (int, errorResponse) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.handleApply(rec, httptest.NewRequest(http.MethodPost, "/v1/apply", strings.NewReader(body)))
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
		t.Fatalf("status %d with a body that is not JSON (%v): %q", rec.Code, err, rec.Body.String())
	}
	return rec.Code, er
}

// xBody encodes an apply request for n copies of v.
func xBody(tenant string, n int, v string) string {
	return `{"tenant":"` + tenant + `","x":[` + strings.TrimSuffix(strings.Repeat(v+",", n), ",") + `]}`
}

func TestApplyOverflowIsJSONError(t *testing.T) {
	s := newTestServer(t)
	if code, _ := apply(t, s, xBody("t", s.info.N, "1")); code != http.StatusOK {
		t.Fatalf("finite apply: status %d, want 200", code)
	}
	// Every y_i sums a_ijk·1e400 terms, so y is ±Inf or NaN, which JSON
	// cannot carry.
	code, er := apply(t, s, xBody("t", s.info.N, "1e200"))
	if code/100 == 2 || er.Error == "" {
		t.Fatalf("overflowing apply: status %d, error %q; want a non-2xx JSON error", code, er.Error)
	}
}

func TestApplyOversizeBodyRejected(t *testing.T) {
	s := newTestServer(t)
	tenant := strings.Repeat("a", int(maxApplyBody(s.info.N)))
	code, er := apply(t, s, xBody(tenant, s.info.N, "1"))
	if code != http.StatusRequestEntityTooLarge || er.Error == "" {
		t.Fatalf("oversize body: status %d, error %q; want 413 with a JSON error", code, er.Error)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"math"
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
func newTestServer(t testing.TB) *server {
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

// TestApplyLongTenantRejected: a tenant name over 256 bytes, from the
// body or the X-Tenant header, answers 400 with a JSON error, so client
// names cannot grow the tenant ledger without bound.
func TestApplyLongTenantRejected(t *testing.T) {
	s := newTestServer(t)
	long := strings.Repeat("a", 257)
	if code, er := apply(t, s, xBody(long, s.info.N, "1")); code != http.StatusBadRequest || er.Error == "" {
		t.Fatalf("257-byte tenant in the body: status %d, error %q; want 400 with a JSON error", code, er.Error)
	}
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/apply", strings.NewReader(xBody("", s.info.N, "1")))
	req.Header.Set("X-Tenant", long)
	s.handleApply(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("257-byte X-Tenant: status %d, want 400", rec.Code)
	}
}

// FuzzApplyHandler posts arbitrary bodies to the apply handler. Every
// response must be one JSON object with status 200, 400, 413 or 422, and a
// 200 must carry the operator's n outputs, all finite.
func FuzzApplyHandler(f *testing.F) {
	s := newTestServer(f)
	n := s.info.N
	f.Add(xBody("t", n, "1"))
	f.Add(xBody("t", n, "1e200"))
	f.Add(xBody(strings.Repeat("a", int(maxApplyBody(n))), n, "1"))
	f.Fuzz(func(t *testing.T, body string) {
		rec := httptest.NewRecorder()
		s.handleApply(rec, httptest.NewRequest(http.MethodPost, "/v1/apply", strings.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity:
		default:
			t.Fatalf("body %q: status %d", body, rec.Code)
		}
		out := bytes.TrimSpace(rec.Body.Bytes())
		dec := json.NewDecoder(bytes.NewReader(out))
		var obj map[string]json.RawMessage
		if len(out) == 0 || out[0] != '{' || dec.Decode(&obj) != nil || dec.InputOffset() != int64(len(out)) {
			t.Fatalf("body %q: status %d with a response that is not one JSON object: %q", body, rec.Code, rec.Body.String())
		}
		if rec.Code != http.StatusOK {
			return
		}
		var resp applyResponse
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatalf("body %q: 200 response does not decode: %v", body, err)
		}
		if len(resp.Y) != n {
			t.Fatalf("body %q: 200 carries %d y values, want %d", body, len(resp.Y), n)
		}
		for i, v := range resp.Y {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("body %q: 200 carries y[%d] = %g", body, i, v)
			}
		}
	})
}

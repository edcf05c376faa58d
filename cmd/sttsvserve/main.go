// Command sttsvserve is the long-running multi-tenant STTSV server: it
// packs one random symmetric tensor, opens a serving pool (N resident
// sessions over the shared packed blocks, dual-trigger request batching)
// and serves y = A ×₂ x ×₃ x over HTTP/JSON. Concurrent requests from
// independent tenants are coalesced into multi-column ApplyBatch calls —
// r simultaneous users cost r× the words but 1× the messages of a solo
// apply — and every response is bit-identical to a solo Session.Apply.
//
// Besides the default dense tensor, the server can host the sparse and
// low-rank fast paths: -workload hypergraph serves a random 3-uniform
// hypergraph adjacency tensor through a pool of sparse sessions (packed
// once, O(nnz) storage — n ≥ 10⁶ is practical), and -workload cp serves
// a factored rank-r CP operator whose parallel apply moves O(r) words
// per rank regardless of n.
//
// Usage:
//
//	sttsvserve                          # q=3, b=4 tensor on :8347
//	sttsvserve -q 4 -b 6 -sessions 4    # bigger machine, four sessions
//	sttsvserve -maxcols 8 -maxwait 2ms  # batching policy
//	sttsvserve -workload hypergraph -n 1000000 -edges 10000000
//	sttsvserve -workload cp -n 1000000 -rank 16 -cpranks 8
//	sttsvserve -metrics serve.jsonl -metrics-interval 10s
//
// Endpoints:
//
//	POST /v1/apply    {"tenant":"acme","x":[...]} → result + batch stats
//	GET  /v1/metrics  serving counters as JSONL (obs serving schema)
//	GET  /v1/info     serving configuration
//
// A full admission queue answers 429 with a Retry-After header derived
// from the pool's measured batch service time. A request body larger than
// any vector of the served dimension answers 413, and a result with no
// JSON form (an overflow to ±Inf) answers 422. On SIGINT/SIGTERM the
// server stops admitting, drains every queued request, and exits.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/backendflag"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/partition"
	"repro/internal/serve"
	"repro/internal/sparse"
	"repro/internal/sttsv"
	"repro/internal/tensor"
)

type applyRequest struct {
	Tenant string    `json:"tenant"`
	X      []float64 `json:"x"`
}

type applyResponse struct {
	Y           []float64 `json:"y"`
	BatchCols   int       `json:"batch_cols"`
	Trigger     string    `json:"trigger"`
	QueueWaitUs float64   `json:"queue_wait_us"`
	ServiceUs   float64   `json:"service_us"`
	SentWords   int64     `json:"sent_words"`
	SentMsgs    float64   `json:"sent_msgs"`
	Steps       int       `json:"steps"`
}

type errorResponse struct {
	Error        string  `json:"error"`
	QueueDepth   int     `json:"queue_depth,omitempty"`
	QueueCap     int     `json:"queue_cap,omitempty"`
	RetryAfterMs float64 `json:"retry_after_ms,omitempty"`
}

type infoResponse struct {
	N         int     `json:"n"`
	Q         int     `json:"q"`
	P         int     `json:"p"`
	B         int     `json:"b"`
	Wiring    string  `json:"wiring"`
	Sessions  int     `json:"sessions"`
	MaxCols   int     `json:"max_cols"`
	MaxWaitUs float64 `json:"max_wait_us"`
	QueueCap  int     `json:"queue_cap"`
	Workload  string  `json:"workload"`
	NNZ       int     `json:"nnz,omitempty"`
	Rank      int     `json:"rank,omitempty"`
}

type server struct {
	pool *serve.Pool
	info infoResponse
}

// HTTP server timeouts, so a slow or stalled client cannot hold a
// connection open indefinitely. There is no write timeout: an admitted
// apply may legitimately wait in the batching queue.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 30 * time.Second
	idleTimeout       = 2 * time.Minute
)

// maxApplyBody bounds an apply request body for an n-dimensional
// operator: 64 bytes per element covers any float64 in JSON plus its
// separator and indentation, and 64 KiB covers the tenant name and the
// object framing.
func maxApplyBody(n int) int64 { return 64*int64(n) + 1<<16 }

// writeJSON encodes v before committing the status line. A value with no
// JSON form — a result that overflowed to ±Inf or NaN — answers 422 with
// a JSON error instead of a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		status = http.StatusUnprocessableEntity
		buf.Reset()
		// An errorResponse holds a string and zero numbers, so it encodes.
		_ = json.NewEncoder(&buf).Encode(errorResponse{Error: "response not representable as JSON: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// A failed write means the client has gone; there is no one to tell.
	_, _ = w.Write(buf.Bytes())
}

func (s *server) handleApply(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST only"})
		return
	}
	var req applyRequest
	body := http.MaxBytesReader(w, r.Body, maxApplyBody(s.info.N))
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errorResponse{
				Error: fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad JSON: " + err.Error()})
		return
	}
	if req.Tenant == "" {
		req.Tenant = r.Header.Get("X-Tenant")
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	resp, err := s.pool.Apply(req.Tenant, req.X)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, applyResponse{
			Y:           resp.Y,
			BatchCols:   resp.BatchCols,
			Trigger:     resp.Trigger.String(),
			QueueWaitUs: float64(resp.QueueWait.Nanoseconds()) / 1e3,
			ServiceUs:   float64(resp.Service.Nanoseconds()) / 1e3,
			SentWords:   resp.SentWords(),
			SentMsgs:    resp.SentMsgs(),
			Steps:       resp.Steps,
		})
	case errors.Is(err, serve.ErrPoolClosed):
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
	case errors.Is(err, parallel.ErrSessionBusy):
		var be *serve.BusyError
		resp := errorResponse{Error: err.Error()}
		if errors.As(err, &be) {
			resp.QueueDepth = be.QueueDepth
			resp.QueueCap = be.QueueCap
			resp.RetryAfterMs = float64(be.RetryAfter.Nanoseconds()) / 1e6
			// Retry-After is whole seconds; round up so the hint is never
			// an immediate retry into the same full queue.
			w.Header().Set("Retry-After", fmt.Sprintf("%d", int(math.Ceil(be.RetryAfter.Seconds()))))
		}
		writeJSON(w, http.StatusTooManyRequests, resp)
	default:
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
	}
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.pool.Metrics()
	w.Header().Set("Content-Type", "application/jsonl")
	if err := obs.WriteServingMetricsJSONL(w, &snap); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	}
}

func (s *server) handleInfo(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.info)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sttsvserve:", err)
	os.Exit(1)
}

func main() {
	addr := flag.String("addr", ":8347", "listen address")
	q := flag.Int("q", 3, "prime power for the spherical tetrahedral partition")
	b := flag.Int("b", 4, "block edge (n = m·b)")
	seed := flag.Int64("seed", 1, "tensor random seed")
	wiring := flag.String("wiring", "p2p", "exchange wiring: p2p or alltoall")
	sessions := flag.Int("sessions", 2, "pool size: resident sessions sharing the packed tensor")
	maxCols := flag.Int("maxcols", 8, "size flush trigger: columns per coalesced batch")
	maxWait := flag.Duration("maxwait", 2*time.Millisecond, "latency flush trigger: max batching delay for the oldest queued request")
	queueCap := flag.Int("queue", 0, "admission queue bound (0 = 4 × sessions × maxcols)")
	metricsOut := flag.String("metrics", "", "append the final serving metrics snapshot as JSONL to this file on shutdown")
	metricsInterval := flag.Duration("metrics-interval", 0, "with -metrics: additionally append a snapshot every interval while serving (JSONL, obs serving schema)")
	workload := flag.String("workload", "dense", "served operator: dense (random tensor), hypergraph (sparse sessions over a random 3-uniform adjacency tensor), or cp (factored rank-r low-rank operator)")
	nFlag := flag.Int("n", 0, "with -workload hypergraph|cp: problem dimension (block edge is derived; 0 = m·b from -q/-b)")
	edges := flag.Int("edges", 0, "with -workload hypergraph: hyperedge count (0 = 10·n)")
	cpRank := flag.Int("rank", 16, "with -workload cp: CP rank r")
	cpRanks := flag.Int("cpranks", 8, "with -workload cp: parallel ranks per session")
	backend := backendflag.Register(flag.CommandLine)
	flag.Parse()
	if err := backend.Validate(false); err != nil {
		fatal(err)
	}
	if *metricsInterval > 0 && *metricsOut == "" {
		fatal(fmt.Errorf("-metrics-interval requires -metrics"))
	}

	part, err := partition.NewSpherical(*q)
	if err != nil {
		fatal(err)
	}
	wr := parallel.WiringP2P
	switch *wiring {
	case "p2p":
	case "alltoall":
		wr = parallel.WiringAllToAll
	default:
		fatal(fmt.Errorf("unknown wiring %q", *wiring))
	}
	n := part.M * *b
	if *nFlag > 0 {
		if *workload == "dense" {
			fatal(fmt.Errorf("-n applies to -workload hypergraph|cp only (dense: n = m·b)"))
		}
		n = *nFlag
		// Derive the block edge covering n on the chosen partition.
		*b = (n + part.M - 1) / part.M
	}
	if *queueCap < 1 {
		*queueCap = 4 * *sessions * *maxCols // mirror the pool default so /v1/info reports the effective bound
	}

	sessOpts := parallel.Options{Part: part, B: *b, Wiring: wr}
	backend.Apply(&sessOpts.Machine)
	poolOpts := serve.Options{
		Session:  sessOpts,
		Sessions: *sessions,
		MaxCols:  *maxCols,
		MaxWait:  *maxWait,
		QueueCap: *queueCap,
	}
	info := infoResponse{
		N: n, Q: *q, P: part.P, B: *b, Wiring: *wiring,
		Sessions: *sessions, MaxCols: *maxCols,
		MaxWaitUs: float64(maxWait.Nanoseconds()) / 1e3,
		QueueCap:  *queueCap,
		Workload:  *workload,
	}
	var pool *serve.Pool
	switch *workload {
	case "dense":
		rng := rand.New(rand.NewSource(*seed))
		pool, err = serve.Open(tensor.Random(n, rng), poolOpts)
	case "hypergraph":
		e := *edges
		if e < 1 {
			e = 10 * n
		}
		var sp *sparse.Tensor
		sp, err = sparse.RandomHypergraph(n, e, *seed)
		if err != nil {
			fatal(err)
		}
		info.NNZ = sp.NNZ()
		pool, err = serve.OpenSparse(sp, poolOpts)
	case "cp":
		rng := rand.New(rand.NewSource(*seed))
		weights := make([]float64, *cpRank)
		vectors := make([][]float64, *cpRank)
		for k := range vectors {
			weights[k] = rng.NormFloat64()
			v := make([]float64, n)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			vectors[k] = v
		}
		var op *sttsv.CPOperator
		op, err = sttsv.NewCPOperator(weights, vectors)
		if err != nil {
			fatal(err)
		}
		info.Rank = *cpRank
		info.P = *cpRanks
		pool, err = serve.OpenCP(op, *cpRanks, poolOpts)
	default:
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if err != nil {
		fatal(err)
	}

	srv := &server{pool: pool, info: info}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/apply", srv.handleApply)
	mux.HandleFunc("/v1/metrics", srv.handleMetrics)
	mux.HandleFunc("/v1/info", srv.handleInfo)
	hs := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-stop
		fmt.Println("sttsvserve: draining")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = hs.Shutdown(ctx)
	}()

	// Periodic metrics appender: one snapshot per interval, same JSONL
	// schema as the shutdown export and /v1/metrics, so a scraper or a
	// post-mortem reads one stream. Stops with the HTTP server.
	tickerDone := make(chan struct{})
	if *metricsInterval > 0 {
		go func() {
			defer close(tickerDone)
			t := time.NewTicker(*metricsInterval)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					snap := pool.Metrics()
					if err := appendMetrics(*metricsOut, &snap); err != nil {
						fmt.Fprintln(os.Stderr, "sttsvserve: metrics append:", err)
					}
				}
			}
		}()
	} else {
		close(tickerDone)
	}

	switch *workload {
	case "cp":
		fmt.Printf("sttsvserve: cp n=%d r=%d (P=%d), %d sessions, batch ≤%d cols / %v, listening on %s\n",
			n, *cpRank, *cpRanks, *sessions, *maxCols, *maxWait, *addr)
	case "hypergraph":
		fmt.Printf("sttsvserve: hypergraph n=%d nnz=%d (q=%d, P=%d, b=%d, %s), %d sessions, batch ≤%d cols / %v, listening on %s\n",
			n, info.NNZ, *q, part.P, *b, *wiring, *sessions, *maxCols, *maxWait, *addr)
	default:
		fmt.Printf("sttsvserve: n=%d (q=%d, P=%d, b=%d, %s), %d sessions, batch ≤%d cols / %v, listening on %s\n",
			n, *q, part.P, *b, *wiring, *sessions, *maxCols, *maxWait, *addr)
	}
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-done

	if err := pool.Close(); err != nil {
		fatal(err)
	}
	snap := pool.Metrics()
	fmt.Printf("sttsvserve: served %d requests in %d batches (avg occupancy %.2f, %d rejected)\n",
		snap.Requests, snap.Batches, snap.AvgOccupancy, snap.Rejected)
	<-tickerDone
	if *metricsOut != "" {
		if err := appendMetrics(*metricsOut, &snap); err != nil {
			fatal(err)
		}
		fmt.Printf("sttsvserve: metrics appended to %s\n", *metricsOut)
	}
}

// appendMetrics appends one serving snapshot to path as a JSONL line
// (obs serving schema) — the shared sink of the interval ticker, the
// shutdown export, and manual scrapes of /v1/metrics.
func appendMetrics(path string, snap *obs.ServingSnapshot) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := obs.WriteServingMetricsJSONL(f, snap); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

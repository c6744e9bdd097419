package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ballarus/internal/dynpred"
	"ballarus/internal/profile"
	"ballarus/internal/resilience"
	"ballarus/internal/service"
)

// predictRequest is the POST /v1/predict body.
type predictRequest struct {
	// Exactly one of Source (minic source text) or Benchmark (suite
	// benchmark name) must be set.
	Source    string `json:"source,omitempty"`
	Benchmark string `json:"benchmark,omitempty"`
	Dataset   int    `json:"dataset,omitempty"`
	// Order is a heuristic priority order like
	// "Point+Call+Opcode+Return+Store+Loop+Guard"; empty means the
	// paper's default.
	Order    string  `json:"order,omitempty"`
	Optimize bool    `json:"optimize,omitempty"`
	Input    []int64 `json:"input,omitempty"`
	Budget   int64   `json:"budget,omitempty"`
	Seed     int64   `json:"seed,omitempty"`
	// IncludeOutput echoes the program's stdout in the response.
	IncludeOutput bool `json:"include_output,omitempty"`
}

// rateJSON mirrors profile.Rate with explicit field names.
type rateJSON struct {
	MissPct    float64 `json:"miss_pct"`
	PerfectPct float64 `json:"perfect_pct"`
	Dynamic    int64   `json:"dynamic"`
	Display    string  `json:"display"` // the paper's "26/10" notation
}

func toRate(r profile.Rate) rateJSON {
	return rateJSON{MissPct: r.Pred, PerfectPct: r.Perfect, Dynamic: r.Dyn, Display: r.String()}
}

// predictResponse is the POST /v1/predict reply.
type predictResponse struct {
	Name            string   `json:"name"`
	StaticBranches  int      `json:"static_branches"`
	DynamicBranches int64    `json:"dynamic_branches"`
	Steps           int64    `json:"steps"`
	ExitCode        int64    `json:"exit_code"`
	Heuristic       rateJSON `json:"heuristic"`
	Vote            rateJSON `json:"vote"`
	LoopRand        rateJSON `json:"loop_rand"`
	BTFNT           rateJSON `json:"btfnt"`
	ProgramCached   bool     `json:"program_cached"`
	AnalysisCached  bool     `json:"analysis_cached"`
	RunCached       bool     `json:"run_cached"`
	ElapsedMillis   float64  `json:"elapsed_ms"`
	Output          string   `json:"output,omitempty"`
}

// compareRequest is the POST /v1/compare body: the predict inputs plus
// the tournament's dynamic backend selection.
type compareRequest struct {
	Source    string  `json:"source,omitempty"`
	Benchmark string  `json:"benchmark,omitempty"`
	Dataset   int     `json:"dataset,omitempty"`
	Order     string  `json:"order,omitempty"`
	Optimize  bool    `json:"optimize,omitempty"`
	Input     []int64 `json:"input,omitempty"`
	Budget    int64   `json:"budget,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	// Predictors names the dynamic backends to race (dynpred registry
	// names, e.g. "gshare"); empty means every registered backend.
	Predictors []string `json:"predictors,omitempty"`
	// H2PMinExecuted overrides the minimum executions a branch needs to
	// be classified hard-to-predict (0 = default, 32).
	H2PMinExecuted int64 `json:"h2p_min_executed,omitempty"`
	// IncludePerBranch echoes each entrant's per-branch tallies; off by
	// default because the arrays scale with the program's branch count.
	IncludePerBranch bool `json:"include_per_branch,omitempty"`
}

// compareResponse is the POST /v1/compare reply.
type compareResponse struct {
	Name            string `json:"name"`
	StaticBranches  int    `json:"static_branches"`
	DynamicBranches int64  `json:"dynamic_branches"`
	Steps           int64  `json:"steps"`
	// Predictors scores every entrant — "ballarus-heuristics" and
	// "perfect" plus each requested dynamic backend — sorted by name.
	Predictors []service.PredictorScore `json:"predictors"`
	// H2P lists the hard-to-predict branches by verdict: static_beaten
	// (defeat the heuristics, fall to history) and history_beaten (the
	// converse).
	H2P            dynpred.H2P `json:"h2p"`
	ProgramCached  bool        `json:"program_cached"`
	AnalysisCached bool        `json:"analysis_cached"`
	CompareCached  bool        `json:"compare_cached"`
	ElapsedMillis  float64     `json:"elapsed_ms"`
}

// errorResponse is the JSON body of every non-2xx reply.
type errorResponse struct {
	Error string `json:"error"`
	// Code is the machine-readable taxonomy kind: invalid_input,
	// resource_exhausted, overload, timeout, client_canceled, internal.
	Code string `json:"code"`
}

type server struct {
	svc     *service.Service
	maxBody int64
	// batchMax bounds POST /v1/batch item counts.
	batchMax   int
	instanceID string
	// draining flips once at shutdown: new API requests are refused
	// with 503 + Connection: close so load balancers fail this replica
	// fast while in-flight work finishes.
	draining atomic.Bool
}

// newServer builds the blserve server over a prediction service.
func newServer(svc *service.Service) *server {
	return &server{svc: svc, maxBody: 4 << 20, batchMax: defaultBatchMax}
}

// handler builds the HTTP API, wrapped in the tracing/metrics
// middleware. admin additionally exposes the /debug chaos endpoints
// (fault injection, snapshot triggering) and net/http/pprof profiling —
// only ever enable it for harness-driven test processes or trusted
// operator ports.
func (s *server) handler(admin bool) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("POST /v1/compare", s.handleCompare)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	if admin {
		mux.HandleFunc("POST /debug/fault", s.handleFault)
		mux.HandleFunc("POST /debug/clearfaults", s.handleClearFaults)
		mux.HandleFunc("POST /debug/snapshot", s.handleSnapshot)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.instrument(s.drainGate(s.withDeadline(s.withTenant(mux))))
}

// startDraining begins refusing new API requests. Idempotent.
func (s *server) startDraining() {
	s.draining.Store(true)
}

// drainGate refuses new requests with 503 + Connection: close once the
// server is draining. Observability stays up — /metrics and the /debug
// endpoints keep answering so operators can watch the drain — but the
// API surface (including /healthz, deliberately, so gateway probes
// mark this replica down immediately) goes dark.
func (s *server) drainGate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() && r.URL.Path != "/metrics" && !strings.HasPrefix(r.URL.Path, "/debug/") {
			w.Header().Set("Connection", "close")
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusServiceUnavailable, "draining",
				errors.New("server is draining; connection will be closed"))
			return
		}
		next.ServeHTTP(w, r)
	})
}

// withDeadline stamps every response with this replica's identity and
// honors the X-Deadline-Ms request header: the client's remaining
// deadline, in milliseconds, relative to arrival. The bound context
// flows through the service into interp.Config.Interrupt, so an
// expired deadline actually stops interpreter work instead of merely
// abandoning it.
func (s *server) withDeadline(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.instanceID != "" {
			w.Header().Set("X-Instance-Id", s.instanceID)
		}
		if h := r.Header.Get("X-Deadline-Ms"); h != "" {
			ms, err := strconv.ParseInt(h, 10, 64)
			if err != nil || ms <= 0 {
				httpError(w, http.StatusBadRequest, "invalid_input",
					fmt.Errorf("bad X-Deadline-Ms %q: want a positive integer", h))
				return
			}
			ctx, cancel := context.WithTimeout(r.Context(), time.Duration(ms)*time.Millisecond)
			defer cancel()
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(w, r)
	})
}

// handlePredict serves the Ball-Larus prediction pipeline. Identical
// requests are deduplicated and cached inside the service; shed
// requests surface as 429 for the gateway to retry or answer from its
// brownout cache.
func (s *server) handlePredict(w http.ResponseWriter, r *http.Request) {
	var req predictRequest
	if !s.decode(w, r, &req) {
		return
	}
	preq, err := toPredictReq(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid_input", err)
		return
	}
	res, err := s.svc.Predict(r.Context(), preq)
	if err != nil {
		serviceError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, toPredictResp(res, req.IncludeOutput))
}

// handleCompare serves the static-vs-dynamic tournament, cached and
// shed exactly like handlePredict.
func (s *server) handleCompare(w http.ResponseWriter, r *http.Request) {
	var req compareRequest
	if !s.decode(w, r, &req) {
		return
	}
	creq, err := toCompareReq(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid_input", err)
		return
	}
	res, err := s.svc.Compare(r.Context(), creq)
	if err != nil {
		serviceError(w, r, err)
		return
	}
	writeJSON(w, http.StatusOK, toCompareResp(res, req.IncludePerBranch))
}

// decode reads a size-capped JSON request body into v, rejecting
// unknown fields; on failure it has already answered 400.
func (s *server) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "invalid_input", fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// serviceError answers a failed service call with its documented
// status. A quota rejection carries the tenant's backoff headers;
// shed load and timeouts carry a generic Retry-After.
func serviceError(w http.ResponseWriter, r *http.Request, err error) {
	status, code := statusFor(r, err)
	if !setQuotaHeaders(w, err) &&
		(status == http.StatusTooManyRequests || status == http.StatusGatewayTimeout) {
		w.Header().Set("Retry-After", "1")
	}
	httpError(w, status, code, err)
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.svc.Stats())
}

func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// statusFor maps a classified pipeline error to its documented HTTP
// status and machine-readable code (see docs/API.md):
//
//	400 invalid_input       the request is at fault
//	408 client_canceled     the client went away mid-request
//	422 resource_exhausted  the instruction budget was blown
//	429 quota_exceeded      THIS tenant is over its rate/concurrency
//	                        quota (X-RateLimit-* headers attached)
//	429 overload            shed load: full queue, or a tenant over its
//	                        fair share under saturation
//	504 timeout             the server-side deadline expired
//	500 internal            bugs and recovered panics
func statusFor(r *http.Request, err error) (int, string) {
	switch {
	case r.Context().Err() != nil && errors.Is(err, context.Canceled):
		return http.StatusRequestTimeout, "client_canceled"
	case errors.Is(err, resilience.ErrInvalidInput):
		return http.StatusBadRequest, "invalid_input"
	case errors.Is(err, resilience.ErrResourceExhausted):
		return http.StatusUnprocessableEntity, "resource_exhausted"
	case errors.Is(err, resilience.ErrQuotaExceeded):
		return http.StatusTooManyRequests, "quota_exceeded"
	case errors.Is(err, resilience.ErrOverload):
		return http.StatusTooManyRequests, "overload"
	case errors.Is(err, resilience.ErrTimeout):
		return http.StatusGatewayTimeout, "timeout"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error(), Code: code})
}

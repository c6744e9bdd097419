package main

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ballarus/internal/obs"
)

// endpointLabel maps a request path to a fixed metric label, keeping
// label cardinality bounded no matter what clients probe.
func endpointLabel(r *http.Request) string {
	switch {
	case r.URL.Path == "/v1/predict":
		return "predict"
	case r.URL.Path == "/v1/compare":
		return "compare"
	case r.URL.Path == "/v1/batch":
		return "batch"
	case r.URL.Path == "/v1/stats":
		return "stats"
	case r.URL.Path == "/healthz":
		return "healthz"
	case r.URL.Path == "/metrics":
		return "metrics"
	case strings.HasPrefix(r.URL.Path, "/debug/"):
		return "debug"
	default:
		return "other"
	}
}

// statusRecorder captures the response status for metrics and traces.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

// instrument wraps the API with the observability boundary: a trace per
// request (ID echoed in X-Trace-Id, spans collected downstream in the
// service), an HTTP request counter by endpoint and status code, and a
// per-endpoint latency histogram whose buckets carry trace-ID
// exemplars. An incoming Traceparent header (stamped by the gateway's
// attempt spans) makes this process's trace a child of the remote span,
// so GET /v1/trace/{id} on the gateway can stitch the hops back
// together.
func (s *server) instrument(next http.Handler) http.Handler {
	reg := s.svc.Metrics()
	tracer := s.svc.Tracer()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ep := endpointLabel(r)
		rctx := r.Context()
		if sc, ok := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader)); ok {
			rctx = obs.ContextWithRemote(rctx, sc)
		}
		ctx, act := tracer.Start(rctx, ep)
		if id := act.ID(); id != "" {
			w.Header().Set("X-Trace-Id", id)
		}
		if kind := r.Header.Get("X-Attempt-Kind"); kind != "" {
			act.Attr("attempt", kind)
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(rec, r.WithContext(ctx))
		elapsed := time.Since(start)

		code := strconv.Itoa(rec.status)
		act.Attr("method", r.Method)
		act.Attr("path", r.URL.Path)
		act.Attr("code", code)
		var traceErr error
		if rec.status >= http.StatusInternalServerError {
			traceErr = fmt.Errorf("http %s", code)
		}
		act.End(traceErr)
		reg.Counter("ballarus_http_requests_total",
			"HTTP requests by endpoint and status code.",
			"endpoint", ep, "code", code).Inc()
		reg.Histogram("ballarus_http_request_duration_seconds",
			"HTTP request latency by endpoint.",
			obs.DurationBuckets, "endpoint", ep).ObserveDurationExemplar(elapsed, act.ID())
	})
}

// handleMetrics serves the Prometheus text exposition.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.svc.Metrics().WritePrometheus(w)
}

// handleTraces serves the tracer's ring buffer and the tail-sampled
// archive: ?id= returns every collection of one trace (what the
// gateway's assembly fan-out calls), ?slowest=N the worst archived
// traces, and ?last=N (default 32, clamped to the ring capacity) the
// most recent. Malformed numeric parameters are a 400.
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	traces, err := obs.QueryTraces(s.svc.Tracer(), s.archive, q.Get("id"), q.Get("last"), q.Get("slowest"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid_input", err)
		return
	}
	if traces == nil {
		traces = []*obs.Trace{}
	}
	writeJSON(w, http.StatusOK, traces)
}

package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ballarus/internal/obs"
)

// upstream is one attempt's outcome: either a transport error or a
// relayable response.
type upstream struct {
	status int
	header http.Header
	body   []byte
	err    error
	rep    *replica
	kind   string
}

// ok reports whether this outcome ends the request. 5xx and
// global-overload 429s are retryable (another replica may be healthy
// or have capacity); other 4xx are the client's problem on every
// replica, so they pass through. Per-tenant quota 429s — marked by
// blserve with X-RateLimit-Limit — are terminal too: every replica
// enforces the same quota, the rejection is deterministic for the
// tenant, and retrying or hedging it only amplifies the overage.
func (u upstream) ok() bool {
	if u.err != nil {
		return false
	}
	if u.status == http.StatusTooManyRequests {
		return u.quota()
	}
	return u.status < 500
}

// quota reports whether this outcome is a per-tenant quota rejection.
func (u upstream) quota() bool {
	return u.status == http.StatusTooManyRequests && u.header.Get("X-RateLimit-Limit") != ""
}

// Handler returns the gateway's HTTP API:
//
//	POST /v1/predict     hedged, budgeted, deadline-bounded proxying
//	POST /v1/compare     same treatment — the tournament is idempotent
//	POST /v1/batch       same treatment — batches are per-item idempotent
//	GET  /v1/stats       passthrough to one routable replica
//	GET  /v1/trace/{id}  assembled cross-process trace (gateway + replicas)
//	GET  /v1/trace/slowest  worst archived traces by duration
//	GET  /debug/traces   the gateway's own trace ring/archive
//	GET  /healthz        gateway health: 200 while ≥1 replica routable
//	GET  /gateway/stats  cluster state: per-replica health, budget, cache
//	GET  /metrics        Prometheus exposition of the gateway metrics
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/predict", g.handleProxy)
	mux.HandleFunc("POST /v1/compare", g.handleProxy)
	mux.HandleFunc("POST /v1/batch", g.handleProxy)
	mux.HandleFunc("GET /v1/stats", g.handlePassthrough)
	mux.HandleFunc("GET /v1/trace/slowest", g.handleTraceSlowest)
	mux.HandleFunc("GET /v1/trace/{id}", g.handleTraceGet)
	mux.HandleFunc("GET /debug/traces", g.handleDebugTraces)
	mux.HandleFunc("GET /healthz", g.handleHealth)
	mux.HandleFunc("GET /gateway/stats", g.handleStats)
	mux.HandleFunc("GET /metrics", g.metrics.handleMetrics)
	return mux
}

// handleProxy serves every idempotent POST route with the full
// resilience treatment: hedged attempts, retry budget, deadline
// propagation, and the brownout stale cache. The mux guarantees
// r.URL.Path is one of the registered routes, which the replicas all
// serve.
func (g *Gateway) handleProxy(w http.ResponseWriter, r *http.Request) {
	rctx := r.Context()
	if sc, ok := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader)); ok {
		rctx = obs.ContextWithRemote(rctx, sc)
	}
	rctx, act := g.tracer.Start(rctx, r.URL.Path)
	w.Header().Set("X-Trace-Id", act.ID())
	outcome := func(class string, err error) {
		g.metrics.requests[class].Inc()
		act.Attr("outcome", class)
		act.End(err)
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, g.cfg.MaxBody))
	if err != nil {
		outcome("client_error", err)
		gatewayError(w, http.StatusBadRequest, "invalid_input", fmt.Errorf("bad request body: %w", err))
		return
	}
	timeout := g.cfg.Timeout
	if h := r.Header.Get("X-Deadline-Ms"); h != "" {
		ms, err := strconv.ParseInt(h, 10, 64)
		if err != nil || ms <= 0 {
			outcome("client_error", err)
			gatewayError(w, http.StatusBadRequest, "invalid_input",
				fmt.Errorf("bad X-Deadline-Ms %q: want a positive integer", h))
			return
		}
		timeout = time.Duration(ms) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(rctx, timeout)
	defer cancel()

	// The canonical content key doubles as the brownout cache key and
	// the rendezvous routing key, so equivalent request bodies land on
	// (and warm) the same replica.
	key := staleKey(r.URL.Path, body)
	res := g.do(ctx, proxyReq{
		path:   r.URL.Path,
		body:   body,
		tenant: r.Header.Get("X-Tenant-Id"),
		key:    key,
	})
	if res.ok() {
		switch {
		case res.status == http.StatusOK:
			g.stale.put(key, res.body)
			outcome("ok", nil)
		case res.quota():
			// A quota 429 passes through verbatim — Retry-After and the
			// X-RateLimit-* headers are the tenant's backoff contract —
			// and is never masked by a stale brownout answer.
			outcome("quota", nil)
		default:
			outcome("client_error", nil)
		}
		relay(w, res)
		return
	}

	// Brownout: every option is exhausted, but a stale answer for the
	// identical request beats an error the client has to handle.
	if stale, hit := g.stale.get(key); hit {
		outcome("degraded", res.err)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(stale)
		return
	}

	w.Header().Set("Retry-After", "1")
	switch {
	case res.err != nil && errors.Is(ctx.Err(), context.DeadlineExceeded):
		outcome("timeout", fmt.Errorf("deadline expired before any replica answered"))
		gatewayError(w, http.StatusGatewayTimeout, "timeout",
			fmt.Errorf("deadline expired before any replica answered"))
	case res.err != nil:
		outcome("upstream_error", res.err)
		gatewayError(w, http.StatusBadGateway, "upstream_error",
			fmt.Errorf("no replica produced a response: %w", res.err))
	case res.status == http.StatusTooManyRequests || res.status == http.StatusServiceUnavailable:
		outcome("no_capacity", fmt.Errorf("replica %s: status %d", res.rep.id, res.status))
		relayError(w, res, "overload")
	default:
		outcome("upstream_error", fmt.Errorf("replica %s: status %d", res.rep.id, res.status))
		relayError(w, res, "upstream_error")
	}
}

// proxyReq bundles what one proxied request carries upstream: the
// route, the body, the propagated tenant identity, and the canonical
// content key the routing policy shards on.
type proxyReq struct {
	path   string
	body   []byte
	tenant string
	key    string
}

// do runs the hedged attempt loop: a primary immediately, one hedge
// after the latency-quantile delay, and budgeted retries as failures
// come back, all bounded by MaxAttempts and ctx. A retry launches only
// while more of ctx's deadline remains than that delay: one launched
// later could not finish and would only spend a budget token. The first
// ok outcome wins; every other attempt is canceled through its context
// when do returns.
func (g *Gateway) do(ctx context.Context, pr proxyReq) upstream {
	results := make(chan upstream, g.cfg.MaxAttempts)
	tried := map[*replica]bool{}
	var cancels []context.CancelFunc
	defer func() {
		for _, c := range cancels {
			c()
		}
	}()

	delay := g.latency.delay()
	launched, outstanding := 0, 0
	// drain cancels the losers and waits for their attempt goroutines
	// to finish. Each attempt closes its span before sending its
	// result, so after drain the request trace holds every attempt —
	// including losers with status "canceled" — before the handler ends
	// it. Canceled attempts unwind immediately (the transport aborts),
	// so this does not hold the winning response back.
	drain := func() {
		for _, c := range cancels {
			c()
		}
		for outstanding > 0 {
			<-results
			outstanding--
		}
	}
	launch := func(kind string) bool {
		if launched >= g.cfg.MaxAttempts {
			return false
		}
		if dl, ok := ctx.Deadline(); ok && kind == attemptRetry && time.Until(dl) <= delay {
			return false
		}
		rep := g.pick(pr.key, tried)
		if rep == nil {
			return false
		}
		if kind != attemptPrimary && !g.budget.take() {
			g.metrics.retryDenied.Inc()
			return false
		}
		if kind == attemptPrimary {
			g.budget.deposit()
		}
		tried[rep] = true
		launched++
		outstanding++
		g.metrics.attempts[kind].Inc()
		if kind == attemptHedge {
			obs.ActiveFrom(ctx).Attr("hedged", "true")
		}
		actx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		sp := obs.StartSpan(ctx, "attempt."+kind).Attr("replica", rep.id)
		go g.attempt(actx, rep, kind, sp, pr, results)
		return true
	}

	launch(attemptPrimary) // a primary needs no token and pick never fails on the first try
	hedge := time.NewTimer(delay)
	defer hedge.Stop()
	hedged := false

	last := upstream{err: fmt.Errorf("no attempt completed")}
	for {
		select {
		case <-ctx.Done():
			drain()
			return upstream{err: ctx.Err()}
		case <-hedge.C:
			if !hedged && outstanding > 0 {
				hedged = true
				launch(attemptHedge)
			}
		case res := <-results:
			outstanding--
			if res.ok() {
				if res.kind == attemptHedge {
					g.metrics.hedgeWins.Inc()
				}
				drain()
				return res
			}
			last = res
			if launch(attemptRetry) {
				continue
			}
			if outstanding == 0 {
				return last
			}
		}
	}
}

// attempt proxies one upstream try. The buffered results channel means
// an abandoned attempt's send never blocks, so losers exit as soon as
// their canceled request unwinds. sp is the attempt's span: its span ID
// rides the outgoing Traceparent header so the replica's trace parents
// here, and a loser canceled through ctx closes it with status
// "canceled" rather than "error".
func (g *Gateway) attempt(ctx context.Context, rep *replica, kind string, sp *obs.Span, pr proxyReq, results chan<- upstream) {
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	start := time.Now()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.base.String()+pr.path, bytes.NewReader(pr.body))
	if err != nil {
		sp.End(err)
		results <- upstream{err: err, rep: rep, kind: kind}
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if sc := sp.SpanContext(); sc.Valid() {
		req.Header.Set(obs.TraceHeader, sc.Header())
	}
	req.Header.Set("X-Attempt-Kind", kind)
	if pr.tenant != "" {
		req.Header.Set("X-Tenant-Id", pr.tenant)
	}
	if dl, ok := ctx.Deadline(); ok {
		ms := time.Until(dl).Milliseconds()
		if ms < 1 {
			ms = 1
		}
		req.Header.Set("X-Deadline-Ms", strconv.FormatInt(ms, 10))
	}

	resp, err := g.client.Do(req)
	if err != nil {
		// Only failures the gateway did not cause itself count toward
		// ejection: a canceled hedge loser says nothing about replica
		// health.
		if cerr := ctx.Err(); cerr != nil {
			sp.End(cerr)
		} else {
			g.noteFailure(rep)
			sp.End(err)
		}
		results <- upstream{err: err, rep: rep, kind: kind}
		return
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, g.cfg.MaxBody))
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			sp.End(cerr)
		} else {
			g.noteFailure(rep)
			sp.End(err)
		}
		results <- upstream{err: fmt.Errorf("reading %s response: %w", rep.id, err), rep: rep, kind: kind}
		return
	}
	sp.Attr("status", strconv.Itoa(resp.StatusCode))
	switch {
	case resp.StatusCode == http.StatusGatewayTimeout:
		// The replica ran out of the deadline this gateway propagated:
		// that is the client's budget, not the replica's health, so it
		// is neither a failure (no ejection) nor a success.
		g.metrics.replicaErr[rep.id].Inc()
		sp.End(fmt.Errorf("replica %s: status %d", rep.id, resp.StatusCode))
	case resp.StatusCode >= 500:
		g.noteFailure(rep)
		sp.End(fmt.Errorf("replica %s: status %d", rep.id, resp.StatusCode))
	case resp.StatusCode == http.StatusTooManyRequests && resp.Header.Get("X-RateLimit-Limit") == "":
		// Global shedding is the replica protecting itself, not an
		// outlier signal: neither a failure (no ejection) nor a success
		// (no breaking of a real failure run).
		g.metrics.replicaErr[rep.id].Inc()
		sp.End(nil)
	default:
		// 2xx/4xx — including per-tenant quota 429s, which are a
		// healthy replica enforcing policy.
		g.noteSuccess(rep, time.Since(start), sp.SpanContext().TraceID)
		sp.End(nil)
	}
	results <- upstream{status: resp.StatusCode, header: resp.Header, body: b, rep: rep, kind: kind}
}

// noteSuccess records a successful attempt for routing, ejection, and
// metrics; traceID becomes the latency bucket's exemplar.
func (g *Gateway) noteSuccess(rep *replica, d time.Duration, traceID string) {
	rep.noteSuccess(time.Now())
	g.latency.observe(d)
	g.metrics.replicaOK[rep.id].Inc()
	g.metrics.replicaLatency[rep.id].ObserveDurationExemplar(d, traceID)
}

// noteFailure records a failed attempt and logs any resulting
// ejection.
func (g *Gateway) noteFailure(rep *replica) {
	g.metrics.replicaErr[rep.id].Inc()
	cool := rep.noteFailure(time.Now(), g.cfg.EjectAfter, g.cfg.EjectBase, g.cfg.EjectMax)
	if cool > 0 {
		g.metrics.ejections.Inc()
		g.cfg.Logger.Warn("replica ejected",
			slog.String("replica", rep.id),
			slog.String("url", rep.base.String()),
			slog.Duration("cooloff", cool))
	}
}

// relay writes an upstream response through to the client, preserving
// the headers clients key on.
func relay(w http.ResponseWriter, res upstream) {
	for _, h := range []string{
		"Content-Type", "X-Instance-Id", "X-Trace-Id", "Retry-After",
		"X-RateLimit-Limit", "X-RateLimit-Remaining", "X-RateLimit-Reset",
	} {
		if v := res.header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	if w.Header().Get("Content-Type") == "" {
		w.Header().Set("Content-Type", "application/json")
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// relayError passes a replica's terminal error response through.
// Replicas speak the JSON error schema; anything else (a proxy in the
// middle, a fake in tests) is wrapped so clients always see one shape.
func relayError(w http.ResponseWriter, res upstream, code string) {
	if strings.Contains(res.header.Get("Content-Type"), "application/json") {
		relay(w, res)
		return
	}
	gatewayError(w, res.status, code,
		fmt.Errorf("replica %s: %s", res.rep.id, strings.TrimSpace(string(res.body))))
}

// handlePassthrough proxies a read-only endpoint to one routable
// replica.
func (g *Gateway) handlePassthrough(w http.ResponseWriter, r *http.Request) {
	rep := g.pick("", nil)
	if rep == nil {
		gatewayError(w, http.StatusServiceUnavailable, "no_replicas", fmt.Errorf("no replicas configured"))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.ProbeTimeout*4)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.base.String()+r.URL.Path, nil)
	if err != nil {
		gatewayError(w, http.StatusInternalServerError, "internal", err)
		return
	}
	resp, err := g.client.Do(req)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		gatewayError(w, http.StatusBadGateway, "upstream_error", err)
		return
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(io.LimitReader(resp.Body, g.cfg.MaxBody))
	relay(w, upstream{status: resp.StatusCode, header: resp.Header, body: b})
}

func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	n := g.healthyCount()
	status := http.StatusOK
	if n == 0 {
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]any{"status": map[bool]string{true: "ok", false: "degraded"}[n > 0], "healthy_replicas": n})
}

// gatewayStats is the GET /gateway/stats body.
type gatewayStats struct {
	Routing         string         `json:"routing"`
	Replicas        []replicaStats `json:"replicas"`
	HealthyReplicas int            `json:"healthy_replicas"`
	BudgetTokens    float64        `json:"retry_budget_tokens"`
	HedgeFires      int64          `json:"hedge_fires"`
	HedgeWins       int64          `json:"hedge_wins"`
	StaleServed     int64          `json:"stale_served"`
	StaleEntries    int            `json:"stale_entries"`
}

// Stats snapshots the cluster state.
func (g *Gateway) Stats() gatewayStats {
	now := time.Now()
	st := gatewayStats{
		Routing:         g.routing.Name(),
		HealthyReplicas: g.healthyCount(),
		BudgetTokens:    g.budget.level(),
		HedgeFires:      g.metrics.attempts[attemptHedge].Value(),
		HedgeWins:       g.metrics.hedgeWins.Value(),
		StaleServed:     g.metrics.requests["degraded"].Value(),
		StaleEntries:    g.stale.len(),
	}
	for _, rep := range g.replicas {
		st.Replicas = append(st.Replicas, rep.stats(now))
	}
	return st
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, g.Stats())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// gatewayError mirrors blserve's error body shape, so clients see one
// error schema whether the gateway or a replica answered.
func gatewayError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error(), "code": code})
}

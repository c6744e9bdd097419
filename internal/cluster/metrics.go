package cluster

import (
	"net/http"
	"time"

	"ballarus/internal/obs"
)

// metrics is the gateway's observability surface, exposed at /metrics
// in the Prometheus text format via the shared obs registry.
type metrics struct {
	reg *obs.Registry

	requests          map[string]*obs.Counter // by outcome class
	attempts          map[string]*obs.Counter // by attempt kind
	hedgeWins         *obs.Counter
	retryDenied       *obs.Counter
	probes            *obs.Counter
	healthTransitions *obs.Counter
	ejections         *obs.Counter

	replicaLatency map[string]*obs.Histogram
	replicaOK      map[string]*obs.Counter
	replicaErr     map[string]*obs.Counter
}

// attempt kinds.
const (
	attemptPrimary = "primary"
	attemptHedge   = "hedge"
	attemptRetry   = "retry"
)

func newMetrics(g *Gateway) *metrics {
	r := obs.NewRegistry()
	m := &metrics{
		reg:            r,
		requests:       map[string]*obs.Counter{},
		attempts:       map[string]*obs.Counter{},
		replicaLatency: map[string]*obs.Histogram{},
		replicaOK:      map[string]*obs.Counter{},
		replicaErr:     map[string]*obs.Counter{},
	}
	for _, outcome := range []string{"ok", "degraded", "client_error", "upstream_error", "timeout", "no_capacity", "quota"} {
		m.requests[outcome] = r.Counter("ballarus_gateway_requests_total",
			"Client requests by final outcome.", "outcome", outcome)
	}
	for _, kind := range []string{attemptPrimary, attemptHedge, attemptRetry} {
		m.attempts[kind] = r.Counter("ballarus_gateway_attempts_total",
			"Upstream attempts by kind.", "kind", kind)
	}
	m.hedgeWins = r.Counter("ballarus_gateway_hedge_wins_total",
		"Requests whose winning response came from a hedge attempt.")
	m.retryDenied = r.Counter("ballarus_gateway_retry_budget_denied_total",
		"Retries or hedges suppressed by an exhausted retry budget.")
	m.probes = r.Counter("ballarus_gateway_probes_total",
		"Active health probes performed.")
	m.healthTransitions = r.Counter("ballarus_gateway_health_transitions_total",
		"Replica healthy/unhealthy state changes from active probing.")
	m.ejections = r.Counter("ballarus_gateway_ejections_total",
		"Passive outlier ejections from consecutive live-traffic failures.")

	r.GaugeFunc("ballarus_gateway_retry_budget_tokens",
		"Retry-budget tokens currently banked.", g.budget.level)
	r.GaugeFunc("ballarus_gateway_healthy_replicas",
		"Replicas currently routable (probe-healthy and not ejected).",
		func() float64 { return float64(g.healthyCount()) })
	r.GaugeFunc("ballarus_gateway_stale_entries",
		"Entries in the brownout last-known-good cache.",
		func() float64 { return float64(g.stale.len()) })

	for _, rep := range g.replicas {
		rep := rep
		r.GaugeFunc("ballarus_gateway_replica_healthy",
			"Whether active probing considers the replica healthy (1/0).",
			func() float64 { return oneIf(rep.stats(time.Now()).Healthy) }, "replica", rep.id)
		r.GaugeFunc("ballarus_gateway_replica_ejected",
			"Whether the replica is inside a passive ejection cool-off (1/0).",
			func() float64 { return oneIf(rep.stats(time.Now()).Ejected) }, "replica", rep.id)
		r.GaugeFunc("ballarus_gateway_replica_inflight",
			"Attempts currently in flight to the replica.",
			func() float64 { return float64(rep.inflight.Load()) }, "replica", rep.id)
		m.replicaLatency[rep.id] = r.Histogram("ballarus_gateway_replica_latency_seconds",
			"Latency of successful attempts per replica.", obs.DurationBuckets, "replica", rep.id)
		m.replicaOK[rep.id] = r.Counter("ballarus_gateway_replica_requests_total",
			"Attempt outcomes per replica.", "replica", rep.id, "outcome", "ok")
		m.replicaErr[rep.id] = r.Counter("ballarus_gateway_replica_requests_total",
			"Attempt outcomes per replica.", "replica", rep.id, "outcome", "error")
	}
	g.tracer.Register(r)
	return m
}

func oneIf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// handleMetrics serves the gateway's Prometheus exposition.
func (m *metrics) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	m.reg.WritePrometheus(w)
}

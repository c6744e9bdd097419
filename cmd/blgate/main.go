// blgate fronts N blserve replicas with one reliable endpoint: active
// health checking plus passive outlier ejection keep traffic off sick
// replicas, hedged requests cut the tail latency of stalled ones, a
// token-bucket retry budget bounds the extra load retries and hedges
// may add, client deadlines propagate end-to-end via X-Deadline-Ms,
// and when every replica is down the gateway serves its last-known-
// good responses marked "degraded":true instead of failing.
//
// Usage:
//
//	blgate -replicas http://127.0.0.1:8723,http://127.0.0.1:8724 \
//	       [-addr :8722] [-timeout 30s] [-max-attempts 3]
//	       [-probe-every 1s] [-probe-timeout 500ms] [-rise 2] [-fall 2]
//	       [-eject-after 3] [-eject-base 1s] [-eject-max 30s]
//	       [-hedge-quantile 0.9] [-hedge-initial 50ms] [-hedge-min 5ms]
//	       [-retry-ratio 0.2] [-retry-burst 10] [-stale-cap 256]
//	       [-routing least-inflight] [-routing-seed 0]
//	       [-trace-archive 512] [-trace-sample 0.01]
//	       [-trace-slow 250ms]
//	       [-log-level info] [-log-format text]
//
// -routing rendezvous shards requests across replicas by their
// canonical content key (rendezvous hashing), so each replica's caches
// specialize on a stable slice of the key space; when a replica dies
// only its ~1/N of keys move, and they move back when it recovers.
// Per-tenant quota rejections from blserve -tenants (429 with
// X-RateLimit-Limit) pass through verbatim on the first attempt —
// hedging or retrying a deterministic quota rejection only amplifies
// it — while global-overload 429s are still retried elsewhere.
//
// Endpoints:
//
//	POST /v1/predict     hedged, budgeted, deadline-bounded proxying
//	POST /v1/compare     same treatment — the tournament is idempotent
//	POST /v1/batch       same treatment — batches are per-item idempotent
//	GET  /v1/stats       passthrough to one routable replica
//	GET  /healthz        200 while at least one replica is routable
//	GET  /gateway/stats  per-replica health, ejections, budget, cache
//	GET  /metrics        gateway Prometheus exposition
//	GET  /v1/trace/{id}  assemble one distributed trace: the gateway's
//	                     request and attempt spans merged with every
//	                     replica's stage spans into a parent-linked tree
//	GET  /v1/trace/slowest  worst archived traces by duration (?n=5)
//	GET  /debug/traces   the gateway's own trace ring and archive
//	                     (?last=N, ?id=, ?slowest=N)
//
// Every proxied request runs under a trace whose ID is echoed in
// X-Trace-Id; each attempt (primary, hedge, retry) gets a child span
// and stamps a Traceparent header so the replica's trace links back
// to it; an X-Trace-Id request header is ignored. The gateway's tracer
// keeps the recent traces and archives those that errored, hedged, or
// exceeded -trace-slow (-trace-archive entries), plus a deterministic
// -trace-sample fraction of the rest.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"ballarus/internal/cli"
	"ballarus/internal/cluster"
	"ballarus/internal/obs"
)

const version = "0.4.0"

func main() {
	addr := flag.String("addr", ":8722", "listen address (:0 picks a free port, printed on stderr)")
	replicas := flag.String("replicas", "", "comma-separated blserve base URLs (required)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request deadline when the client sends no X-Deadline-Ms")
	maxAttempts := flag.Int("max-attempts", 3, "max attempts per request, primary included")
	probeEvery := flag.Duration("probe-every", time.Second, "active /healthz probe interval")
	probeTimeout := flag.Duration("probe-timeout", 500*time.Millisecond, "per-probe timeout")
	rise := flag.Int("rise", 2, "consecutive probe passes that mark a replica healthy")
	fall := flag.Int("fall", 2, "consecutive probe failures that mark a replica down")
	ejectAfter := flag.Int("eject-after", 3, "consecutive live-traffic failures that eject a replica")
	ejectBase := flag.Duration("eject-base", time.Second, "first ejection cool-off (doubles per repeat)")
	ejectMax := flag.Duration("eject-max", 30*time.Second, "ejection cool-off cap")
	hedgeQuantile := flag.Float64("hedge-quantile", 0.9, "latency quantile after which a hedge fires")
	hedgeInitial := flag.Duration("hedge-initial", 50*time.Millisecond, "hedge delay before latency data accumulates")
	hedgeMin := flag.Duration("hedge-min", 5*time.Millisecond, "hedge delay floor")
	retryRatio := flag.Float64("retry-ratio", 0.2, "retry-budget tokens deposited per primary attempt")
	retryBurst := flag.Int("retry-burst", 10, "retry-budget token cap")
	staleCap := flag.Int("stale-cap", 256, "last-known-good brownout cache entries")
	routing := flag.String("routing", cluster.RoutingLeastInflight,
		"replica routing policy: least-inflight or rendezvous (shard by request content key)")
	routingSeed := flag.Uint64("routing-seed", 0, "tie-break RNG seed (0 = from the clock; fixed seeds reproduce routing)")
	traceArchive := flag.Int("trace-archive", 512, "max traces retained in the tail-sampled archive")
	traceSample := flag.Float64("trace-sample", 0.01, "probability of archiving an otherwise uninteresting trace (deterministic per trace ID)")
	traceSlow := flag.Duration("trace-slow", 250*time.Millisecond, "latency at or above which a trace is always archived")
	drain := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown drain window")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	flag.Parse()

	logger, err := cli.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		cli.Exit("blgate", err)
	}
	var urls []string
	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			urls = append(urls, r)
		}
	}
	if len(urls) == 0 {
		cli.Exit("blgate", fmt.Errorf("-replicas is required (comma-separated blserve base URLs)"))
	}

	g, err := cluster.New(cluster.Config{
		Replicas:      urls,
		ProbeEvery:    *probeEvery,
		ProbeTimeout:  *probeTimeout,
		Rise:          *rise,
		Fall:          *fall,
		EjectAfter:    *ejectAfter,
		EjectBase:     *ejectBase,
		EjectMax:      *ejectMax,
		HedgeQuantile: *hedgeQuantile,
		HedgeInitial:  *hedgeInitial,
		HedgeMin:      *hedgeMin,
		MaxAttempts:   *maxAttempts,
		RetryRatio:    *retryRatio,
		RetryBurst:    *retryBurst,
		Routing:       *routing,
		RoutingSeed:   *routingSeed,
		Timeout:       *timeout,
		StaleCap:      *staleCap,
		Logger:        logger,
		TraceArchive: obs.ArchivePolicy{
			Capacity:      *traceArchive,
			SlowThreshold: *traceSlow,
			SampleRate:    *traceSample,
		},
	})
	if err != nil {
		cli.Exit("blgate", err)
	}
	defer g.Close()

	ctx, stop := cli.SignalContext()
	defer stop()

	// Listen before serving so -addr :0 reports the bound port — the
	// chaos harness keys on this line, exactly as with blserve.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cli.Exit("blgate", err)
	}
	srv := &http.Server{
		Handler:           g.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		WriteTimeout:      *timeout + 5*time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening",
			slog.String("addr", ln.Addr().String()),
			slog.String("version", version),
			slog.Int("replicas", len(urls)),
			slog.Duration("timeout", *timeout),
			slog.Int("max_attempts", *maxAttempts),
			slog.Float64("retry_ratio", *retryRatio),
			slog.String("routing", *routing),
			slog.Duration("probe_every", *probeEvery))
		errc <- srv.Serve(ln)
	}()

	select {
	case err := <-errc:
		cli.Exit("blgate", err)
	case <-ctx.Done():
	}
	logger.Info("shutting down", slog.Duration("drain", *drain))
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		cli.Exit("blgate", err)
	}
}

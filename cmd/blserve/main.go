// blserve exposes the prediction service over HTTP: the full pipeline
// (compile, optimize, analyze, predict, execute, score) behind a JSON
// API with bounded concurrency, content-hash caching, and per-stage
// metrics.
//
// Usage:
//
//	blserve [-addr :8723] [-workers N] [-timeout 30s] [-queue 64]
//	        [-cache 4096] [-budget 0] [-state-dir DIR]
//	        [-snapshot-every 30s] [-journal-sync 100ms]
//	        [-drain-timeout 10s] [-instance-id ID]
//	        [-tenants] [-tenant-rate 50] [-tenant-burst 0]
//	        [-tenant-inflight 0] [-tenant-quota id=rate[,burst[,inflight[,weight]]]]
//	        [-batch-max 64]
//	        [-trace-archive 512] [-trace-sample 0.01] [-trace-slow 250ms]
//	        [-log-level info] [-log-format text]
//
// Endpoints:
//
//	POST /v1/predict     run the pipeline on {"source": ...} or
//	                     {"benchmark": "xlisp"}; repeated identical
//	                     requests are served from the cache
//	POST /v1/batch       run N predict/compare items admitted as one
//	                     unit against the caller's tenant quota, with
//	                     per-item results
//
// With -tenants, requests are attributed to the tenant named by the
// X-Tenant-Id header (absent means "default") and admitted against
// per-tenant token-bucket rate quotas and in-flight caps; a tenant
// over quota gets 429 {"code":"quota_exceeded"} with Retry-After and
// X-RateLimit-* headers, and under queue saturation tenants holding
// more than their weighted max-min fair share of the worker pool are
// shed first while under-share tenants keep flowing.
//
//	GET  /v1/stats       service counters: per-stage latency, throughput,
//	                     and cache hits
//	GET  /healthz        liveness probe
//	GET  /metrics        Prometheus text exposition: request/stage/cache/
//	                     durability counters, latency histograms,
//	                     per-heuristic accuracy
//	GET  /debug/traces   recent request traces (?last=N, clamped to the
//	                     ring), ?id= exact-match collections of one
//	                     trace, or ?slowest=N from the tail-sampled
//	                     archive; most recent first, with per-stage spans
//
// Every request runs under a distributed-tracing span: an incoming
// Traceparent header (stamped by blgate attempts) parents this
// process's trace, the trace ID is echoed in X-Trace-Id, and the
// tracer keeps the recent traces and archives those that errored, were
// hedged, or exceeded -trace-slow (-trace-archive entries, plus a
// -trace-sample fraction of boring traces); with -state-dir the archive
// is part of the snapshot and survives restarts. Request-latency
// histogram buckets carry the most recent trace ID as
// ballarus_*_exemplar gauges.
//
// Logs are structured (slog); -log-format json switches them to JSON
// and -log-level debug additionally emits one event per completed
// request trace. With -chaos-admin the /debug fault-injection endpoints
// and net/http/pprof profiling are exposed too.
//
// With -state-dir, the server persists its warm state (the recipes
// behind the run cache, at most -cache of them, and the trace archive)
// as a checksummed snapshot plus an append-only journal of the runs
// computed since it, recovers it at boot — tolerating per-entry
// corruption — and replays it, each recipe under -timeout, to rewarm the
// caches, so a crashed or killed server restarts warm.
//
// A shed request (full queue, or a tenant over its fair share) is
// answered 429 with Retry-After; brownout answers for requests seen before come from the
// blgate gateway's last-known-good cache, not from the replica.
//
// The server shuts down gracefully on SIGINT/SIGTERM: new requests are
// refused with 503 + Connection: close (so load-balancer health checks
// fail fast during rollouts) while in-flight requests drain for up to
// -drain-timeout, then a final snapshot is written.
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
	"runtime"
	"time"

	"ballarus/internal/cli"
	"ballarus/internal/obs"
	"ballarus/internal/service"
	"ballarus/internal/tenant"
)

// version identifies the build in the startup record.
const version = "0.12.0"

// defaultInstanceID derives an instance identity when -instance-id is
// not set: host-pid is unique enough to tell replicas apart in traces
// and gateway assertions.
func defaultInstanceID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "blserve"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

func main() {
	addr := flag.String("addr", ":8723", "listen address (:0 picks a free port, printed on stderr)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "max concurrently executing requests")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request pipeline timeout")
	drain := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown drain window")
	instanceID := flag.String("instance-id", "", "instance identity reported in the X-Instance-Id response header (default host-pid)")
	queue := flag.Int("queue", 64, "max requests queued for a worker before shedding with 429 (0 = unbounded)")
	cache := flag.Int("cache", 4096, "max entries per result cache, LRU-evicted (0 = unbounded)")
	budget := flag.Int64("budget", 0, "default instruction budget per run (0 = interpreter default, 64M)")
	stateDir := flag.String("state-dir", "", "directory for durable state (snapshot + journal); empty disables durability")
	snapEvery := flag.Duration("snapshot-every", 30*time.Second, "periodic snapshot interval (with -state-dir)")
	journalSync := flag.Duration("journal-sync", 100*time.Millisecond, "journal fsync batching interval (with -state-dir)")
	chaosAdmin := flag.Bool("chaos-admin", false, "expose /debug fault-injection, snapshot, and pprof endpoints (test harnesses and trusted operators only)")
	tenants := flag.Bool("tenants", false, "enable per-tenant quotas and fairness (X-Tenant-Id header identity)")
	tenantRate := flag.Float64("tenant-rate", 50, "default per-tenant sustained rate in requests/s (0 = unlimited, with -tenants)")
	tenantBurst := flag.Float64("tenant-burst", 0, "default per-tenant burst capacity (0 = max(rate,1), with -tenants)")
	tenantInflight := flag.Int("tenant-inflight", 0, "default per-tenant concurrent-request cap (0 = unlimited, with -tenants)")
	batchMax := flag.Int("batch-max", defaultBatchMax, "max items per /v1/batch request")
	traceArchive := flag.Int("trace-archive", 512, "max traces retained in the tail-sampled archive")
	traceSample := flag.Float64("trace-sample", 0.01, "probability of archiving an otherwise uninteresting trace (deterministic per trace ID)")
	traceSlow := flag.Duration("trace-slow", 250*time.Millisecond, "latency at or above which a trace is always archived")
	tenantOverrides := map[string]tenant.Limits{}
	flag.Func("tenant-quota", "per-tenant override as id=rate[,burst[,inflight[,weight]]]; repeatable (with -tenants)", func(v string) error {
		id, lim, err := parseTenantQuota(v)
		if err != nil {
			return err
		}
		tenantOverrides[id] = lim
		return nil
	})
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error (debug also logs request traces)")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	flag.Parse()

	logger, err := cli.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		cli.Exit("blserve", err)
	}
	if *instanceID == "" {
		*instanceID = defaultInstanceID()
	}

	opts := []service.Option{
		service.WithWorkers(*workers),
		service.WithRequestTimeout(*timeout),
		service.WithQueueDepth(*queue),
		service.WithCacheSize(*cache),
		service.WithBudget(*budget),
		service.WithTracer(obs.NewTracer(256, logger, obs.ArchivePolicy{
			Capacity:      *traceArchive,
			SlowThreshold: *traceSlow,
			SampleRate:    *traceSample,
		})),
	}
	if *tenants {
		opts = append(opts, service.WithTenants(tenant.NewRegistry(tenant.Config{
			Defaults: tenant.Limits{
				Rate:        *tenantRate,
				Burst:       *tenantBurst,
				MaxInFlight: *tenantInflight,
			},
			Overrides: tenantOverrides,
		})))
	}
	if *stateDir != "" {
		opts = append(opts,
			service.WithDurableStore(*stateDir),
			service.WithSnapshotInterval(*snapEvery),
			service.WithJournalSyncInterval(*journalSync),
		)
	}
	svc := service.New(opts...)
	svc.Tracer().SetSource(*instanceID)
	app := newServer(svc)
	app.instanceID = *instanceID
	if *batchMax > 0 {
		app.batchMax = *batchMax
	}

	ctx, stop := cli.SignalContext()
	defer stop()

	var rs service.RecoveryStats
	if *stateDir != "" {
		rs, err = svc.Recover(ctx)
		if err != nil {
			cli.Exit("blserve", err)
		}
	}

	// Listen before serving so -addr :0 reports the bound port — the
	// chaos harness depends on that line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		cli.Exit("blserve", err)
	}
	srv := &http.Server{
		Handler:           app.handler(*chaosAdmin),
		ReadHeaderTimeout: 5 * time.Second,
		// The pipeline timeout governs work; give the writer headroom.
		WriteTimeout: *timeout + 5*time.Second,
	}

	errc := make(chan error, 1)
	go func() {
		// One structured startup record carrying the effective
		// configuration and the recovery summary; harnesses key on
		// msg=listening and the addr attribute.
		logger.Info("listening",
			slog.String("addr", ln.Addr().String()),
			slog.String("version", version),
			slog.String("instance", *instanceID),
			slog.Int("workers", *workers),
			slog.Duration("timeout", *timeout),
			slog.Int("queue", *queue),
			slog.Int("cache", *cache),
			slog.String("state_dir", *stateDir),
			slog.Bool("chaos_admin", *chaosAdmin),
			slog.Bool("tenants", *tenants),
			slog.Group("recovered",
				slog.Int64("snapshot_entries", rs.SnapshotEntries),
				slog.Int64("snapshot_skipped", rs.SnapshotSkipped),
				slog.Int64("journal_records", rs.JournalReplayed),
				slog.Int64("journal_skipped", rs.JournalSkipped),
				slog.Int64("warmed", rs.Warmed)))
		errc <- srv.Serve(ln)
	}()

	select {
	case err := <-errc:
		cli.Exit("blserve", err)
	case <-ctx.Done():
	}
	// Start refusing new work before Shutdown unbinds the listener:
	// requests that race the drain get an explicit 503 + Connection:
	// close instead of a connection reset, so gateway health checks
	// fail fast and cleanly during rollouts. The lame-duck pause keeps
	// the listener open while refusing — a balancer probing /healthz
	// sees the 503 and rotates us out before connections start failing.
	app.startDraining()
	logger.Info("shutting down", slog.Duration("drain", *drain))
	lame := *drain / 4
	if lame > 2*time.Second {
		lame = 2 * time.Second
	}
	time.Sleep(lame)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		cli.Exit("blserve", err)
	}
	// Close writes the final snapshot; with -state-dir the next boot
	// starts warm.
	if err := svc.Close(); err != nil {
		cli.Exit("blserve", err)
	}
}

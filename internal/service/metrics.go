package service

import (
	"context"
	"strings"
	"sync/atomic"
	"time"

	"ballarus/internal/core"
	"ballarus/internal/dynpred"
	"ballarus/internal/obs"
	"ballarus/internal/profile"
	"ballarus/internal/tenant"
)

// stage names, in pipeline order.
const (
	stageCompile  = "compile"
	stageOptimize = "optimize"
	stageAnalyze  = "analyze"
	stagePredict  = "predict"
	stageExecute  = "execute"
	stageScore    = "score"
	stageCompare  = "compare"
)

var stageOrder = []string{
	stageCompile, stageOptimize, stageAnalyze, stagePredict, stageExecute, stageScore, stageCompare,
}

// Predictor labels for the aggregate miss counters, in the paper's
// terms: the prioritized heuristic combiner, the voting combiner, the
// loop+random and BTFNT baselines, and the perfect static predictor.
const (
	predictorHeuristic = "heuristic"
	predictorVote      = "vote"
	predictorLoopRand  = "loop_rand"
	predictorBTFNT     = "btfnt"
	predictorPerfect   = "perfect"
)

var predictorOrder = []string{
	predictorHeuristic, predictorVote, predictorLoopRand, predictorBTFNT, predictorPerfect,
}

// Attribution labels: which rule decided a dynamic branch under the
// request's order — one of the seven non-loop heuristics, the loop
// predictor (loop branches), or the pseudo-random default (uncovered
// non-loop branches).
const (
	byLoopPredictor = "loop_predictor"
	byDefault       = "default"
)

// stageMetrics accumulates one pipeline stage's counters. All values
// live in the obs registry, so hot-path recording never takes a lock
// and the Prometheus exposition reads the same source of truth as
// Stats().
type stageMetrics struct {
	count     *obs.Counter
	errors    *obs.Counter
	nanos     atomic.Int64 // cumulative wall time, for Stats().MeanTime
	hits      *obs.Counter // cache hits (cacheable stages only)
	misses    *obs.Counter // cache misses, i.e. actual computations
	lat       *obs.Histogram
	cacheable bool
}

func (m *stageMetrics) record(d time.Duration, hit bool, err error) {
	m.count.Inc()
	m.nanos.Add(int64(d))
	m.lat.ObserveDuration(d)
	if err != nil {
		m.errors.Inc()
		return
	}
	if !m.cacheable {
		return
	}
	if hit {
		m.hits.Inc()
	} else {
		m.misses.Inc()
	}
}

// StageStats is a point-in-time snapshot of one stage's counters.
type StageStats struct {
	Name        string        `json:"name"`
	Count       int64         `json:"count"`        // times the stage ran (incl. cache hits)
	Errors      int64         `json:"errors"`       // times the stage failed
	TotalTime   time.Duration `json:"total_ns"`     // cumulative wall time in the stage
	MeanTime    time.Duration `json:"mean_ns"`      // TotalTime / Count; zero when Count == 0
	CacheHits   int64         `json:"cache_hits"`   // lookups served from cache
	CacheMisses int64         `json:"cache_misses"` // lookups that computed
}

// CacheStats is a point-in-time snapshot of one result cache.
type CacheStats struct {
	Name      string `json:"name"`
	Entries   int    `json:"entries"`
	Evictions int64  `json:"evictions"`
	Capacity  int    `json:"capacity"` // 0 = unbounded
}

// cacheSnapshot is the flightCache-side view of CacheStats.
type cacheSnapshot struct {
	entries   int
	evictions int64
	capacity  int
}

// WatchdogStats is a point-in-time snapshot of the worker-pool
// watchdog.
type WatchdogStats struct {
	Enabled bool `json:"enabled"`
	// Restarts counts worker-pool replacements after a wedge (no
	// progress past the deadline with every slot held and work queued).
	Restarts int64 `json:"restarts"`
}

// DurabilityStats is a point-in-time snapshot of the durable-state
// machinery: what recovery found at boot and what has been persisted
// since.
type DurabilityStats struct {
	Enabled bool `json:"enabled"`
	// SnapshotEntries / SnapshotSkipped: intact vs. dropped (corrupt,
	// torn, unknown, or unreplayable) snapshot entries at the last boot.
	SnapshotEntries int64 `json:"snapshot_entries"`
	SnapshotSkipped int64 `json:"snapshot_skipped"`
	// JournalReplayed / JournalSkipped: journal records rewarmed vs.
	// dropped at the last boot.
	JournalReplayed int64 `json:"journal_replayed"`
	JournalSkipped  int64 `json:"journal_skipped"`
	// Warmed is the number of requests replayed into the caches at boot.
	Warmed int64 `json:"warmed"`
	// SnapshotWrites / SnapshotErrors count snapshot attempts since boot.
	SnapshotWrites int64 `json:"snapshot_writes"`
	SnapshotErrors int64 `json:"snapshot_errors"`
	// JournalAppends counts request recipes journaled since boot.
	JournalAppends int64 `json:"journal_appends"`
	// WarmEntries is the current warm-set size (what the next snapshot
	// will persist).
	WarmEntries int `json:"warm_entries"`
}

// Stats is a point-in-time snapshot of the service's counters. It is a
// thin view over the service's metric registry — the same counters the
// Prometheus exposition serves.
type Stats struct {
	Requests  int64         `json:"requests"`   // Predict calls accepted
	InFlight  int64         `json:"in_flight"`  // Predict calls currently running
	Queued    int64         `json:"queued"`     // Predict calls waiting for a worker slot
	Completed int64         `json:"completed"`  // Predict calls that returned a Result
	Errors    int64         `json:"errors"`     // Predict calls that returned an error
	Canceled  int64         `json:"canceled"`   // errors that were cancellations/timeouts
	Shed      int64         `json:"shed"`       // requests rejected by admission control
	Panics    int64         `json:"panics"`     // panics recovered inside pipeline stages
	RunHits   int64         `json:"run_hits"`   // whole-pipeline result cache hits
	RunMisses int64         `json:"run_misses"` // whole-pipeline executions
	Programs  int           `json:"programs"`   // compiled programs cached
	Analyses  int           `json:"analyses"`   // analyses cached
	Runs      int           `json:"runs"`       // run results cached
	Compares  int           `json:"compares"`   // tournament results cached
	Evictions int64         `json:"evictions"`  // total cache evictions across the three caches
	Uptime    time.Duration `json:"uptime_ns"`
	Stages    []StageStats  `json:"stages"`
	// Caches details the result caches (programs, analyses, runs,
	// compares).
	Caches []CacheStats `json:"caches"`
	// Watchdog reports the worker-pool wedge detector.
	Watchdog WatchdogStats `json:"watchdog"`
	// Durability reports snapshot/journal/recovery state.
	Durability DurabilityStats `json:"durability"`
}

// metrics is the service-wide counter set, backed by an obs.Registry
// so every counter is scrapeable as Prometheus text.
type metrics struct {
	reg   *obs.Registry
	start time.Time

	requests  *obs.Counter
	inFlight  *obs.Gauge
	queued    *obs.Gauge
	completed *obs.Counter
	errors    *obs.Counter
	canceled  *obs.Counter
	shed      *obs.Counter
	panics    *obs.Counter
	runHits   *obs.Counter
	runMisses *obs.Counter
	deadline  *obs.Histogram // remaining deadline at admission
	stages    map[string]*stageMetrics

	// Watchdog and durability counters.
	poolRestarts    *obs.Counter
	snapshotWrites  *obs.Counter
	snapshotErrors  *obs.Counter
	journalAppends  *obs.Counter
	recSnapEntries  *obs.Gauge
	recSnapSkipped  *obs.Gauge
	recJrnlReplayed *obs.Gauge
	recJrnlSkipped  *obs.Gauge
	recWarmed       *obs.Gauge

	// Domain metrics, aggregated over every scored request: dynamic
	// branch executions attributed to the rule that predicted them, and
	// miss totals per predictor vs. the perfect static predictor.
	attrPred map[string]*obs.Counter // dynamic executions decided by rule
	attrMiss map[string]*obs.Counter // of those, mispredicted
	classDyn map[core.Class]*obs.Counter
	predMiss map[string]*obs.Counter
	dynTotal *obs.Counter

	// Tournament metrics, aggregated over every computed comparison:
	// mispredictions per backend (static entrants included), dynamic
	// branches raced, and hard-to-predict branches by verdict.
	cmpMiss map[string]*obs.Counter
	cmpDyn  *obs.Counter
	cmpH2P  map[string]*obs.Counter
}

// Tenant metric families. Labels are dynamic (one series per tenant
// the LRU-bounded registry has seen); the registry's get-or-create
// semantics make the helpers safe and cheap on the hot path.
const (
	tenantRequestsHelp = "Requests attributed to each tenant."
	tenantShedHelp     = "Per-tenant rejections by reason: rate, concurrency (quota 429s), fairness (over-fair-share shed under saturation)."
	tenantInflightHelp = "Requests currently admitted per tenant."
)

// tenantRequest counts one request attributed to a tenant.
func (m *metrics) tenantRequest(id string) {
	m.reg.Counter("ballarus_tenant_requests_total", tenantRequestsHelp, "tenant", id).Inc()
}

// tenantShed counts one per-tenant rejection by reason.
func (m *metrics) tenantShed(id, reason string) {
	m.reg.Counter("ballarus_tenant_shed_total", tenantShedHelp, "tenant", id, "reason", reason).Inc()
}

// tenantInflight moves a tenant's admitted-request gauge.
func (m *metrics) tenantInflight(id string, delta int64) {
	m.reg.Gauge("ballarus_tenant_inflight", tenantInflightHelp, "tenant", id).Add(delta)
}

// seedTenantFamilies pre-creates the tenant families for the default
// tenant so /metrics exposes them (and metrics-lint can require them)
// before the first per-tenant event.
func (m *metrics) seedTenantFamilies() {
	m.reg.Counter("ballarus_tenant_requests_total", tenantRequestsHelp, "tenant", tenant.DefaultID)
	m.reg.Counter("ballarus_tenant_shed_total", tenantShedHelp, "tenant", tenant.DefaultID, "reason", "rate")
	m.reg.Gauge("ballarus_tenant_inflight", tenantInflightHelp, "tenant", tenant.DefaultID)
}

// recordRecovery publishes what boot-time recovery found.
func (m *metrics) recordRecovery(rs RecoveryStats) {
	m.recSnapEntries.Set(rs.SnapshotEntries)
	m.recSnapSkipped.Set(rs.SnapshotSkipped)
	m.recJrnlReplayed.Set(rs.JournalReplayed)
	m.recJrnlSkipped.Set(rs.JournalSkipped)
	m.recWarmed.Set(rs.Warmed)
}

// heuristicLabels[h] is the metric label for core.Heuristic(h),
// precomputed so attribution on the hot path never lowercases.
var heuristicLabels = func() []string {
	out := make([]string, core.NumHeuristics)
	for h := range out {
		out[h] = strings.ToLower(core.Heuristic(h).String())
	}
	return out
}()

// attributionLabels are the rules a dynamic branch's prediction can be
// attributed to.
func attributionLabels() []string {
	out := make([]string, 0, core.NumHeuristics+2)
	out = append(out, heuristicLabels...)
	return append(out, byLoopPredictor, byDefault)
}

// stageSpanName returns the constant span name for a stage so the hot
// path does not concatenate per request.
func stageSpanName(name string) string {
	switch name {
	case stageCompile:
		return "stage." + stageCompile
	case stageOptimize:
		return "stage." + stageOptimize
	case stageAnalyze:
		return "stage." + stageAnalyze
	case stagePredict:
		return "stage." + stagePredict
	case stageExecute:
		return "stage." + stageExecute
	case stageScore:
		return "stage." + stageScore
	case stageCompare:
		return "stage." + stageCompare
	}
	return "stage." + name
}

// stageFaultName returns the constant faultpoint / panic-isolation name
// for a stage ("service.<stage>"), again avoiding per-request concats.
func stageFaultName(name string) string {
	switch name {
	case stageCompile:
		return "service." + stageCompile
	case stageOptimize:
		return "service." + stageOptimize
	case stageAnalyze:
		return "service." + stageAnalyze
	case stagePredict:
		return "service." + stagePredict
	case stageExecute:
		return "service." + stageExecute
	case stageScore:
		return "service." + stageScore
	case stageCompare:
		return "service." + stageCompare
	}
	return "service." + name
}

func newMetrics(start time.Time) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		reg:       reg,
		start:     start,
		requests:  reg.Counter("ballarus_requests_total", "Predict calls accepted."),
		inFlight:  reg.Gauge("ballarus_in_flight_requests", "Predict calls currently executing."),
		queued:    reg.Gauge("ballarus_queued_requests", "Predict calls waiting for a worker slot."),
		completed: reg.Counter("ballarus_requests_completed_total", "Predict calls that returned a result."),
		errors:    reg.Counter("ballarus_request_errors_total", "Predict calls that returned an error."),
		canceled:  reg.Counter("ballarus_requests_canceled_total", "Errors that were cancellations or timeouts."),
		shed:      reg.Counter("ballarus_requests_shed_total", "Requests rejected by admission control."),
		panics:    reg.Counter("ballarus_stage_panics_total", "Panics recovered inside pipeline stages."),
		runHits:   reg.Counter("ballarus_run_cache_total", "Whole-pipeline run cache outcomes.", "result", "hit"),
		runMisses: reg.Counter("ballarus_run_cache_total", "Whole-pipeline run cache outcomes.", "result", "miss"),
		deadline: reg.Histogram("ballarus_request_deadline_seconds",
			"Remaining deadline when a request enters the pipeline — how much budget clients (or the gateway's X-Deadline-Ms) actually grant.",
			obs.DurationBuckets),
		stages: map[string]*stageMetrics{},

		poolRestarts:    reg.Counter("ballarus_watchdog_restarts_total", "Worker-pool restarts after a detected wedge."),
		snapshotWrites:  reg.Counter("ballarus_snapshot_writes_total", "Durable snapshots written."),
		snapshotErrors:  reg.Counter("ballarus_snapshot_errors_total", "Durable snapshot writes that failed."),
		journalAppends:  reg.Counter("ballarus_journal_appends_total", "Request recipes appended to the journal."),
		recSnapEntries:  reg.Gauge("ballarus_recovered_snapshot_entries", "Intact snapshot entries at the last boot."),
		recSnapSkipped:  reg.Gauge("ballarus_recovered_snapshot_skipped", "Snapshot entries dropped at the last boot (corruption, torn tail, unknown section, failed replay)."),
		recJrnlReplayed: reg.Gauge("ballarus_recovered_journal_records", "Journal records rewarmed at the last boot."),
		recJrnlSkipped:  reg.Gauge("ballarus_recovered_journal_skipped", "Journal records dropped at the last boot."),
		recWarmed:       reg.Gauge("ballarus_recovered_requests", "Requests replayed into the caches at the last boot."),

		attrPred: map[string]*obs.Counter{},
		attrMiss: map[string]*obs.Counter{},
		classDyn: map[core.Class]*obs.Counter{},
		predMiss: map[string]*obs.Counter{},
		dynTotal: reg.Counter("ballarus_dynamic_branches_total", "Dynamic conditional branches scored across served requests."),

		cmpMiss: map[string]*obs.Counter{},
		cmpDyn:  reg.Counter("ballarus_compare_branches_total", "Dynamic conditional branches raced through computed comparisons (cache hits excluded)."),
		cmpH2P:  map[string]*obs.Counter{},
	}
	const stageHelp = "Pipeline stage "
	for _, name := range stageOrder {
		m.stages[name] = &stageMetrics{
			count:  reg.Counter("ballarus_stage_runs_total", stageHelp+"executions (including cache hits).", "stage", name),
			errors: reg.Counter("ballarus_stage_errors_total", stageHelp+"failures.", "stage", name),
			hits:   reg.Counter("ballarus_stage_cache_total", stageHelp+"cache outcomes.", "stage", name, "result", "hit"),
			misses: reg.Counter("ballarus_stage_cache_total", stageHelp+"cache outcomes.", "stage", name, "result", "miss"),
			lat:    reg.Histogram("ballarus_stage_duration_seconds", stageHelp+"latency.", obs.DurationBuckets, "stage", name),
		}
	}
	m.stages[stageCompile].cacheable = true
	m.stages[stageAnalyze].cacheable = true
	m.stages[stageExecute].cacheable = true
	m.stages[stageCompare].cacheable = true

	for _, rule := range attributionLabels() {
		m.attrPred[rule] = reg.Counter("ballarus_heuristic_predicted_total",
			"Dynamic branch executions whose prediction was decided by this rule.", "heuristic", rule)
		m.attrMiss[rule] = reg.Counter("ballarus_heuristic_misses_total",
			"Dynamic branch executions this rule mispredicted.", "heuristic", rule)
	}
	m.classDyn[core.LoopBranch] = reg.Counter("ballarus_branch_executions_total",
		"Dynamic branch executions by branch class.", "class", "loop")
	m.classDyn[core.NonLoop] = reg.Counter("ballarus_branch_executions_total",
		"Dynamic branch executions by branch class.", "class", "non_loop")
	for _, p := range predictorOrder {
		m.predMiss[p] = reg.Counter("ballarus_predictor_misses_total",
			"Dynamic mispredictions per predictor, across served requests.", "predictor", p)
		miss := m.predMiss[p]
		reg.GaugeFunc("ballarus_predictor_miss_rate_pct",
			"Aggregate miss rate per predictor, percent of dynamic branches (paper's miss-vs-perfect view).",
			func() float64 {
				if dyn := m.dynTotal.Value(); dyn > 0 {
					return 100 * float64(miss.Value()) / float64(dyn)
				}
				return 0
			}, "predictor", p)
	}
	for _, backend := range compareBackends() {
		m.cmpMiss[backend] = reg.Counter("ballarus_compare_predictor_misses_total",
			"Dynamic mispredictions per tournament backend, across computed comparisons.", "predictor", backend)
		miss := m.cmpMiss[backend]
		reg.GaugeFunc("ballarus_compare_miss_rate_pct",
			"Aggregate tournament miss rate per backend, percent of raced dynamic branches.",
			func() float64 {
				if dyn := m.cmpDyn.Value(); dyn > 0 {
					return 100 * float64(miss.Value()) / float64(dyn)
				}
				return 0
			}, "predictor", backend)
	}
	for _, verdict := range []string{"static_beaten", "history_beaten"} {
		m.cmpH2P[verdict] = reg.Counter("ballarus_compare_h2p_branches_total",
			"Hard-to-predict branches classified across computed comparisons.", "verdict", verdict)
	}
	reg.GaugeFunc("ballarus_uptime_seconds", "Seconds since the service started.",
		func() float64 { return time.Since(m.start).Seconds() })
	return m
}

// compareBackends lists every entrant label a comparison can report:
// the static pair plus the full dynpred registry.
func compareBackends() []string {
	return append([]string{dynpred.NameStatic, dynpred.NamePerfect}, dynpred.Names()...)
}

// observeCompare accumulates one computed comparison's outcomes. Called
// from the compare cache's compute path only, so cache hits do not
// double-count.
func (m *metrics) observeCompare(res *CompareResult) {
	for _, p := range res.Predictors {
		if c, ok := m.cmpMiss[p.Name]; ok {
			c.Add(p.Misses)
		}
	}
	m.cmpDyn.Add(res.DynamicBranches)
	m.cmpH2P["static_beaten"].Add(int64(len(res.H2P.StaticBeaten)))
	m.cmpH2P["history_beaten"].Add(int64(len(res.H2P.HistoryBeaten)))
}

// observeScores accumulates one scored request's aggregate predictor
// outcomes.
func (m *metrics) observeScores(heur, vote, loopRand, btfnt, perfect, dyn int64) {
	m.predMiss[predictorHeuristic].Add(heur)
	m.predMiss[predictorVote].Add(vote)
	m.predMiss[predictorLoopRand].Add(loopRand)
	m.predMiss[predictorBTFNT].Add(btfnt)
	m.predMiss[predictorPerfect].Add(perfect)
	m.dynTotal.Add(dyn)
}

// observeAttribution walks the branches of one scored request and
// charges each dynamic execution (and miss) to the rule that decided
// its prediction under the request's order.
func (m *metrics) observeAttribution(a *core.Analysis, order core.Order, p *profile.Profile) {
	for i := range a.Branches {
		b := &a.Branches[i]
		d := p.Executed(b.ID)
		if d == 0 {
			continue
		}
		m.classDyn[b.Class].Add(d)
		pred, by, ok := b.PredictWith(order)
		rule := byDefault
		switch {
		case b.Class == core.LoopBranch:
			rule = byLoopPredictor
		case ok:
			rule = heuristicLabels[by]
		}
		m.attrPred[rule].Add(d)
		m.attrMiss[rule].Add(p.Misses(b.ID, pred.Taken()))
	}
}

// timed runs fn as the named stage, recording latency and cache outcome.
func timed[V any](m *metrics, name string, fn func() (V, bool, error)) (V, bool, error) {
	start := time.Now()
	v, hit, err := fn()
	m.stages[name].record(time.Since(start), hit, err)
	return v, hit, err
}

// timedCtx is timed plus a span on ctx's active trace (free when the
// request carries no trace).
func timedCtx[V any](ctx context.Context, m *metrics, name string, fn func() (V, bool, error)) (V, bool, error) {
	sp := obs.StartSpan(ctx, stageSpanName(name))
	v, hit, err := timed(m, name, fn)
	sp.End(err)
	return v, hit, err
}

func (m *metrics) snapshot(programs, analyses, runs, compares cacheSnapshot, watchdog WatchdogStats, durability DurabilityStats) Stats {
	s := Stats{
		Requests:  m.requests.Value(),
		InFlight:  m.inFlight.Value(),
		Queued:    m.queued.Value(),
		Completed: m.completed.Value(),
		Errors:    m.errors.Value(),
		Canceled:  m.canceled.Value(),
		Shed:      m.shed.Value(),
		Panics:    m.panics.Value(),
		RunHits:   m.runHits.Value(),
		RunMisses: m.runMisses.Value(),
		Programs:  programs.entries,
		Analyses:  analyses.entries,
		Runs:      runs.entries,
		Compares:  compares.entries,
		Evictions: programs.evictions + analyses.evictions + runs.evictions + compares.evictions,
		Uptime:    time.Since(m.start),
		Caches: []CacheStats{
			{Name: "programs", Entries: programs.entries, Evictions: programs.evictions, Capacity: programs.capacity},
			{Name: "analyses", Entries: analyses.entries, Evictions: analyses.evictions, Capacity: analyses.capacity},
			{Name: "runs", Entries: runs.entries, Evictions: runs.evictions, Capacity: runs.capacity},
			{Name: "compares", Entries: compares.entries, Evictions: compares.evictions, Capacity: compares.capacity},
		},
		Watchdog:   watchdog,
		Durability: durability,
	}
	for _, name := range stageOrder {
		st := m.stages[name]
		snap := StageStats{
			Name:        name,
			Count:       st.count.Value(),
			Errors:      st.errors.Value(),
			TotalTime:   time.Duration(st.nanos.Load()),
			CacheHits:   st.hits.Value(),
			CacheMisses: st.misses.Value(),
		}
		// Guard the mean: a stage that never ran has no mean latency.
		if snap.Count > 0 {
			snap.MeanTime = snap.TotalTime / time.Duration(snap.Count)
		}
		s.Stages = append(s.Stages, snap)
	}
	return s
}

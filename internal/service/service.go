// Package service runs the full ballarus pipeline — compile, optimize,
// analyze, predict, execute, score, and compare's tournament — as a
// concurrent, cached prediction service. It is the throughput layer the
// CLI tools, the HTTP server (cmd/blserve), and the evaluation harness
// share. Predict and Compare take one request path (timeout, admission,
// request counters) and share the front half of the pipeline, and all
// seven stages run through one stage runner:
//
//   - bounded concurrency: at most Workers requests execute at once, the
//     rest queue (respecting their contexts);
//   - content-hash caching with single-flight deduplication: compiled
//     programs, analyses, and deterministic run results are keyed by a
//     SHA-256 of their inputs, and concurrent requests for the same key
//     share one computation;
//   - observability: each stage run is recorded once, in its latency
//     histogram, beside its error and cache-hit counters, all exposed as
//     a Stats snapshot, and opens a span on the request's trace; the
//     service's one tracer keeps the recent traces and a tail-sampled
//     archive, which a durable service snapshots beside the run cache's
//     recipes;
//   - cancellation: context deadlines and cancellation are honored
//     between stages and interrupt the interpreter mid-run;
//   - resilience: every error is classified into the typed taxonomy of
//     internal/resilience, every stage runs behind panic isolation and a
//     fault-injection point, and admission control sheds load once the
//     queue is full. A failed stage fails only its own request: the
//     stages are pure functions of their input, so nothing is retried
//     and no failure refuses later requests.
package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ballarus/internal/core"
	"ballarus/internal/interp"
	"ballarus/internal/minic"
	"ballarus/internal/mir"
	"ballarus/internal/obs"
	"ballarus/internal/opt"
	"ballarus/internal/profile"
	"ballarus/internal/resilience"
	"ballarus/internal/suite"
	"ballarus/internal/tenant"
)

// Option configures a Service.
type Option func(*config)

type config struct {
	workers     int
	timeout     time.Duration
	analysis    core.Options
	queueDepth  int
	cacheSize   int
	budget      int64
	durableDir  string
	snapEvery   time.Duration
	journalSync time.Duration
	tracer      *obs.Tracer
	tenants     *tenant.Registry
}

// WithWorkers bounds the number of concurrently executing requests.
// Further requests queue until a slot frees. n <= 0 means GOMAXPROCS.
func WithWorkers(n int) Option { return func(c *config) { c.workers = n } }

// WithRequestTimeout applies a default per-request deadline. A tighter
// deadline on the request's own context still wins. 0 means none.
func WithRequestTimeout(d time.Duration) Option { return func(c *config) { c.timeout = d } }

// WithAnalysisOptions sets the predictor options used for every request.
func WithAnalysisOptions(o core.Options) Option { return func(c *config) { c.analysis = o } }

// WithQueueDepth bounds how many requests may wait for a worker slot.
// Requests beyond the bound are shed immediately with an
// ErrOverload-classified ErrBusy instead of queueing. n <= 0 means
// unbounded (queue until the context expires).
func WithQueueDepth(n int) Option { return func(c *config) { c.queueDepth = n } }

// WithCacheSize bounds each of the result caches (programs, analyses,
// runs, compares) to n entries with LRU eviction, so unbounded distinct
// inputs cannot grow memory without limit. n <= 0 means unbounded. A
// durable service's snapshot holds the run cache's entries, so n bounds
// it too.
func WithCacheSize(n int) Option { return func(c *config) { c.cacheSize = n } }

// WithBudget sets the default interpreter instruction budget applied to
// requests that do not set one (and whose benchmark does not carry its
// own). n <= 0 keeps the interpreter default (64M instructions).
func WithBudget(n int64) Option { return func(c *config) { c.budget = n } }

// WithTracer replaces the service's tracer: its recent ring and its
// tail-sampled archive serve /debug/traces, and a durable service
// persists the archive. nil restores the default tracer (256 recent
// traces, default ArchivePolicy).
func WithTracer(t *obs.Tracer) Option { return func(c *config) { c.tracer = t } }

// Service is a concurrent, cached prediction pipeline. Create one with
// New and share it: all methods are safe for concurrent use.
type Service struct {
	cfg      config
	programs *flightCache[*mir.Program]
	analyses *flightCache[*core.Analysis]
	runs     *flightCache[*cachedRun]
	compares *flightCache[*CompareResult]
	met      *metrics
	tracer   *obs.Tracer

	// sem is the worker pool, a buffered channel used as a counting
	// semaphore.
	sem chan struct{}

	dur        *durability
	durInitErr error
	recovering atomic.Bool
	closeOnce  sync.Once
}

// New creates a Service.
func New(opts ...Option) *Service {
	cfg := config{workers: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	s := &Service{
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.workers),
		programs: newFlightCache[*mir.Program](cfg.cacheSize),
		analyses: newFlightCache[*core.Analysis](cfg.cacheSize),
		runs:     newFlightCache[*cachedRun](cfg.cacheSize),
		compares: newFlightCache[*CompareResult](cfg.cacheSize),
		met:      newMetrics(time.Now()),
		tracer:   cfg.tracer,
	}
	if s.tracer == nil {
		s.tracer = obs.NewTracer(256, nil, obs.ArchivePolicy{})
	}
	s.tracer.Register(s.met.reg)
	if cfg.durableDir != "" {
		s.durInitErr = s.initDurability()
	}
	if cfg.tenants != nil {
		s.met.seedTenantFamilies()
	}
	s.wireFuncMetrics()
	return s
}

// wireFuncMetrics registers exposition-time closures over state that
// lives outside the metrics struct: cache sizes and the journal's fsync
// count. Values are read when /metrics is scraped, never on the hot path.
func (s *Service) wireFuncMetrics() {
	reg := s.met.reg
	for _, c := range []struct {
		name  string
		stats func() cacheSnapshot
	}{
		{"programs", s.programs.stats},
		{"analyses", s.analyses.stats},
		{"runs", s.runs.stats},
		{"compares", s.compares.stats},
	} {
		st := c.stats
		reg.GaugeFunc("ballarus_cache_entries", "Entries currently held per result cache.",
			func() float64 { return float64(st().entries) }, "cache", c.name)
		reg.GaugeFunc("ballarus_cache_capacity", "Configured bound per result cache (0 = unbounded).",
			func() float64 { return float64(st().capacity) }, "cache", c.name)
		reg.CounterFunc("ballarus_cache_evictions_total", "LRU evictions per result cache.",
			func() float64 { return float64(st().evictions) }, "cache", c.name)
	}
	reg.GaugeFunc("ballarus_workers", "Configured worker slots.",
		func() float64 { return float64(s.cfg.workers) })
	reg.CounterFunc("ballarus_journal_syncs_total", "Journal fsync batches written since boot.",
		func() float64 {
			if s.dur == nil {
				return 0
			}
			return float64(s.dur.journal.Syncs())
		})
}

// Metrics returns the service's metric registry, ready to serve as a
// Prometheus text exposition. The registry is live: scraping it reads
// the same counters Stats() snapshots.
func (s *Service) Metrics() *obs.Registry { return s.met.reg }

// Tracer returns the service's tracer — blserve starts a trace per
// request against it and serves its recent ring and archive at
// /debug/traces.
func (s *Service) Tracer() *obs.Tracer { return s.tracer }

// Request describes one prediction job. Exactly one of Source or
// Benchmark must be set.
type Request struct {
	// Source is minic source to compile.
	Source string
	// Benchmark names a suite benchmark to use instead of Source.
	Benchmark string
	// Dataset selects the benchmark dataset feeding Input (Benchmark
	// requests only; Input overrides it when non-nil).
	Dataset int
	// CompileOpts control code generation for Source requests.
	CompileOpts minic.Options
	// Optimize runs the MIR optimizer between compile and analyze.
	Optimize bool
	// Order is the heuristic priority order; an invalid (e.g. zero)
	// order means the paper's default.
	Order core.Order
	// Input is the program's input stream.
	Input []int64
	// Budget caps executed instructions; 0 means the benchmark's budget
	// or the interpreter default.
	Budget int64
	// Seed is the interpreter's rand() seed.
	Seed int64
}

// Result is the outcome of one prediction job. Results may be shared
// between requests that hit the cache, so treat every field as read-only.
type Result struct {
	// Name echoes the benchmark name, or "<source>" for source requests.
	Name string
	// Analysis and Profile expose the underlying pipeline artifacts for
	// callers that drill into per-branch detail.
	Analysis *core.Analysis
	Profile  *profile.Profile
	// Predictions is the per-branch prediction vector under Order.
	Predictions []core.Prediction

	StaticBranches  int
	DynamicBranches int64
	Steps           int64
	ExitCode        int64
	Output          string

	// Scores over all dynamic branches, in the paper's miss/perfect
	// notation: the prioritized heuristic combiner, the voting combiner,
	// and the loop+random and backward-taken/forward-not-taken baselines.
	Heuristic profile.Rate
	Vote      profile.Rate
	LoopRand  profile.Rate
	BTFNT     profile.Rate

	// Cache outcome of this particular request.
	ProgramCached  bool
	AnalysisCached bool
	RunCached      bool
	Elapsed        time.Duration
}

// ErrBusy is returned when a request was shed: the queue was full, or
// the request's context expired while queued. It classifies as
// resilience.ErrOverload.
var ErrBusy = errors.New("service: request shed while queued")

// Stats returns a point-in-time snapshot of the service counters,
// including cache eviction counts and durability/recovery state.
func (s *Service) Stats() Stats {
	dur := DurabilityStats{
		Enabled:         s.dur != nil,
		SnapshotEntries: s.met.recSnapEntries.Value(),
		SnapshotSkipped: s.met.recSnapSkipped.Value(),
		JournalReplayed: s.met.recJrnlReplayed.Value(),
		JournalSkipped:  s.met.recJrnlSkipped.Value(),
		Warmed:          s.met.recWarmed.Value(),
		SnapshotWrites:  s.met.snapshotWrites.Value(),
		SnapshotErrors:  s.met.snapshotErrors.Value(),
		JournalAppends:  s.met.journalAppends.Value(),
	}
	return s.met.snapshot(
		s.programs.stats(), s.analyses.stats(), s.runs.stats(), s.compares.stats(), dur)
}

// resolve normalizes a request: benchmark lookup, defaulted input,
// budget, and order. Failures classify as invalid input.
func (s *Service) resolve(req *Request) error {
	if (req.Source == "") == (req.Benchmark == "") {
		return resilience.Invalid(errors.New("service: exactly one of Source or Benchmark must be set"))
	}
	if req.Benchmark != "" {
		b := suite.Get(req.Benchmark)
		if b == nil {
			return resilience.Invalid(fmt.Errorf("service: no benchmark %q", req.Benchmark))
		}
		if req.Dataset < 0 || req.Dataset >= len(b.Data) {
			return resilience.Invalid(fmt.Errorf("service: %s has datasets 0..%d", b.Name, len(b.Data)-1))
		}
		req.Source = b.Source
		if req.Input == nil {
			req.Input = b.Data[req.Dataset].Input
		}
		if req.Budget == 0 {
			req.Budget = b.Budget
		}
	}
	if req.Budget == 0 {
		req.Budget = s.cfg.budget
	}
	if !req.Order.Valid() {
		req.Order = core.DefaultOrder
	}
	return nil
}

// keys derives the content-hash cache keys for a resolved request.
func (req *Request) keys() (progKey, analysisKey, runKey string) {
	progKey = newHasher().
		str(req.Source).
		bool(req.CompileOpts.SpillLocals).
		bool(req.CompileOpts.NoJumpTables).
		bool(req.Optimize).
		sum()
	return progKey,
		newHasher().str(progKey).str("analysis").sum(),
		newHasher().str(progKey).str("run").i64s(req.Input).i64(req.Budget).i64(req.Seed).sum()
}

// Predict runs the pipeline for one request, deduplicating and caching
// shared work. It blocks while the service is saturated (up to the
// configured queue depth — beyond it requests are shed immediately);
// ctx cancels both queueing and every pipeline stage. Every returned
// error is classified into the resilience taxonomy: errors.Is against
// exactly one of resilience.ErrInvalidInput, ErrResourceExhausted,
// ErrOverload, ErrTimeout, or ErrInternal holds.
func (s *Service) Predict(ctx context.Context, req Request) (*Result, error) {
	start := time.Now()
	res, err := serve(s, ctx, func(ctx context.Context) (*Result, error) { return s.predict(ctx, req) })
	if err == nil {
		res.Elapsed = time.Since(start)
	}
	return res, err
}

// serve is the one request path behind Predict and Compare: it applies
// the service timeout, admits the request, runs it, and keeps the
// request counters.
func serve[R any](s *Service, ctx context.Context, run func(context.Context) (*R, error)) (*R, error) {
	s.met.requests.Add(1)
	ctx, cancel := s.withTimeout(ctx)
	defer cancel()
	done, err := s.admitTraced(ctx)
	if err != nil {
		s.met.errors.Add(1)
		return nil, err
	}
	defer done()
	s.met.inFlight.Add(1)
	defer s.met.inFlight.Add(-1)

	res, err := run(ctx)
	if err != nil {
		s.met.errors.Add(1)
		if isCanceled(err) {
			s.met.canceled.Add(1)
		}
		return nil, err
	}
	s.met.completed.Add(1)
	return res, nil
}

// withTimeout applies the service's request timeout, if any, to ctx. A
// tighter deadline already on ctx still wins.
func (s *Service) withTimeout(ctx context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.timeout > 0 {
		return context.WithTimeout(ctx, s.cfg.timeout)
	}
	return ctx, func() {}
}

// admitTraced wraps tenant-quota and worker-slot admission in an
// "admit" span and observes the remaining deadline. The effective
// deadline — the tighter of the client's propagated X-Deadline-Ms and
// the service timeout — is an input worth watching: a fleet whose
// granted budgets shrink is about to start timing out. On success the
// returned function releases both the worker slot and the tenant's
// in-flight unit; call it exactly once when the request finishes.
func (s *Service) admitTraced(ctx context.Context) (func(), error) {
	asp := obs.StartSpan(ctx, "admit")
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl)
		s.met.deadline.Observe(remaining.Seconds())
		asp.Attr("deadline_remaining", remaining.Round(time.Millisecond).String())
	}
	id, release := "", func() {}
	if s.cfg.tenants != nil {
		id = tenant.FromContext(ctx)
		asp.Attr("tenant", id)
		s.met.tenantRequest(id)
		if !preadmitted(ctx) {
			var err error
			if release, err = s.charge(id, 1); err != nil {
				s.met.shed.Add(1)
				asp.End(err)
				return nil, err
			}
		}
	}
	err := s.admit(ctx, id)
	asp.End(err)
	if err != nil {
		release()
		return nil, err
	}
	return func() { <-s.sem; release() }, nil
}

// admit implements admission control: take a worker slot immediately if
// one is free, otherwise queue — but only while fewer than queueDepth
// requests are already waiting. Without tenancy, requests beyond the
// depth are shed in arrival order; with tenancy, saturation sheds the
// tenants over their weighted max-min fair share first (see fairShed)
// and lets under-share tenants keep queueing up to a hard cap. Shed
// requests and queued requests whose context expires fail with
// ErrBusy, classified as overload. On success the caller holds one
// slot of s.sem and releases it with <-s.sem.
func (s *Service) admit(ctx context.Context, id string) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	q := s.met.queued.Add(1)
	defer s.met.queued.Add(-1)
	if d := s.cfg.queueDepth; d > 0 && q > int64(d) && s.fairShed(id, q) {
		s.met.shed.Add(1)
		return s.shedError(id)
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		s.met.canceled.Add(1)
		s.met.shed.Add(1)
		return resilience.Overloaded(fmt.Errorf("%w: %v", ErrBusy, ctx.Err()))
	}
}

// runStage runs one pipeline stage, the only way any of the seven
// runs. A request whose context has already ended fails before the
// stage starts. The stage runs under its span, behind panic isolation
// and a faultpoint named "service.<stage>" for deterministic fault
// injection. An interpreter interrupt caused by the request's context
// reports as that context's error, the outcome is classified into the
// typed taxonomy, and it is recorded once, in the stage's metrics. A
// failure fails this request only.
func runStage[V any](s *Service, ctx context.Context, name string, fn func() (V, bool, error)) (V, bool, error) {
	var val V
	var hit bool
	if err := ctx.Err(); err != nil {
		return val, false, resilience.Classify(err)
	}
	st := s.met.stages[name]
	sp := obs.StartSpan(ctx, st.span)
	start := time.Now()
	err := resilience.Safely(st.fault, func() error {
		if ferr := resilience.Faultpoint(ctx, st.fault); ferr != nil {
			return ferr
		}
		var ferr error
		val, hit, ferr = fn()
		return ferr
	})
	if err != nil {
		// Safely returns a *PanicError unwrapped only for a panic it
		// recovered itself, so a panic in a nested stage (optimize runs
		// inside compile) counts once.
		if _, ok := err.(*resilience.PanicError); ok {
			s.met.panics.Add(1)
		}
		if errors.Is(err, interp.ErrInterrupted) && ctx.Err() != nil {
			err = ctx.Err()
		}
		err = resilience.Classify(err)
	}
	st.record(time.Since(start), hit, err)
	if st.cacheable && err == nil {
		if hit {
			sp.Attr("cache", "hit")
		} else {
			sp.Attr("cache", "miss")
		}
	}
	sp.End(err)
	if err != nil {
		return val, false, fmt.Errorf("service: %s: %w", name, err)
	}
	return val, hit, nil
}

// frontHalf is what stages 1-4 hand on: the program, its analysis and
// the prediction vector under the request's order, with the run key
// and the cache outcomes.
type frontHalf struct {
	prog        *mir.Program
	analysis    *core.Analysis
	preds       []core.Prediction
	runKey      string
	progHit     bool
	analysisHit bool
}

// front resolves req and runs the stages Predict and Compare share:
// compile (with the optional optimizer), analyze and predict. Both hit
// the same caches under the same keys, so a compare after a predict of
// the same program pays for neither compile nor analysis (nor vice
// versa).
func (s *Service) front(ctx context.Context, req *Request) (f frontHalf, err error) {
	if err := s.resolve(req); err != nil {
		return f, err
	}
	progKey, analysisKey, runKey := req.keys()
	f.runKey = runKey

	// Stages 1+2: compile (and optionally optimize) the source. The
	// cache stores the post-optimizer program so the analysis cache keys
	// align. Compiler rejections are the client's fault.
	f.prog, f.progHit, err = runStage(s, ctx, stageCompile, func() (*mir.Program, bool, error) {
		return s.programs.do(ctx, progKey, func() (*mir.Program, error) {
			p, err := minic.Compile(req.Source, req.CompileOpts)
			if err != nil {
				return nil, resilience.Invalid(err)
			}
			if !req.Optimize {
				return p, nil
			}
			p, _, err = runStage(s, ctx, stageOptimize, func() (*mir.Program, bool, error) {
				return opt.Program(p), false, nil
			})
			return p, err
		})
	})
	if err != nil {
		return f, err
	}

	// Stage 3: Ball-Larus analysis.
	f.analysis, f.analysisHit, err = runStage(s, ctx, stageAnalyze, func() (*core.Analysis, bool, error) {
		return s.analyses.do(ctx, analysisKey, func() (*core.Analysis, error) {
			return core.Analyze(f.prog, s.cfg.analysis)
		})
	})
	if err != nil {
		return f, err
	}

	// Stage 4: the prediction vector under the requested order. Cheap,
	// derived, and order-specific, so computed per request.
	f.preds, _, err = runStage(s, ctx, stagePredict, func() ([]core.Prediction, bool, error) {
		return f.analysis.Predictions(req.Order), false, nil
	})
	return f, err
}

func (s *Service) predict(ctx context.Context, req Request) (*Result, error) {
	f, err := s.front(ctx, &req)
	if err != nil {
		return nil, err
	}

	// Stage 5: execute. The interpreter is deterministic given the
	// config, so results are content-addressed like everything else.
	// A computed run is journaled once it is in the run cache.
	run, runHit, err := runStage(s, ctx, stageExecute, func() (*cachedRun, bool, error) {
		return s.runs.do(ctx, f.runKey, func() (*cachedRun, error) {
			r, err := interp.Run(f.prog, interp.Config{
				Input:     req.Input,
				Budget:    req.Budget,
				Seed:      req.Seed,
				Interrupt: ctx.Done(),
			})
			if err != nil {
				return nil, err
			}
			return &cachedRun{Result: r, recipe: recipeOf(&req)}, nil
		})
	})
	if err != nil {
		return nil, err
	}
	if !runHit {
		s.journalRun(run)
	}

	// Stage 6: score the predictions against the measured profile.
	res := &Result{
		Name:            req.Benchmark,
		Analysis:        f.analysis,
		Profile:         run.Profile,
		Predictions:     f.preds,
		StaticBranches:  len(f.analysis.Branches),
		DynamicBranches: run.Profile.Total(),
		Steps:           run.Steps,
		ExitCode:        run.ExitCode,
		Output:          run.Output,
		ProgramCached:   f.progHit,
		AnalysisCached:  f.analysisHit,
		RunCached:       runHit,
	}
	if res.Name == "" {
		res.Name = "<source>"
	}
	_, _, err = runStage(s, ctx, stageScore, func() (struct{}, bool, error) {
		hm, perf, dyn := core.Tally(f.preds, run.Profile)
		vm, _, _ := core.Tally(f.analysis.VotePredictions(core.DefaultWeights), run.Profile)
		lm, _, _ := core.Tally(f.analysis.LoopRandPredictions(), run.Profile)
		bm, _, _ := core.Tally(f.analysis.BTFNTPredictions(), run.Profile)
		res.Heuristic = profile.MakeRate(hm, perf, dyn)
		res.Vote = profile.MakeRate(vm, perf, dyn)
		res.LoopRand = profile.MakeRate(lm, perf, dyn)
		res.BTFNT = profile.MakeRate(bm, perf, dyn)
		s.met.observeScores(hm, vm, lm, bm, perf, dyn)
		s.met.observeAttribution(f.analysis, req.Order, run.Profile)
		return struct{}{}, false, nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

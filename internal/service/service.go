// Package service runs the full ballarus pipeline — compile, optimize,
// analyze, predict, execute, score — as a concurrent, cached prediction
// service. It is the throughput layer the CLI tools, the HTTP server
// (cmd/blserve), and the evaluation harness share:
//
//   - bounded concurrency: at most Workers requests execute at once, the
//     rest queue (respecting their contexts);
//   - content-hash caching with single-flight deduplication: compiled
//     programs, analyses, and deterministic run results are keyed by a
//     SHA-256 of their inputs, and concurrent requests for the same key
//     share one computation;
//   - observability: per-stage latency, throughput, and cache-hit
//     counters, exposed as a Stats snapshot;
//   - cancellation: context deadlines and cancellation are honored
//     between stages and interrupt the interpreter mid-run;
//   - resilience: every error is classified into the typed taxonomy of
//     internal/resilience, each stage runs behind panic isolation and a
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

// WithTracer replaces the service's tracer (the ring buffer behind
// /debug/traces). nil restores the default 256-trace tracer.
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
		s.tracer = obs.NewTracer(256, nil)
	}
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
// request against it and serves its ring buffer at /debug/traces.
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
	s.met.requests.Add(1)
	start := time.Now()
	if s.cfg.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.timeout)
		defer cancel()
	}
	done, err := s.admitTraced(ctx)
	if err != nil {
		s.met.errors.Add(1)
		return nil, err
	}
	defer done()
	s.met.inFlight.Add(1)
	defer s.met.inFlight.Add(-1)

	res, err := s.predict(ctx, req)
	if err != nil {
		s.met.errors.Add(1)
		if isCanceled(err) {
			s.met.canceled.Add(1)
		}
		return nil, err
	}
	res.Elapsed = time.Since(start)
	s.met.completed.Add(1)
	return res, nil
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
	id, relTenant, err := s.admitTenant(ctx)
	if id != "" {
		asp.Attr("tenant", id)
	}
	if err != nil {
		s.met.shed.Add(1)
		asp.End(err)
		return nil, err
	}
	err = s.admit(ctx, id)
	asp.End(err)
	if err != nil {
		relTenant()
		return nil, err
	}
	return func() { <-s.sem; relTenant() }, nil
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

// runStage runs one failure-prone pipeline stage behind the resilience
// layer: panics are isolated into ErrInternal with captured stacks, a
// faultpoint named "service.<stage>" allows deterministic fault
// injection, and the outcome is classified into the typed taxonomy and
// recorded in the stage metrics. A failure fails this request only.
func runStage[V any](s *Service, ctx context.Context, name string, fn func() (V, bool, error)) (V, bool, error) {
	var val V
	var hit bool
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
	if resilience.IsPanic(err) {
		s.met.panics.Add(1)
	}
	err = resilience.Classify(err)
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

func (s *Service) predict(ctx context.Context, req Request) (*Result, error) {
	if err := s.resolve(&req); err != nil {
		return nil, err
	}
	progKey, analysisKey, runKey := req.keys()
	if !s.recovering.Load() {
		s.observeAccepted(&req, runKey)
	}

	// Stage 1+2: compile (and optionally optimize) the source. The cache
	// stores the post-optimizer program so the analysis cache keys align.
	// Compiler rejections are the client's fault; everything else that
	// goes wrong in a stage classifies per resilience.Classify.
	if err := ctx.Err(); err != nil {
		return nil, resilience.Classify(err)
	}
	prog, progHit, err := s.compileStage(ctx, &req, progKey)
	if err != nil {
		return nil, err
	}

	// Stage 3: Ball-Larus analysis.
	if err := ctx.Err(); err != nil {
		return nil, resilience.Classify(err)
	}
	analysis, analysisHit, err := s.analyzeStage(ctx, analysisKey, prog)
	if err != nil {
		return nil, err
	}

	// Stage 4: the prediction vector under the requested order. Cheap,
	// derived, and order-specific, so computed per request.
	if err := ctx.Err(); err != nil {
		return nil, resilience.Classify(err)
	}
	preds, _, _ := timedCtx(ctx, s.met, stagePredict, func() ([]core.Prediction, bool, error) {
		return analysis.Predictions(req.Order), false, nil
	})

	// Stage 5: execute. The interpreter is deterministic given the
	// config, so results are content-addressed like everything else.
	// Runtime faults in the program are the client's; a blown budget is
	// resource exhaustion; an interrupt caused by this request's context
	// is reported as the context's error.
	if err := ctx.Err(); err != nil {
		return nil, resilience.Classify(err)
	}
	run, runHit, err := runStage(s, ctx, stageExecute, func() (*cachedRun, bool, error) {
		r, hit, err := s.runs.do(ctx, runKey, func() (*cachedRun, error) {
			r, err := interp.Run(prog, interp.Config{
				Input:     req.Input,
				Budget:    req.Budget,
				Seed:      req.Seed,
				Interrupt: ctx.Done(),
			})
			var f *interp.Fault
			if errors.As(err, &f) {
				err = resilience.Invalid(err)
			}
			if err != nil {
				return nil, err
			}
			return &cachedRun{Result: r, recipe: recipeOf(&req)}, nil
		})
		if errors.Is(err, interp.ErrInterrupted) && ctx.Err() != nil {
			err = ctx.Err()
		}
		return r, hit, err
	})
	if err != nil {
		return nil, err
	}
	if runHit {
		s.met.runHits.Add(1)
	} else {
		s.met.runMisses.Add(1)
	}

	// Stage 6: score the predictions against the measured profile.
	res := &Result{
		Name:            req.Benchmark,
		Analysis:        analysis,
		Profile:         run.Profile,
		Predictions:     preds,
		StaticBranches:  len(analysis.Branches),
		DynamicBranches: run.Profile.Total(),
		Steps:           run.Steps,
		ExitCode:        run.ExitCode,
		Output:          run.Output,
		ProgramCached:   progHit,
		AnalysisCached:  analysisHit,
		RunCached:       runHit,
	}
	if res.Name == "" {
		res.Name = "<source>"
	}
	timedCtx(ctx, s.met, stageScore, func() (struct{}, bool, error) {
		hm, perf, dyn := core.Tally(preds, run.Profile)
		vm, _, _ := core.Tally(analysis.VotePredictions(core.DefaultWeights), run.Profile)
		lm, _, _ := core.Tally(analysis.LoopRandPredictions(), run.Profile)
		bm, _, _ := core.Tally(analysis.BTFNTPredictions(), run.Profile)
		res.Heuristic = profile.MakeRate(hm, perf, dyn)
		res.Vote = profile.MakeRate(vm, perf, dyn)
		res.LoopRand = profile.MakeRate(lm, perf, dyn)
		res.BTFNT = profile.MakeRate(bm, perf, dyn)
		s.met.observeScores(hm, vm, lm, bm, perf, dyn)
		s.met.observeAttribution(analysis, req.Order, run.Profile)
		return struct{}{}, false, nil
	})
	return res, nil
}

// compileStage runs (or cache-loads) compilation and optional
// optimization for a resolved request. Shared by Predict and Compare so
// the two pipelines hit one program cache.
func (s *Service) compileStage(ctx context.Context, req *Request, progKey string) (*mir.Program, bool, error) {
	return runStage(s, ctx, stageCompile, func() (*mir.Program, bool, error) {
		return s.programs.do(ctx, progKey, func() (*mir.Program, error) {
			p, err := minic.Compile(req.Source, req.CompileOpts)
			if err != nil {
				return nil, resilience.Invalid(err)
			}
			if !req.Optimize {
				return p, nil
			}
			o, _, err := timedCtx(ctx, s.met, stageOptimize, func() (*mir.Program, bool, error) {
				return opt.Program(p), false, nil
			})
			return o, err
		})
	})
}

// analyzeStage runs (or cache-loads) the Ball-Larus analysis. Shared by
// Predict and Compare.
func (s *Service) analyzeStage(ctx context.Context, analysisKey string, prog *mir.Program) (*core.Analysis, bool, error) {
	return runStage(s, ctx, stageAnalyze, func() (*core.Analysis, bool, error) {
		return s.analyses.do(ctx, analysisKey, func() (*core.Analysis, error) {
			return core.Analyze(prog, s.cfg.analysis)
		})
	})
}

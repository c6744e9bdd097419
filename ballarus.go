// Package ballarus is a from-scratch reproduction of Ball & Larus,
// "Branch Prediction For Free" (PLDI 1993): program-based static branch
// prediction using natural-loop analysis for loop branches and seven
// simple heuristics (Opcode, Loop, Call, Return, Guard, Store, Pointer)
// for non-loop branches.
//
// The package is a facade over the implementation packages:
//
//   - a MIPS-like IR (mir) and CFG analyses (cfg),
//   - a compiler for a small C-like language (minic) used to author the
//     23-benchmark suite (suite),
//   - an interpreter that produces edge profiles and event traces
//     (interp, profile), standing in for the paper's QPT tool,
//   - the predictor itself (core), the Section 6 trace analysis (trace),
//     the Section 5 ordering experiments (orders), and the harness that
//     regenerates every table and figure (eval).
//
// Quick start:
//
//	prog, _ := ballarus.CompileOpt(src)
//	analysis, _ := ballarus.AnalyzeCtx(ctx, prog)
//	preds := analysis.Predictions(ballarus.DefaultOrder)
//	res, _ := ballarus.ExecuteCtx(ctx, prog, ballarus.WithInput(input))
//	score := ballarus.Score(analysis, preds, res.Profile)
//
// For sustained traffic, use the concurrent cached pipeline instead of
// the one-shot calls:
//
//	svc := ballarus.NewService()
//	res, _ := svc.Predict(ctx, ballarus.PredictRequest{Source: src})
package ballarus

import (
	"context"
	"errors"

	"ballarus/internal/core"
	"ballarus/internal/dynpred"
	"ballarus/internal/eval"
	"ballarus/internal/freq"
	"ballarus/internal/interp"
	"ballarus/internal/layout"
	"ballarus/internal/minic"
	"ballarus/internal/mir"
	"ballarus/internal/opt"
	"ballarus/internal/orders"
	"ballarus/internal/profile"
	"ballarus/internal/resilience"
	"ballarus/internal/service"
	"ballarus/internal/suite"
	"ballarus/internal/trace"
)

// Re-exported types. Aliases keep the public API usable without importing
// the internal packages.
type (
	// Program is a compiled MIR program.
	Program = mir.Program
	// CompileOptions control minic code generation.
	CompileOptions = minic.Options
	// Analysis is the full Ball-Larus static analysis of a program.
	Analysis = core.Analysis
	// AnalysisOptions configure the predictor (ablations).
	AnalysisOptions = core.Options
	// Branch is the per-branch analysis result.
	Branch = core.Branch
	// Prediction is a static taken/fall prediction.
	Prediction = core.Prediction
	// Heuristic identifies one of the seven non-loop heuristics.
	Heuristic = core.Heuristic
	// Order is a priority order over the heuristics.
	Order = core.Order
	// RunConfig configures program execution.
	RunConfig = interp.Config
	// RunResult is the outcome of a program execution.
	RunResult = interp.Result
	// Profile is an edge profile.
	Profile = profile.Profile
	// Rate is a miss-rate pair in the paper's C/D notation.
	Rate = profile.Rate
	// Event is one trace record.
	Event = interp.Event
	// Dist is a sequence-length distribution between breaks in control.
	Dist = trace.Dist
	// Benchmark is one suite program.
	Benchmark = suite.Benchmark
	// Evaluator regenerates the paper's tables and figures.
	Evaluator = eval.Evaluator
	// Sweep is the 5040-order miss-rate matrix.
	Sweep = orders.Sweep
)

// Prediction values and heuristics.
const (
	PredNone  = core.PredNone
	PredTaken = core.PredTaken
	PredFall  = core.PredFall

	Opcode  = core.Opcode
	LoopH   = core.LoopH
	CallH   = core.CallH
	ReturnH = core.ReturnH
	Guard   = core.Guard
	Store   = core.Store
	Point   = core.Point
)

// DefaultOrder is the paper's Table 5 priority order:
// Point, Call, Opcode, Return, Store, Loop, Guard.
var DefaultOrder = core.DefaultOrder

// Weights configure the alternative voting combiner the paper mentions
// ("a voting protocol with weighings").
type Weights = core.Weights

// DefaultWeights are accuracy-derived voting weights from the paper's
// Table 3 means.
var DefaultWeights = core.DefaultWeights

// FitWeights derives voting weights from observed per-heuristic miss
// rates (percent).
func FitWeights(missPct [core.NumHeuristics]float64) Weights {
	return core.FitWeights(missPct)
}

// ---- Context-first pipeline API ----
//
// Every pipeline entry point has a context-aware, functional-options
// form.

// CompileOption configures compilation.
type CompileOption func(*CompileOptions)

// SpillLocals keeps every local in the stack frame (the "-O0" ablation).
func SpillLocals() CompileOption {
	return func(o *CompileOptions) { o.SpillLocals = true }
}

// NoJumpTables lowers every switch to an if-else chain.
func NoJumpTables() CompileOption {
	return func(o *CompileOptions) { o.NoJumpTables = true }
}

// WithCompileOptions replaces the options wholesale.
func WithCompileOptions(opts CompileOptions) CompileOption {
	return func(o *CompileOptions) { *o = opts }
}

// CompileOpt compiles minic source to MIR.
func CompileOpt(src string, opts ...CompileOption) (*Program, error) {
	var o CompileOptions
	for _, opt := range opts {
		opt(&o)
	}
	return minic.Compile(src, o)
}

// AnalyzeOption configures the Ball-Larus analysis.
type AnalyzeOption func(*AnalysisOptions)

// NoPostdom drops the postdomination requirement from the Loop, Call,
// Guard, and Store heuristics (ablation).
func NoPostdom() AnalyzeOption {
	return func(o *AnalysisOptions) { o.NoPostdom = true }
}

// GuardDepth generalizes the Guard heuristic to follow controlled paths
// up to depth extra blocks (Section 4.4); 0 reproduces the paper.
func GuardDepth(depth int) AnalyzeOption {
	return func(o *AnalysisOptions) { o.GuardDepth = depth }
}

// WithAnalysisOptions replaces the options wholesale.
func WithAnalysisOptions(opts AnalysisOptions) AnalyzeOption {
	return func(o *AnalysisOptions) { *o = opts }
}

// AnalyzeCtx runs the Ball-Larus analysis. The zero-option call
// reproduces the paper. Analysis is fast and runs to completion; ctx is
// checked on entry so callers on a canceled path fail early.
func AnalyzeCtx(ctx context.Context, prog *Program, opts ...AnalyzeOption) (*Analysis, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var o AnalysisOptions
	for _, opt := range opts {
		opt(&o)
	}
	return core.Analyze(prog, o)
}

// RunOption configures program execution.
type RunOption func(*RunConfig)

// WithInput feeds an integer input stream to readi/readc/readf.
func WithInput(input []int64) RunOption {
	return func(c *RunConfig) { c.Input = input }
}

// WithTextInput feeds a string as a character input stream.
func WithTextInput(s string) RunOption {
	return func(c *RunConfig) {
		in := make([]int64, len(s))
		for i := 0; i < len(s); i++ {
			in[i] = int64(s[i])
		}
		c.Input = in
	}
}

// WithBudget caps the executed instruction count (0 means the default).
func WithBudget(n int64) RunOption { return func(c *RunConfig) { c.Budget = n } }

// WithSeed sets the interpreter's rand() seed.
func WithSeed(seed int64) RunOption { return func(c *RunConfig) { c.Seed = seed } }

// WithMemWords sets the machine memory size in words.
func WithMemWords(n int) RunOption { return func(c *RunConfig) { c.MemWords = n } }

// CollectEvents records the branch-event trace (Section 6 experiments).
func CollectEvents() RunOption { return func(c *RunConfig) { c.CollectEvents = true } }

// CollectInstrCounts records per-instruction execution counts.
func CollectInstrCounts() RunOption {
	return func(c *RunConfig) { c.CollectInstrCounts = true }
}

// WithRunConfig replaces the configuration wholesale.
func WithRunConfig(cfg RunConfig) RunOption { return func(c *RunConfig) { *c = cfg } }

// ExecuteCtx runs a program under the interpreter. Cancellation or
// expiry of ctx interrupts the run within a few thousand instructions
// and is reported as the context's error.
func ExecuteCtx(ctx context.Context, prog *Program, opts ...RunOption) (*RunResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var cfg RunConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	cfg.Interrupt = ctx.Done()
	res, err := interp.Run(prog, cfg)
	if errors.Is(err, interp.ErrInterrupted) && ctx.Err() != nil {
		err = ctx.Err()
	}
	return res, err
}

// ---- Static vs. dynamic comparison ----
//
// The paper positions program-based prediction against the dynamic
// hardware schemes of its day. Service.Compare races the streaming
// dynamic predictors (one-bit, two-bit, bimodal, gshare, TAGE — see
// internal/dynpred) against the Ball-Larus heuristics and the perfect
// static predictor over one execution, and classifies the contested
// branches.

// Registry names of two built-in dynamic predictors, plus the labels of
// the two static entrants every comparison includes.
const (
	GsharePredictor = dynpred.NameGshare
	TAGEPredictor   = dynpred.NameTAGE

	CompareStatic  = dynpred.NameStatic
	ComparePerfect = dynpred.NamePerfect
)

// DynPredictorNames lists the registered dynamic predictor names, sorted.
var DynPredictorNames = dynpred.Names

// ---- Prediction service ----

// Service is the concurrent, cached pipeline: bounded concurrency,
// single-flight content-hash caches, per-stage metrics, and context
// cancellation. See internal/service.
type Service = service.Service

// ServiceOption configures NewService.
type ServiceOption = service.Option

// PredictRequest describes one service job.
type PredictRequest = service.Request

// PredictResult is the outcome of one service job.
type PredictResult = service.Result

// CompareRequest describes one service tournament job
// (Service.Compare): the usual pipeline inputs plus the dynamic
// backends to race.
type CompareRequest = service.CompareRequest

// CompareResult is the outcome of one service tournament job.
type CompareResult = service.CompareResult

// Service configuration options.
var (
	// WithWorkers bounds concurrently executing requests.
	WithWorkers = service.WithWorkers
	// WithRequestTimeout applies a default per-request deadline.
	WithRequestTimeout = service.WithRequestTimeout
	// WithQueueDepth bounds how many requests may wait for a worker
	// slot; excess load is shed with an overload error.
	WithQueueDepth = service.WithQueueDepth
	// WithCacheSize bounds each result cache to n entries (LRU).
	WithCacheSize = service.WithCacheSize
	// WithServiceBudget sets the default instruction budget for requests
	// that don't carry one. (WithBudget is the per-run execution option.)
	WithServiceBudget = service.WithBudget
)

// NewService creates a prediction service.
func NewService(opts ...ServiceOption) *Service { return service.New(opts...) }

// ErrServiceBusy is returned when a request was shed: the queue was
// full, or the request's context expired while queued.
var ErrServiceBusy = service.ErrBusy

// ---- Resilience: the typed error taxonomy ----
//
// Every error returned by Service.Predict classifies, via errors.Is,
// into exactly one of the five kinds below; the original cause chain
// (ErrBudget, context.DeadlineExceeded, ...) stays reachable.

// PanicError is a pipeline panic recovered into an error; it
// classifies as ErrInternal and carries the captured stack.
type PanicError = resilience.PanicError

// Error kinds and related sentinels.
var (
	// ErrInvalidInput: the request itself is at fault (bad source,
	// unknown benchmark, program faulted at runtime).
	ErrInvalidInput = resilience.ErrInvalidInput
	// ErrResourceExhausted: the request exceeded a resource cap, e.g.
	// the instruction budget.
	ErrResourceExhausted = resilience.ErrResourceExhausted
	// ErrOverload: the request was shed (full queue or tenant quota).
	ErrOverload = resilience.ErrOverload
	// ErrQuotaExceeded refines ErrOverload: the request's tenant is
	// over its per-tenant quota. Matching errors also match ErrOverload.
	ErrQuotaExceeded = resilience.ErrQuotaExceeded
	// ErrTimeout: a deadline expired or the request was canceled.
	ErrTimeout = resilience.ErrTimeout
	// ErrInternal: a service-side failure (bug, recovered panic).
	ErrInternal = resilience.ErrInternal
	// ErrBudget is the interpreter's instruction-budget sentinel; it
	// classifies as ErrResourceExhausted.
	ErrBudget = interp.ErrBudget
)

// ErrorKind returns the taxonomy kind of err (one of the five Err*
// sentinels above), or nil if err is nil or unclassified.
func ErrorKind(err error) error { return resilience.KindOf(err) }

// Score reports the dynamic miss rate of a prediction vector against a
// profile, over all branches, in the paper's miss/perfect notation.
func Score(a *Analysis, preds []Prediction, p *Profile) Rate {
	return profile.MakeRate(core.Tally(preds, p))
}

// Sequences computes the Section 6 sequence-length distribution of a
// traced run under a prediction vector.
func Sequences(res *RunResult, preds []Prediction) *Dist {
	return trace.Sequences(res.Events, res.TailLen, trace.PredictionVector(preds))
}

// PerfectSequences computes the distribution under the perfect static
// predictor derived from the run's own profile.
func PerfectSequences(res *RunResult) *Dist {
	return trace.Sequences(res.Events, res.TailLen, trace.PerfectVector(res.Profile))
}

// FreqOptions control static profile estimation.
type FreqOptions = freq.Options

// FreqQuality summarizes an estimator's agreement with a measured profile.
type FreqQuality = freq.Quality

// EstimateFrequencies statically estimates per-block execution frequencies
// (per procedure invocation) from the Ball-Larus predictions — a profile
// "for free".
func EstimateFrequencies(a *Analysis, order Order, opts FreqOptions) [][]float64 {
	return freq.Estimate(a, order, opts)
}

// ActualFrequencies derives measured per-block counts from a run executed
// with RunConfig.CollectInstrCounts.
func ActualFrequencies(a *Analysis, res *RunResult) [][]float64 {
	return freq.Actual(a, res.InstrCounts)
}

// EvaluateFrequencies scores an estimate against measured block counts.
func EvaluateFrequencies(a *Analysis, est, act [][]float64) FreqQuality {
	return freq.Evaluate(a, est, act)
}

// Optimize runs the MIR optimizer: constant/copy propagation and folding,
// branch folding, dead-code and unreachable-code elimination, and jump
// threading. Semantics-preserving.
func Optimize(prog *Program) *Program { return opt.Program(prog) }

// Reorder lays out a program's basic blocks along predicted paths
// (prediction-driven code positioning): correctly predicted branches fall
// through, so a predict-not-taken machine stalls only on mispredictions.
// The result computes exactly what the input computes.
func Reorder(a *Analysis, preds []Prediction) (*Program, error) {
	return layout.Reorder(a, preds)
}

// TakenRate is the fraction of dynamic conditional branches taken in a
// profile — the quantity Reorder minimizes.
func TakenRate(p *Profile) float64 { return layout.TakenRate(p.Taken, p.Fall) }

// NewEvaluator creates the table/figure reproduction harness.
func NewEvaluator() *Evaluator { return eval.New() }

// Benchmarks returns the 23-program suite.
func Benchmarks() []*Benchmark { return suite.All() }

// GetBenchmark returns a suite benchmark by name, or nil.
func GetBenchmark(name string) *Benchmark { return suite.Get(name) }

// Package eval is the reproduction harness: it runs the benchmark suite
// under the interpreter, joins edge profiles with the static analysis, and
// regenerates every table (1-7) and graph (1-13) of the paper.
package eval

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"ballarus/internal/core"
	"ballarus/internal/interp"
	"ballarus/internal/mir"
	"ballarus/internal/orders"
	"ballarus/internal/profile"
	"ballarus/internal/service"
	"ballarus/internal/suite"
)

// Run is one benchmark executed on one dataset, with its analysis joined.
type Run struct {
	Bench    *suite.Benchmark
	Dataset  suite.Dataset
	Prog     *mir.Program
	Analysis *core.Analysis
	Profile  *profile.Profile
	Steps    int64
	Output   string
}

// Evaluator caches compiled programs, analyses, and runs, the order
// sweep, and the exact subset experiment over it.
type Evaluator struct {
	mu       sync.Mutex
	analyses sync.Map // benchmark name -> *analysisEntry
	runs     map[string]*Run
	sweep    *orders.Sweep
	subsets  *orders.SubsetResult
}

// analysisEntry memoizes one benchmark's analysis; the Once means
// concurrent requests share a single compile+analyze instead of
// serializing every benchmark behind one evaluator lock.
type analysisEntry struct {
	once sync.Once
	a    *core.Analysis
	err  error
}

// New creates an evaluator.
func New() *Evaluator {
	return &Evaluator{runs: map[string]*Run{}}
}

// Analysis returns the (cached) static analysis for a benchmark.
func (e *Evaluator) Analysis(b *suite.Benchmark) (*core.Analysis, error) {
	ei, _ := e.analyses.LoadOrStore(b.Name, &analysisEntry{})
	ent := ei.(*analysisEntry)
	ent.once.Do(func() {
		prog, err := b.Compile()
		if err != nil {
			ent.err = err
			return
		}
		ent.a, ent.err = core.Analyze(prog, core.Options{})
	})
	return ent.a, ent.err
}

// Run executes benchmark b on dataset index ds (cached).
func (e *Evaluator) Run(b *suite.Benchmark, ds int) (*Run, error) {
	key := fmt.Sprintf("%s/%d", b.Name, ds)
	e.mu.Lock()
	if r, ok := e.runs[key]; ok {
		e.mu.Unlock()
		return r, nil
	}
	e.mu.Unlock()
	a, err := e.Analysis(b)
	if err != nil {
		return nil, err
	}
	if ds < 0 || ds >= len(b.Data) {
		return nil, fmt.Errorf("eval: %s has no dataset %d", b.Name, ds)
	}
	res, err := interp.Run(a.Prog, runConfig(b, ds))
	if err != nil {
		return nil, fmt.Errorf("eval: %s/%s: %w", b.Name, b.Data[ds].Name, err)
	}
	r := &Run{
		Bench:    b,
		Dataset:  b.Data[ds],
		Prog:     a.Prog,
		Analysis: a,
		Profile:  res.Profile,
		Steps:    res.Steps,
		Output:   res.Output,
	}
	e.mu.Lock()
	e.runs[key] = r
	e.mu.Unlock()
	return r, nil
}

// runConfig is the interpreter configuration of benchmark b on dataset
// ds. Every run of the pair under it executes the same instructions, so a
// cached Run's profile describes the events of a fresh streamed run.
func runConfig(b *suite.Benchmark, ds int) interp.Config {
	return interp.Config{Input: b.Data[ds].Input, Budget: b.Budget}
}

// DefaultRuns executes every benchmark on its default dataset, in suite
// order, in parallel.
func (e *Evaluator) DefaultRuns() ([]*Run, error) {
	return e.DefaultRunsCtx(context.Background())
}

// DefaultRunsCtx is DefaultRuns with cancellation: the fan-out is
// bounded by the CPU count via the service worker pool, and the first
// error (or ctx expiry) cancels the remaining work.
func (e *Evaluator) DefaultRunsCtx(ctx context.Context) ([]*Run, error) {
	benches := suite.All()
	runs := make([]*Run, len(benches))
	err := service.Fan(ctx, runtime.GOMAXPROCS(0), len(benches), func(ctx context.Context, i int) error {
		var err error
		runs[i], err = e.Run(benches[i], 0)
		return err
	})
	if err != nil {
		return nil, err
	}
	return runs, nil
}

// ---- Per-run metric computations ----

// Split is the loop/non-loop decomposition of one run's dynamic branches.
type Split struct {
	LoopDyn, NLDyn int64

	LoopPredMiss int64 // loop predictor misses on loop branches
	LoopPerfMiss int64 // perfect misses on loop branches

	NLPerfMiss int64 // perfect misses on non-loop branches
	TgtMiss    int64 // always-predict-target misses on non-loop branches
	RndMiss    int64 // random-prediction misses on non-loop branches
}

// Split computes the Table 2 decomposition.
func (r *Run) Split() Split {
	var s Split
	for i := range r.Analysis.Branches {
		b := &r.Analysis.Branches[i]
		dyn := r.Profile.Executed(b.ID)
		if dyn == 0 {
			continue
		}
		if b.Class == core.LoopBranch {
			s.LoopDyn += dyn
			s.LoopPredMiss += r.Profile.Misses(b.ID, b.LoopPred.Taken())
			s.LoopPerfMiss += r.Profile.PerfectMisses(b.ID)
		} else {
			s.NLDyn += dyn
			s.NLPerfMiss += r.Profile.PerfectMisses(b.ID)
			s.TgtMiss += r.Profile.Misses(b.ID, true)
			s.RndMiss += r.Profile.Misses(b.ID, b.DefaultPred.Taken())
		}
	}
	return s
}

// PctNonLoop returns the percentage of all dynamic branches that are
// non-loop (Table 2's %All column).
func (s Split) PctNonLoop() float64 {
	t := s.LoopDyn + s.NLDyn
	if t == 0 {
		return 0
	}
	return 100 * float64(s.NLDyn) / float64(t)
}

// Big reports the paper's "Big" columns: how many distinct non-loop
// branches each contribute more than 5% of dynamic non-loop branches, and
// the share those branches account for.
func (r *Run) Big() (count int, pct float64) {
	var nl int64
	for i := range r.Analysis.Branches {
		b := &r.Analysis.Branches[i]
		if b.Class == core.NonLoop {
			nl += r.Profile.Executed(b.ID)
		}
	}
	if nl == 0 {
		return 0, 0
	}
	var bigDyn int64
	for i := range r.Analysis.Branches {
		b := &r.Analysis.Branches[i]
		if b.Class != core.NonLoop {
			continue
		}
		dyn := r.Profile.Executed(b.ID)
		if 20*dyn > nl { // more than 5%
			count++
			bigDyn += dyn
		}
	}
	return count, 100 * float64(bigDyn) / float64(nl)
}

// HeurIsolated reports heuristic h applied in isolation over non-loop
// branches: its dynamic coverage (percent of non-loop branches), and the
// C/D miss rates on the branches it covers (Table 3).
func (r *Run) HeurIsolated(h core.Heuristic) (coverage float64, rate profile.Rate) {
	var nl, cov, miss, perf int64
	for i := range r.Analysis.Branches {
		b := &r.Analysis.Branches[i]
		if b.Class != core.NonLoop {
			continue
		}
		dyn := r.Profile.Executed(b.ID)
		nl += dyn
		p := b.Heur[h]
		if p == core.PredNone || dyn == 0 {
			continue
		}
		cov += dyn
		miss += r.Profile.Misses(b.ID, p.Taken())
		perf += r.Profile.PerfectMisses(b.ID)
	}
	if nl == 0 {
		return 0, profile.Rate{}
	}
	return 100 * float64(cov) / float64(nl), profile.MakeRate(miss, perf, cov)
}

// Attributed reports, under an order, each heuristic's first-applicable
// coverage and miss rates plus the Default's (Table 5). Indices 0..6 are
// heuristics (by core ID); index 7 is the Default.
func (r *Run) Attributed(order core.Order) (coverage [8]float64, rates [8]profile.Rate) {
	var nl int64
	var cov, miss, perf [8]int64
	for i := range r.Analysis.Branches {
		b := &r.Analysis.Branches[i]
		if b.Class != core.NonLoop {
			continue
		}
		dyn := r.Profile.Executed(b.ID)
		if dyn == 0 {
			continue
		}
		nl += dyn
		pred, by, ok := b.PredictWith(order)
		slot := 7
		if ok {
			slot = int(by)
		}
		cov[slot] += dyn
		miss[slot] += r.Profile.Misses(b.ID, pred.Taken())
		perf[slot] += r.Profile.PerfectMisses(b.ID)
	}
	for s := 0; s < 8; s++ {
		if nl > 0 {
			coverage[s] = 100 * float64(cov[s]) / float64(nl)
		}
		rates[s] = profile.MakeRate(miss[s], perf[s], cov[s])
	}
	return coverage, rates
}

// Final is the Table 6 row for one benchmark.
type Final struct {
	HeurCoverage float64      // % of non-loop branches some heuristic covers
	Heur         profile.Rate // miss on covered non-loop branches
	WithDefault  profile.Rate // miss on all non-loop branches
	All          profile.Rate // miss on all branches (loop + non-loop)
	LoopRand     profile.Rate // loop predictor + random, all branches
}

// Final computes the Table 6 row under an order.
func (r *Run) Final(order core.Order) Final {
	var nl, cov, covMiss, covPerf int64
	var nlMiss, nlPerf int64
	var allMiss, allPerf, allDyn int64
	var lrMiss int64
	for i := range r.Analysis.Branches {
		b := &r.Analysis.Branches[i]
		dyn := r.Profile.Executed(b.ID)
		if dyn == 0 {
			continue
		}
		perf := r.Profile.PerfectMisses(b.ID)
		allDyn += dyn
		allPerf += perf
		if b.Class == core.LoopBranch {
			m := r.Profile.Misses(b.ID, b.LoopPred.Taken())
			allMiss += m
			lrMiss += m
			continue
		}
		nl += dyn
		nlPerf += perf
		pred, _, ok := b.PredictWith(order)
		m := r.Profile.Misses(b.ID, pred.Taken())
		nlMiss += m
		allMiss += m
		lrMiss += r.Profile.Misses(b.ID, b.DefaultPred.Taken())
		if ok {
			cov += dyn
			covMiss += m
			covPerf += perf
		}
	}
	f := Final{
		Heur:        profile.MakeRate(covMiss, covPerf, cov),
		WithDefault: profile.MakeRate(nlMiss, nlPerf, nl),
		All:         profile.MakeRate(allMiss, allPerf, allDyn),
		LoopRand:    profile.MakeRate(lrMiss, allPerf, allDyn),
	}
	if nl > 0 {
		f.HeurCoverage = 100 * float64(cov) / float64(nl)
	}
	return f
}

// AllMissRate returns the miss rate over every dynamic branch for an
// arbitrary prediction vector (used by Graph 13 and ablations).
func (r *Run) AllMissRate(preds []core.Prediction) profile.Rate {
	return profile.MakeRate(core.Tally(preds, r.Profile))
}

// Benchmarks regenerating every table and figure of the paper, the
// DESIGN.md ablations, and micro-benchmarks of the pipeline stages.
//
// Each BenchmarkTableN / BenchmarkGraphN target regenerates the
// corresponding artifact per iteration (the suite's runs are cached inside
// the shared evaluator after the first iteration, so steady-state
// iterations measure the analysis/aggregation cost). Headline results are
// attached as custom metrics so `go test -bench` output doubles as a
// results summary.
package ballarus

import (
	"context"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ballarus/internal/core"
	"ballarus/internal/eval"
	"ballarus/internal/interp"
	"ballarus/internal/layout"
	"ballarus/internal/minic"
	"ballarus/internal/mir"
	"ballarus/internal/opt"
	"ballarus/internal/orders"
	"ballarus/internal/stats"
	"ballarus/internal/suite"
)

var (
	benchEvalOnce sync.Once
	benchEval     *eval.Evaluator
)

func sharedEvaluator(b *testing.B) *eval.Evaluator {
	b.Helper()
	benchEvalOnce.Do(func() { benchEval = eval.New() })
	return benchEval
}

// subsetTrials is the sampled size used by default for the C(22,11)
// experiment; run cmd/blorders -exact for all 705,432 trials.
const subsetTrials = 5000

func benchTable(b *testing.B, gen func() (string, error)) string {
	b.Helper()
	var out string
	for i := 0; i < b.N; i++ {
		s, err := gen()
		if err != nil {
			b.Fatal(err)
		}
		out = s
	}
	return out
}

func BenchmarkTable1(b *testing.B) {
	e := sharedEvaluator(b)
	out := benchTable(b, e.Table1)
	b.ReportMetric(float64(strings.Count(out, "\n")-1), "rows")
}

func BenchmarkTable2(b *testing.B) {
	e := sharedEvaluator(b)
	out := benchTable(b, e.Table2)
	b.ReportMetric(meanFromRow(b, out, "MEAN", 1), "loopPredMiss%")
}

func BenchmarkTable3(b *testing.B) {
	e := sharedEvaluator(b)
	benchTable(b, e.Table3)
}

func BenchmarkTable4(b *testing.B) {
	e := sharedEvaluator(b)
	benchTable(b, func() (string, error) { return e.Table4(subsetTrials) })
}

func BenchmarkTable5(b *testing.B) {
	e := sharedEvaluator(b)
	benchTable(b, e.Table5)
}

func BenchmarkTable6(b *testing.B) {
	e := sharedEvaluator(b)
	benchTable(b, e.Table6)
	runs, err := e.DefaultRuns()
	if err != nil {
		b.Fatal(err)
	}
	var nl []float64
	for _, r := range runs {
		nl = append(nl, r.Final(core.DefaultOrder).WithDefault.Pred)
	}
	b.ReportMetric(stats.Mean(nl), "nonLoopMiss%")
}

func BenchmarkTable7(b *testing.B) {
	e := sharedEvaluator(b)
	benchTable(b, e.Table7)
}

// meanFromRow digs a numeric cell like "12/8" out of a rendered table row.
func meanFromRow(b *testing.B, table, rowName string, col int) float64 {
	b.Helper()
	for _, line := range strings.Split(table, "\n") {
		fields := strings.Fields(line)
		if len(fields) > col && fields[0] == rowName {
			cell := strings.SplitN(fields[col], "/", 2)[0]
			v, err := strconv.ParseFloat(cell, 64)
			if err == nil {
				return v
			}
		}
	}
	return -1
}

func BenchmarkGraph1(b *testing.B) {
	e := sharedEvaluator(b)
	var g *eval.Graph
	for i := 0; i < b.N; i++ {
		var err error
		g, err = e.Graph1()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(g.Series[0].Pts[0].Y, "bestOrderMiss%")
	b.ReportMetric(g.Series[0].Pts[len(g.Series[0].Pts)-1].Y, "worstOrderMiss%")
}

func BenchmarkGraph2(b *testing.B) {
	e := sharedEvaluator(b)
	for i := 0; i < b.N; i++ {
		if _, err := e.Graph2(subsetTrials); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraph3(b *testing.B) {
	e := sharedEvaluator(b)
	for i := 0; i < b.N; i++ {
		if _, err := e.Graph3(subsetTrials); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphSeq regenerates Graphs 4-11, the per-benchmark cumulative
// sequence-length distributions, reporting each predictor's IPBC.
func BenchmarkGraphSeq(b *testing.B) {
	for n := 4; n <= 11; n++ {
		n := n
		b.Run("graph"+strconv.Itoa(n), func(b *testing.B) {
			e := sharedEvaluator(b)
			var g *eval.Graph
			for i := 0; i < b.N; i++ {
				var err error
				g, err = e.GraphSeq(n)
				if err != nil {
					b.Fatal(err)
				}
			}
			_ = g
		})
	}
}

func BenchmarkGraph12(b *testing.B) {
	e := sharedEvaluator(b)
	for i := 0; i < b.N; i++ {
		if g := e.Graph12(); len(g.Series) != 12 {
			b.Fatal("bad model graph")
		}
	}
}

func BenchmarkGraph13(b *testing.B) {
	e := sharedEvaluator(b)
	for i := 0; i < b.N; i++ {
		if _, err := e.Graph13(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Ablations (DESIGN.md section 5) ----

// BenchmarkAblationBTFNT compares the paper's natural-loop-based predictor
// against the hardware backward-taken/forward-not-taken rule.
func BenchmarkAblationBTFNT(b *testing.B) {
	e := sharedEvaluator(b)
	var loopBased, btfnt []float64
	for i := 0; i < b.N; i++ {
		runs, err := e.DefaultRuns()
		if err != nil {
			b.Fatal(err)
		}
		loopBased = loopBased[:0]
		btfnt = btfnt[:0]
		for _, r := range runs {
			loopBased = append(loopBased, r.AllMissRate(r.Analysis.Predictions(core.DefaultOrder)).Pred)
			btfnt = append(btfnt, r.AllMissRate(r.Analysis.BTFNTPredictions()).Pred)
		}
	}
	b.ReportMetric(stats.Mean(loopBased), "ballLarusMiss%")
	b.ReportMetric(stats.Mean(btfnt), "btfntMiss%")
}

// BenchmarkAblationNoPostdom drops the postdomination requirement from
// the successor-property heuristics.
func BenchmarkAblationNoPostdom(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		strict := eval.New()
		loose := eval.New()
		loose.Opts = core.Options{NoPostdom: true}
		with = meanWithDefault(b, strict)
		without = meanWithDefault(b, loose)
	}
	b.ReportMetric(with, "strictMiss%")
	b.ReportMetric(without, "noPostdomMiss%")
}

func meanWithDefault(b *testing.B, e *eval.Evaluator) float64 {
	b.Helper()
	runs, err := e.DefaultRuns()
	if err != nil {
		b.Fatal(err)
	}
	var xs []float64
	for _, r := range runs {
		xs = append(xs, r.Final(core.DefaultOrder).WithDefault.Pred)
	}
	return stats.Mean(xs)
}

// BenchmarkAblationSpill recompiles the suite without register-resident
// locals ("-O0"): the paper predicts Guard coverage collapses because
// values are reloaded before use rather than flowing through registers.
func BenchmarkAblationSpill(b *testing.B) {
	var regCov, spillCov float64
	for i := 0; i < b.N; i++ {
		regCov, spillCov = 0, 0
		n := 0
		for _, bench := range suite.All() {
			for _, opts := range []minic.Options{{}, {SpillLocals: true}} {
				prog, err := minic.Compile(bench.Source, opts)
				if err != nil {
					b.Fatal(err)
				}
				a, err := core.Analyze(prog, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				// Static coverage of the Guard heuristic.
				covered, total := 0, 0
				for j := range a.Branches {
					if a.Branches[j].Class != core.NonLoop {
						continue
					}
					total++
					if a.Branches[j].Heur[core.Guard] != core.PredNone {
						covered++
					}
				}
				pct := 0.0
				if total > 0 {
					pct = 100 * float64(covered) / float64(total)
				}
				if opts.SpillLocals {
					spillCov += pct
				} else {
					regCov += pct
				}
			}
			n++
		}
		regCov /= float64(n)
		spillCov /= float64(n)
	}
	b.ReportMetric(regCov, "guardCovRegAlloc%")
	b.ReportMetric(spillCov, "guardCovSpilled%")
}

// BenchmarkAblationNoJumpTables lowers switches to if-else chains and
// measures the change in breaks in control on the switch-heavy benchmark.
func BenchmarkAblationNoJumpTables(b *testing.B) {
	bench := suite.Get("ghostview")
	var withJT, withoutJT float64
	for i := 0; i < b.N; i++ {
		for _, opts := range []minic.Options{{}, {NoJumpTables: true}} {
			prog, err := minic.Compile(bench.Source, opts)
			if err != nil {
				b.Fatal(err)
			}
			res, err := interp.Run(prog, interp.Config{
				Input: bench.Data[0].Input, Budget: bench.Budget, CollectEvents: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			indirect := 0
			for _, ev := range res.Events {
				if ev.Kind == interp.EvIndirect {
					indirect++
				}
			}
			if opts.NoJumpTables {
				withoutJT = float64(indirect)
			} else {
				withJT = float64(indirect)
			}
		}
	}
	b.ReportMetric(withJT, "indirectJumps")
	b.ReportMetric(withoutJT, "indirectJumpsNoJT")
}

// ---- Micro-benchmarks of the pipeline stages ----

func BenchmarkCompileXlisp(b *testing.B) {
	src := suite.Get("xlisp").Source
	for i := 0; i < b.N; i++ {
		if _, err := minic.Compile(src, minic.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeXlisp(b *testing.B) {
	prog, err := suite.Get("xlisp").Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Analyze(prog, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpXlisp(b *testing.B) {
	bench := suite.Get("xlisp")
	prog, err := bench.Compile()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var steps int64
	for i := 0; i < b.N; i++ {
		res, err := interp.Run(prog, interp.Config{Input: bench.Data[0].Input, Budget: bench.Budget})
		if err != nil {
			b.Fatal(err)
		}
		steps = res.Steps
	}
	b.ReportMetric(float64(steps)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkInterpFixed measures the interpreter's fixed per-run cost: the
// time and bytes a run of an empty program takes.
func BenchmarkInterpFixed(b *testing.B) {
	prog, err := minic.Compile("int main() { return 0; }", minic.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := interp.Run(prog, interp.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOrderSweep(b *testing.B) {
	e := sharedEvaluator(b)
	for i := 0; i < b.N; i++ {
		if _, err := e.Sweep(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSubsetsSampled(b *testing.B) {
	e := sharedEvaluator(b)
	s, err := e.Sweep()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SubsetsSampledCtx(context.Background(), 11, 1000, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Extensions ----

// BenchmarkExtensionFreq measures the static-profile-estimation extension
// and reports the mean Spearman correlation against measured profiles.
func BenchmarkExtensionFreq(b *testing.B) {
	e := sharedEvaluator(b)
	var est, rnd float64
	for i := 0; i < b.N; i++ {
		rows, err := e.FreqQuality()
		if err != nil {
			b.Fatal(err)
		}
		var es, rs []float64
		for _, r := range rows {
			es = append(es, r.Estimator.Spearman)
			rs = append(rs, r.Random.Spearman)
		}
		est, rnd = stats.Mean(es), stats.Mean(rs)
	}
	b.ReportMetric(est, "estimatorSpearman")
	b.ReportMetric(rnd, "randomSpearman")
}

// BenchmarkExtensionCrossProfile reproduces the paper's framing claim:
// program-based prediction is roughly a factor of two worse than
// profile-based prediction.
func BenchmarkExtensionCrossProfile(b *testing.B) {
	e := sharedEvaluator(b)
	var prog, cross float64
	for i := 0; i < b.N; i++ {
		rows, err := e.CrossProfile()
		if err != nil {
			b.Fatal(err)
		}
		var ps, cs []float64
		for _, r := range rows {
			ps = append(ps, r.ProgramMiss)
			cs = append(cs, r.CrossMiss)
		}
		prog, cross = stats.Mean(ps), stats.Mean(cs)
	}
	b.ReportMetric(prog, "programBasedMiss%")
	b.ReportMetric(cross, "profileBasedMiss%")
}

// BenchmarkAblationOptimize measures the MIR optimizer's effect: static
// shrinkage and the predictor's all-branch miss rate on optimized code.
func BenchmarkAblationOptimize(b *testing.B) {
	var shrink, missBase, missOpt float64
	for i := 0; i < b.N; i++ {
		var before, after int
		var mb, mo []float64
		for _, bench := range suite.All() {
			prog, err := bench.Compile()
			if err != nil {
				b.Fatal(err)
			}
			op := opt.Program(prog)
			before += prog.NumInstrs()
			after += op.NumInstrs()
			for _, p := range []*mir.Program{prog, op} {
				a, err := core.Analyze(p, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				res, err := interp.Run(p, interp.Config{Input: bench.Data[0].Input, Budget: bench.Budget})
				if err != nil {
					b.Fatal(err)
				}
				preds := a.Predictions(core.DefaultOrder)
				var miss, dyn int64
				for id := range preds {
					dyn += res.Profile.Executed(id)
					miss += res.Profile.Misses(id, preds[id].Taken())
				}
				rate := 100 * float64(miss) / float64(dyn)
				if p == prog {
					mb = append(mb, rate)
				} else {
					mo = append(mo, rate)
				}
			}
		}
		shrink = 100 * float64(before-after) / float64(before)
		missBase, missOpt = stats.Mean(mb), stats.Mean(mo)
	}
	b.ReportMetric(shrink, "staticShrink%")
	b.ReportMetric(missBase, "missUnopt%")
	b.ReportMetric(missOpt, "missOpt%")
}

// BenchmarkExtensionDynPred compares static prediction against the 1-bit
// and 2-bit dynamic hardware predictors over the suite's traces.
func BenchmarkExtensionDynPred(b *testing.B) {
	e := sharedEvaluator(b)
	var mh, m2 float64
	for i := 0; i < b.N; i++ {
		rows, err := e.DynPred()
		if err != nil {
			b.Fatal(err)
		}
		var hs, twos []float64
		for _, r := range rows {
			hs = append(hs, r.Heur)
			twos = append(twos, r.TwoBit)
		}
		mh, m2 = stats.Mean(hs), stats.Mean(twos)
	}
	b.ReportMetric(mh, "ballLarusMiss%")
	b.ReportMetric(m2, "twoBitMiss%")
}

// BenchmarkExtensionLayout measures prediction-driven block reordering
// and reports the dynamic taken-branch rate before and after.
func BenchmarkExtensionLayout(b *testing.B) {
	bench := suite.Get("gcc")
	prog, err := bench.Compile()
	if err != nil {
		b.Fatal(err)
	}
	a, err := core.Analyze(prog, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	preds := a.Predictions(core.DefaultOrder)
	var before, after float64
	for i := 0; i < b.N; i++ {
		np, err := layout.Reorder(a, preds)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			orig, err := interp.Run(prog, interp.Config{Input: bench.Data[0].Input, Budget: bench.Budget})
			if err != nil {
				b.Fatal(err)
			}
			laid, err := interp.Run(np, interp.Config{Input: bench.Data[0].Input, Budget: 2 * bench.Budget})
			if err != nil {
				b.Fatal(err)
			}
			before = 100 * layout.TakenRate(orig.Profile.Taken, orig.Profile.Fall)
			after = 100 * layout.TakenRate(laid.Profile.Taken, laid.Profile.Fall)
		}
	}
	b.ReportMetric(before, "takenBefore%")
	b.ReportMetric(after, "takenAfter%")
}

var _ = orders.NumOrders // keep the import meaningful if benches change

// BenchmarkServiceCachedHit measures the whole-pipeline cached-hit path
// through the facade — the budget against which the observability layer
// (metrics recording, span plumbing) must stay within noise.
func BenchmarkServiceCachedHit(b *testing.B) {
	src := `int main() { int i; int s = 0; for (i = 0; i < 500000; i++) { s += i % 9; } printi(s); return 0; }`
	svc := NewService()
	defer svc.Close()
	ctx := context.Background()
	if _, err := svc.Predict(ctx, PredictRequest{Source: src}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Predict(ctx, PredictRequest{Source: src}); err != nil {
			b.Fatal(err)
		}
	}
}

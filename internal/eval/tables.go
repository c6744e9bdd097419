package eval

import (
	"context"
	"fmt"
	"strings"
	"text/tabwriter"

	"ballarus/internal/core"
	"ballarus/internal/orders"
	"ballarus/internal/stats"
	"ballarus/internal/suite"
)

// table is a small helper around tabwriter.
type table struct {
	b strings.Builder
	w *tabwriter.Writer
}

func newTable(title string) *table {
	t := &table{}
	t.b.WriteString(title)
	t.b.WriteString("\n")
	t.w = tabwriter.NewWriter(&t.b, 2, 4, 2, ' ', 0)
	return t
}

func (t *table) row(cells ...string) {
	fmt.Fprintln(t.w, strings.Join(cells, "\t"))
}

func (t *table) String() string {
	t.w.Flush()
	return t.b.String()
}

func pct(v float64) string { return fmt.Sprintf("%.0f", v) }

// Table1 reproduces Table 1: the benchmark list with language group and
// code size (MIPS-style 4-byte instruction encoding).
func (e *Evaluator) Table1() (string, error) {
	t := newTable("Table 1: benchmarks, by group, sorted by code size")
	t.row("Program", "Description", "Grp", "Size(KB)", "Procs")
	for _, grp := range []bool{false, true} {
		type row struct {
			b  *suite.Benchmark
			kb float64
			np int
		}
		var rows []row
		for _, b := range suite.All() {
			if b.FP != grp {
				continue
			}
			prog, err := b.Compile()
			if err != nil {
				return "", err
			}
			rows = append(rows, row{b, float64(prog.NumInstrs()*4) / 1024, len(prog.Procs)})
		}
		for i := 0; i < len(rows); i++ {
			for j := i + 1; j < len(rows); j++ {
				if rows[j].kb > rows[i].kb {
					rows[i], rows[j] = rows[j], rows[i]
				}
			}
		}
		for _, r := range rows {
			g := "C"
			if r.b.FP {
				g = "F"
			}
			t.row(r.b.Name, r.b.Desc, g, fmt.Sprintf("%.1f", r.kb), fmt.Sprintf("%d", r.np))
		}
	}
	return t.String(), nil
}

// Table2 reproduces Table 2: loop vs non-loop branch breakdown with the
// loop predictor, the naive target/random strategies, and "Big" branches.
func (e *Evaluator) Table2() (string, error) {
	runs, err := e.DefaultRuns()
	if err != nil {
		return "", err
	}
	t := newTable("Table 2: dynamic breakdown of loop vs non-loop branches (miss%/perfect%)")
	t.row("Program", "Loop Prd/Prf", "%NL", "Tgt/Prf", "Rnd/Prf", "Big(n)", "Big%")
	var loopPrd, loopPrf, nlPct, tgt, rnd []float64
	for _, r := range runs {
		s := r.Split()
		loopRate := ratePair(s.LoopPredMiss, s.LoopPerfMiss, s.LoopDyn)
		tgtRate := ratePair(s.TgtMiss, s.NLPerfMiss, s.NLDyn)
		rndRate := ratePair(s.RndMiss, s.NLPerfMiss, s.NLDyn)
		bn, bp := r.Big()
		t.row(r.Bench.Name, loopRate, pct(s.PctNonLoop()), tgtRate, rndRate,
			fmt.Sprintf("%d", bn), pct(bp))
		if s.LoopDyn > 0 {
			loopPrd = append(loopPrd, stats.Percent(s.LoopPredMiss, s.LoopDyn))
			loopPrf = append(loopPrf, stats.Percent(s.LoopPerfMiss, s.LoopDyn))
		}
		nlPct = append(nlPct, s.PctNonLoop())
		if s.NLDyn > 0 {
			tgt = append(tgt, stats.Percent(s.TgtMiss, s.NLDyn))
			rnd = append(rnd, stats.Percent(s.RndMiss, s.NLDyn))
		}
	}
	t.row("MEAN", meanPair(loopPrd, loopPrf), pct(stats.Mean(nlPct)),
		pct(stats.Mean(tgt)), pct(stats.Mean(rnd)), "", "")
	t.row("Std.Dev", stdPair(loopPrd, loopPrf), pct(stats.StdDev(nlPct)),
		pct(stats.StdDev(tgt)), pct(stats.StdDev(rnd)), "", "")
	return t.String(), nil
}

func ratePair(miss, perfect, dyn int64) string {
	if dyn == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f/%.0f", stats.Percent(miss, dyn), stats.Percent(perfect, dyn))
}

func meanPair(a, b []float64) string {
	return fmt.Sprintf("%.0f/%.0f", stats.Mean(a), stats.Mean(b))
}

func stdPair(a, b []float64) string {
	return fmt.Sprintf("%.0f/%.0f", stats.StdDev(a), stats.StdDev(b))
}

// Table3 reproduces Table 3: each heuristic applied in isolation to
// non-loop branches — coverage% and miss/perfect on the covered branches.
// Entries under 1% coverage are blank, and blanks are excluded from the
// mean, exactly as the paper footnotes.
func (e *Evaluator) Table3() (string, error) {
	runs, err := e.DefaultRuns()
	if err != nil {
		return "", err
	}
	hs := core.SectionOrder
	t := newTable("Table 3: heuristics in isolation on non-loop branches (cov% miss/perfect)")
	header := []string{"Program", "%NL"}
	for _, h := range hs {
		header = append(header, h.String())
	}
	t.row(header...)
	sums := make(map[core.Heuristic][]float64)
	perfs := make(map[core.Heuristic][]float64)
	for _, r := range runs {
		s := r.Split()
		cells := []string{r.Bench.Name, pct(s.PctNonLoop())}
		for _, h := range hs {
			cov, rate := r.HeurIsolated(h)
			if cov < 1 {
				cells = append(cells, "-")
				continue
			}
			cells = append(cells, fmt.Sprintf("%s %s", pct(cov), rate))
			sums[h] = append(sums[h], rate.Pred)
			perfs[h] = append(perfs[h], rate.Perfect)
		}
		t.row(cells...)
	}
	mean := []string{"MEAN", ""}
	std := []string{"Std.Dev", ""}
	for _, h := range hs {
		mean = append(mean, meanPair(sums[h], perfs[h]))
		std = append(std, stdPair(sums[h], perfs[h]))
	}
	t.row(mean...)
	t.row(std...)
	return t.String(), nil
}

// benchDataAllCtx collapses the default runs for the ordering
// experiments, excluding matrix300 (as the paper does, to get an even
// 22).
func (e *Evaluator) benchDataAllCtx(ctx context.Context) ([]*orders.BenchData, []*Run, error) {
	runs, err := e.DefaultRunsCtx(ctx)
	if err != nil {
		return nil, nil, err
	}
	var bd []*orders.BenchData
	var kept []*Run
	for _, r := range runs {
		if r.Bench.Name == "matrix300" {
			continue
		}
		bd = append(bd, orders.Collapse(r.Analysis, r.Profile, r.Bench.Name))
		kept = append(kept, r)
	}
	return bd, kept, nil
}

// BenchData returns the 22 collapsed benchmark populations (matrix300
// excluded) the ordering experiments run over, in canonical suite order.
func (e *Evaluator) BenchData(ctx context.Context) ([]*orders.BenchData, error) {
	bd, _, err := e.benchDataAllCtx(ctx)
	return bd, err
}

// Sweep returns the 5040-order x 22-benchmark miss matrix (cached).
func (e *Evaluator) Sweep() (*orders.Sweep, error) {
	return e.SweepCtx(context.Background())
}

// SweepCtx is Sweep with cancellation.
func (e *Evaluator) SweepCtx(ctx context.Context) (*orders.Sweep, error) {
	e.mu.Lock()
	if e.sweep != nil {
		s := e.sweep
		e.mu.Unlock()
		return s, nil
	}
	e.mu.Unlock()
	bd, _, err := e.benchDataAllCtx(ctx)
	if err != nil {
		return nil, err
	}
	s, err := orders.NewSweepCtx(ctx, bd)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.sweep = s
	e.mu.Unlock()
	return s, nil
}

// SubsetExperiment runs the C(22,11) generalization experiment. trials <= 0
// runs it exactly (705,432 trials); otherwise a random sample of that size.
func (e *Evaluator) SubsetExperiment(trials int) (*orders.Sweep, *orders.SubsetResult, error) {
	return e.SubsetExperimentCtx(context.Background(), trials, nil)
}

// SubsetExperimentCtx is SubsetExperiment with cancellation and an
// optional progress callback (cumulative trials, total trials).
func (e *Evaluator) SubsetExperimentCtx(ctx context.Context, trials int, progress func(done, total int64)) (*orders.Sweep, *orders.SubsetResult, error) {
	s, err := e.SweepCtx(ctx)
	if err != nil {
		return nil, nil, err
	}
	opts := orders.SubsetOpts{Progress: progress}
	var res *orders.SubsetResult
	if trials <= 0 {
		res, err = s.SubsetsOpts(ctx, 11, opts)
	} else {
		res, err = s.SubsetsSampledOpts(ctx, 11, trials, 1993, opts)
	}
	if err != nil {
		return nil, nil, err
	}
	return s, res, nil
}

// Table4 reproduces Table 4: the 10 most common best orders from the
// subset experiment, their trial share, and their average miss rate over
// all 22 benchmarks.
func (e *Evaluator) Table4(trials int) (string, error) {
	s, res, err := e.SubsetExperiment(trials)
	if err != nil {
		return "", err
	}
	avg := s.Avg(nil)
	t := newTable(fmt.Sprintf(
		"Table 4: 10 most common orders over %d subset trials (%d distinct orders chosen)",
		res.Trials, res.DistinctOrders()))
	t.row("%Trials", "MissRate", "Order")
	ranked := res.Ranked()
	for i := 0; i < 10 && i < len(ranked); i++ {
		o := ranked[i]
		t.row(
			fmt.Sprintf("%.2f", 100*float64(res.BestCount[o])/float64(res.Trials)),
			fmt.Sprintf("%.2f", avg[o]),
			s.Orders[o].String(),
		)
	}
	return t.String(), nil
}

// Table5 reproduces Table 5: the heuristics applied in the paper's
// prioritized order (Point, Call, Opcode, Return, Store, Loop, Guard) with
// first-applicable attribution, plus the Default.
func (e *Evaluator) Table5() (string, error) {
	runs, err := e.DefaultRuns()
	if err != nil {
		return "", err
	}
	order := core.DefaultOrder
	t := newTable("Table 5: prioritized heuristics " + order.String() + " (cov% miss/perfect)")
	header := []string{"Program"}
	for _, h := range order {
		header = append(header, h.String())
	}
	header = append(header, "Default")
	t.row(header...)
	missCol := make(map[int][]float64)
	perfCol := make(map[int][]float64)
	for _, r := range runs {
		cov, rates := r.Attributed(order)
		cells := []string{r.Bench.Name}
		for col, h := range order {
			if cov[h] < 1 {
				cells = append(cells, "-")
				continue
			}
			cells = append(cells, fmt.Sprintf("%s %s", pct(cov[h]), rates[h]))
			missCol[col] = append(missCol[col], rates[h].Pred)
			perfCol[col] = append(perfCol[col], rates[h].Perfect)
		}
		if cov[7] < 1 {
			cells = append(cells, "-")
		} else {
			cells = append(cells, fmt.Sprintf("%s %s", pct(cov[7]), rates[7]))
			missCol[7] = append(missCol[7], rates[7].Pred)
			perfCol[7] = append(perfCol[7], rates[7].Perfect)
		}
		t.row(cells...)
	}
	mean := []string{"MEAN"}
	std := []string{"Std.Dev"}
	for col := 0; col <= 7; col++ {
		mean = append(mean, meanPair(missCol[col], perfCol[col]))
		std = append(std, stdPair(missCol[col], perfCol[col]))
	}
	t.row(mean...)
	t.row(std...)
	return t.String(), nil
}

// Table6 reproduces Table 6: final results — heuristic coverage and miss,
// with Default added, over all branches, and the Loop+Rand baseline.
func (e *Evaluator) Table6() (string, error) {
	runs, err := e.DefaultRuns()
	if err != nil {
		return "", err
	}
	t := newTable("Table 6: final results (miss%/perfect%)")
	t.row("Program", "Heuristics", "+Default", "All", "Loop+Rand")
	for _, r := range runs {
		f := r.Final(core.DefaultOrder)
		t.row(r.Bench.Name,
			fmt.Sprintf("%s %s", pct(f.HeurCoverage), f.Heur),
			f.WithDefault.String(),
			f.All.String(),
			f.LoopRand.String(),
		)
	}
	return t.String(), nil
}

// Table7 reproduces Table 7: means and standard deviations of Table 6 for
// all benchmarks and for "most" (excluding the four benchmarks whose
// non-loop branches concentrate in a handful of sites: eqntott, grep,
// tomcatv, matrix300), with Tgt and Rnd for comparison.
func (e *Evaluator) Table7() (string, error) {
	runs, err := e.DefaultRuns()
	if err != nil {
		return "", err
	}
	excluded := map[string]bool{"eqntott": true, "grep": true, "tomcatv": true, "matrix300": true}
	t := newTable("Table 7: summary of final results (mean ± std dev)")
	t.row("Set", "Metric", "Heuristics", "+Default", "All", "Loop+Rand", "Tgt(NL)", "Rnd(NL)")
	for _, most := range []bool{false, true} {
		var heur, def, all, lr, tgt, rnd []float64
		var heurP, defP, allP []float64
		for _, r := range runs {
			if most && excluded[r.Bench.Name] {
				continue
			}
			f := r.Final(core.DefaultOrder)
			s := r.Split()
			heur = append(heur, f.Heur.Pred)
			heurP = append(heurP, f.Heur.Perfect)
			def = append(def, f.WithDefault.Pred)
			defP = append(defP, f.WithDefault.Perfect)
			all = append(all, f.All.Pred)
			allP = append(allP, f.All.Perfect)
			lr = append(lr, f.LoopRand.Pred)
			if s.NLDyn > 0 {
				tgt = append(tgt, stats.Percent(s.TgtMiss, s.NLDyn))
				rnd = append(rnd, stats.Percent(s.RndMiss, s.NLDyn))
			}
		}
		name := "(all)"
		if most {
			name = "(most)"
		}
		t.row(name, "mean",
			meanPair(heur, heurP), meanPair(def, defP), meanPair(all, allP),
			pct(stats.Mean(lr)), pct(stats.Mean(tgt)), pct(stats.Mean(rnd)))
		t.row(name, "std",
			stdPair(heur, heurP), stdPair(def, defP), stdPair(all, allP),
			pct(stats.StdDev(lr)), pct(stats.StdDev(tgt)), pct(stats.StdDev(rnd)))
	}
	return t.String(), nil
}

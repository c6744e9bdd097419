package eval

import (
	"fmt"
	"strings"

	"ballarus/internal/core"
	"ballarus/internal/interp"
	"ballarus/internal/suite"
	"ballarus/internal/trace"
)

// Series is one plotted line.
type Series struct {
	Name string
	Note string
	Pts  []trace.Point
}

// Graph is one figure: a set of series with axis labels, renderable as
// TSV blocks (one block per series).
type Graph struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// TSV renders the graph as tab-separated blocks.
func (g *Graph) TSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n# x: %s, y: %s\n", g.Title, g.XLabel, g.YLabel)
	for _, s := range g.Series {
		fmt.Fprintf(&b, "\n# series: %s", s.Name)
		if s.Note != "" {
			fmt.Fprintf(&b, " (%s)", s.Note)
		}
		b.WriteString("\n")
		for _, p := range s.Pts {
			fmt.Fprintf(&b, "%d\t%.3f\n", p.X, p.Y)
		}
	}
	return b.String()
}

// Summary renders just the per-series notes (headline numbers).
func (g *Graph) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", g.Title)
	for _, s := range g.Series {
		fmt.Fprintf(&b, "  %-12s %s\n", s.Name, s.Note)
	}
	return b.String()
}

// Graph1 reproduces Graph 1: the average non-loop miss rate of every one
// of the 5040 orders (over the 22 benchmarks, matrix300 excluded), sorted
// ascending.
func (e *Evaluator) Graph1() (*Graph, error) {
	s, err := e.Sweep()
	if err != nil {
		return nil, err
	}
	avg := s.SortedAvg(nil)
	pts := make([]trace.Point, len(avg))
	for i, v := range avg {
		pts[i] = trace.Point{X: int64(i), Y: v}
	}
	return &Graph{
		Title:  "Graph 1: average miss rate of all 5040 orderings, sorted",
		XLabel: "order rank",
		YLabel: "avg non-loop miss %",
		Series: []Series{{
			Name: "orders",
			Note: fmt.Sprintf("best %.2f%%, worst %.2f%%", avg[0], avg[len(avg)-1]),
			Pts:  pts,
		}},
	}, nil
}

// Graph2 reproduces Graph 2: cumulative share of subset trials accounted
// for by the most common orders (first 101). Its note gives the shares of
// the top 10 and top 40 orders and the count of distinct orders, which the
// paper reports as ~66%, ~90% and 622.
func (e *Evaluator) Graph2() (*Graph, error) {
	_, res, err := e.SubsetExperiment(0)
	if err != nil {
		return nil, err
	}
	ranked := res.Ranked()
	n := len(ranked)
	if n > 101 {
		n = 101
	}
	pts := make([]trace.Point, 0, n)
	cum := 0.0
	for i := 0; i < n; i++ {
		cum += 100 * float64(res.BestCount[ranked[i]]) / float64(res.Trials)
		pts = append(pts, trace.Point{X: int64(i + 1), Y: cum})
	}
	// share is the cumulative share of the top `top` orders, or of every
	// chosen order when fewer were chosen.
	share := func(top int) float64 { return pts[min(top, len(pts))-1].Y }
	note := fmt.Sprintf("top 10 orders cover %.1f%%, top 40 %.1f%% of %d trials; %d distinct orders",
		share(10), share(40), res.Trials, res.DistinctOrders())
	return &Graph{
		Title:  "Graph 2: cumulative trial share of the most common orders",
		XLabel: "order rank (by frequency)",
		YLabel: "cumulative % of trials",
		Series: []Series{{Name: "orders", Note: note, Pts: pts}},
	}, nil
}

// Graph3 reproduces Graph 3: the average miss rate (all 22 benchmarks) of
// the most common orders from the subset experiment.
func (e *Evaluator) Graph3() (*Graph, error) {
	s, res, err := e.SubsetExperiment(0)
	if err != nil {
		return nil, err
	}
	avg := s.Avg(nil)
	ranked := res.Ranked()
	n := len(ranked)
	if n > 101 {
		n = 101
	}
	pts := make([]trace.Point, 0, n)
	worst := 0.0
	for i := 0; i < n; i++ {
		v := avg[ranked[i]]
		if v > worst {
			worst = v
		}
		pts = append(pts, trace.Point{X: int64(i + 1), Y: v})
	}
	return &Graph{
		Title:  "Graph 3: average miss rate of the most common orders",
		XLabel: "order rank (by frequency)",
		YLabel: "avg non-loop miss %",
		Series: []Series{{
			Name: "orders",
			Note: fmt.Sprintf("worst among common orders %.2f%%", worst),
			Pts:  pts,
		}},
	}, nil
}

// tracedGraphNumber maps the Section 6 figure numbers onto benchmarks:
// Graph 4 is spice2g6's sequence view, Graph 5 its breaks view, then
// gcc, lcc, qpt, xlisp, doduc, fpppp.
var tracedGraphNumber = map[int]string{
	4: "spice2g6", 5: "spice2g6", 6: "gcc", 7: "lcc",
	8: "qpt", 9: "xlisp", 10: "doduc", 11: "fpppp",
}

// GraphSeq reproduces Graphs 4-11: cumulative sequence-length
// distributions for the Loop+Rand, Heuristic, and Perfect predictors over
// one traced benchmark. Graph 5 plots cumulative breaks instead of
// cumulative instructions. The perfect vector comes from the cached run's
// profile; the three distributions then take one more run's events as
// they stream, so no trace is held.
func (e *Evaluator) GraphSeq(number int) (*Graph, error) {
	name, ok := tracedGraphNumber[number]
	if !ok {
		return nil, fmt.Errorf("eval: graph %d is not a sequence graph (4-11)", number)
	}
	b := suite.Get(name)
	r, err := e.Run(b, 0)
	if err != nil {
		return nil, err
	}
	breaksView := number == 5
	g := &Graph{
		Title:  fmt.Sprintf("Graph %d: %s cumulative distribution of sequence %s", number, name, map[bool]string{false: "lengths", true: "breaks"}[breaksView]),
		XLabel: "sequence length",
		YLabel: map[bool]string{false: "% of executed instructions in sequences < x", true: "% of breaks in sequences < x"}[breaksView],
	}
	names := []string{"Loop+Rand", "Heuristic", "Perfect"}
	dists := []*trace.Dist{
		trace.NewDist(trace.PredictionVector(r.Analysis.LoopRandPredictions())),
		trace.NewDist(trace.PredictionVector(r.Analysis.Predictions(core.DefaultOrder))),
		trace.NewDist(trace.PerfectVector(r.Profile)),
	}
	cfg := runConfig(b, 0)
	cfg.OnEvent = func(ev interp.Event) {
		for _, d := range dists {
			d.Event(ev)
		}
	}
	res, err := interp.Run(r.Prog, cfg)
	if err != nil {
		return nil, fmt.Errorf("eval: %s: %w", name, err)
	}
	for i, d := range dists {
		d.End(res.TailLen)
		var pts []trace.Point
		if breaksView {
			pts = d.CumulativeBreaks()
		} else {
			pts = d.CumulativeInstr()
		}
		g.Series = append(g.Series, Series{
			Name: names[i],
			Note: fmt.Sprintf("miss %.0f%%, %.0f ipbc, dividing length %d",
				d.MissRate(), d.IPBC(), d.DividingLength()),
			Pts: trimSaturated(pts),
		})
	}
	return g, nil
}

// trimSaturated drops trailing points after the curve reaches 100%.
func trimSaturated(pts []trace.Point) []trace.Point {
	for i, p := range pts {
		if p.Y >= 99.999 {
			return pts[:i+1]
		}
	}
	return pts
}

// Graph12 reproduces Graph 12: the analytic model 1-(1-m)^s for miss
// rates 2.5% to 30% in steps of 2.5%.
func (e *Evaluator) Graph12() *Graph {
	g := &Graph{
		Title:  "Graph 12: model cumulative distribution f(m,s) = 1-(1-m)^s",
		XLabel: "sequence length",
		YLabel: "% of instructions in sequences <= s",
	}
	for i := 1; i <= 12; i++ {
		m := 0.025 * float64(i)
		g.Series = append(g.Series, Series{
			Name: fmt.Sprintf("m=%.3f", m),
			Pts:  trimSaturated(trace.ModelSeries(m, 300)),
		})
	}
	return g
}

// Graph13 reproduces Graph 13: the Heuristic and Perfect miss rates (all
// branches) across every dataset of every benchmark. The Heuristic makes
// the same predictions regardless of dataset; the Perfect predictor is
// recomputed per dataset.
func (e *Evaluator) Graph13() (*Graph, error) {
	g := &Graph{
		Title:  "Graph 13: miss rates across datasets (all branches)",
		XLabel: "dataset index (benchmarks concatenated)",
		YLabel: "miss %",
	}
	var heurPts, perfPts []trace.Point
	var labels []string
	x := int64(0)
	for _, b := range suite.All() {
		a, err := e.Analysis(b)
		if err != nil {
			return nil, err
		}
		preds := a.Predictions(core.DefaultOrder)
		for ds := range b.Data {
			r, err := e.Run(b, ds)
			if err != nil {
				return nil, err
			}
			rate := r.AllMissRate(preds)
			heurPts = append(heurPts, trace.Point{X: x, Y: rate.Pred})
			perfPts = append(perfPts, trace.Point{X: x, Y: rate.Perfect})
			labels = append(labels, fmt.Sprintf("%s/%s", b.Name, b.Data[ds].Name))
			x++
		}
	}
	g.Series = append(g.Series,
		Series{Name: "Heuristic", Pts: heurPts, Note: strings.Join(labels, ",")},
		Series{Name: "Perfect", Pts: perfPts},
	)
	return g, nil
}

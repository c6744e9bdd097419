package eval

import (
	"runtime"
	"strings"
	"testing"

	"ballarus/internal/core"
	"ballarus/internal/stats"
	"ballarus/internal/suite"
)

// sharedEval is reused across tests: runs are cached, so the suite
// executes once per package test run.
var sharedEval = New()

func TestTable1(t *testing.T) {
	s, err := sharedEval.Table1()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range suite.Names() {
		if !strings.Contains(s, name) {
			t.Errorf("Table 1 missing %s", name)
		}
	}
	t.Log("\n" + s)
}

func TestTable2Shape(t *testing.T) {
	runs, err := sharedEval.DefaultRuns()
	if err != nil {
		t.Fatal(err)
	}
	var loopPrd, rnd, tgt []float64
	for _, r := range runs {
		s := r.Split()
		if s.LoopDyn+s.NLDyn == 0 {
			t.Errorf("%s: no dynamic branches", r.Bench.Name)
			continue
		}
		if s.LoopDyn > 0 {
			lp := stats.Percent(s.LoopPredMiss, s.LoopDyn)
			loopPrd = append(loopPrd, lp)
			perf := stats.Percent(s.LoopPerfMiss, s.LoopDyn)
			if lp < perf-1e-9 {
				t.Errorf("%s: loop predictor (%f) beats perfect (%f)?!", r.Bench.Name, lp, perf)
			}
		}
		if s.NLDyn > 0 {
			rnd = append(rnd, stats.Percent(s.RndMiss, s.NLDyn))
			tgt = append(tgt, stats.Percent(s.TgtMiss, s.NLDyn))
		}
	}
	// Paper shape: the loop predictor is good (mean ~12%); naive
	// strategies are poor on non-loop branches (~50%).
	if m := stats.Mean(loopPrd); m > 30 {
		t.Errorf("loop predictor mean miss %.1f%%, want well under 30%%", m)
	}
	if m := stats.Mean(rnd); m < 30 || m > 70 {
		t.Errorf("random non-loop mean miss %.1f%%, want near 50%%", m)
	}
	if m := stats.Mean(tgt); m < 20 || m > 80 {
		t.Errorf("target non-loop mean miss %.1f%%, want mediocre (near 50%%)", m)
	}
	tbl, err := sharedEval.Table2()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl)
}

func TestTable3Shape(t *testing.T) {
	tbl, err := sharedEval.Table3()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl)
	runs, err := sharedEval.DefaultRuns()
	if err != nil {
		t.Fatal(err)
	}
	// tomcatv: Guard must mispredict the hot max-update branches (miss
	// well above 50%) and Store must get them right (miss well below 50%).
	for _, r := range runs {
		if r.Bench.Name != "tomcatv" {
			continue
		}
		covG, rateG := r.HeurIsolated(core.Guard)
		covS, rateS := r.HeurIsolated(core.Store)
		if covG < 50 {
			t.Errorf("tomcatv: Guard coverage %.0f%%, want most non-loop branches", covG)
		}
		if rateG.Pred < 60 {
			t.Errorf("tomcatv: Guard miss %.0f%%, want badly wrong (paper: ~99%%)", rateG.Pred)
		}
		if covS < 40 || rateS.Pred > 40 {
			t.Errorf("tomcatv: Store cov %.0f%% miss %.0f%%, want high coverage and low miss", covS, rateS.Pred)
		}
	}
}

func TestTable5And6Shape(t *testing.T) {
	tbl5, err := sharedEval.Table5()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl5)
	tbl6, err := sharedEval.Table6()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl6)
	runs, err := sharedEval.DefaultRuns()
	if err != nil {
		t.Fatal(err)
	}
	var withDef, loopRand, perfAll []float64
	var covs []float64
	for _, r := range runs {
		f := r.Final(core.DefaultOrder)
		withDef = append(withDef, f.WithDefault.Pred)
		loopRand = append(loopRand, f.LoopRand.Pred)
		perfAll = append(perfAll, f.All.Perfect)
		covs = append(covs, f.HeurCoverage)
		// Per-benchmark invariants: perfect lower-bounds everything.
		if f.All.Pred < f.All.Perfect-1e-9 {
			t.Errorf("%s: combined (%.1f) beats perfect (%.1f)", r.Bench.Name, f.All.Pred, f.All.Perfect)
		}
	}
	// Paper shape: the heuristics cover most non-loop branches, and the
	// combined predictor lands between perfect (~10%) and Loop+Rand.
	if m := stats.Mean(covs); m < 55 {
		t.Errorf("mean heuristic coverage %.1f%%, want the majority of non-loop branches", m)
	}
	mWD, mLR, mPerf := stats.Mean(withDef), stats.Mean(loopRand), stats.Mean(perfAll)
	t.Logf("means: +Default %.1f%%, Loop+Rand(NL part counts all) %.1f%%, perfect(all) %.1f%%", mWD, mLR, mPerf)
	if mWD >= 50 {
		t.Errorf("mean +Default miss %.1f%%, want clearly better than random", mWD)
	}
}

func TestTable7(t *testing.T) {
	tbl, err := sharedEval.Table7()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tbl, "(all)") || !strings.Contains(tbl, "(most)") {
		t.Error("Table 7 must contain (all) and (most) sections")
	}
	t.Log("\n" + tbl)
}

func TestOrdersGraph1(t *testing.T) {
	g, err := sharedEval.Graph1()
	if err != nil {
		t.Fatal(err)
	}
	pts := g.Series[0].Pts
	if len(pts) != 5040 {
		t.Fatalf("Graph 1 has %d points, want 5040", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Fatalf("Graph 1 series not sorted at %d", i)
		}
	}
	spread := pts[len(pts)-1].Y - pts[0].Y
	if spread <= 0 {
		t.Errorf("ordering should matter: spread %.2f", spread)
	}
	t.Log(g.Summary())
}

func TestSubsetExperimentSampled(t *testing.T) {
	tbl, err := sharedEval.Table4(2000)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl)
	g2, err := sharedEval.Graph2(2000)
	if err != nil {
		t.Fatal(err)
	}
	pts := g2.Series[0].Pts
	if len(pts) == 0 || pts[len(pts)-1].Y > 100.0001 {
		t.Errorf("Graph 2 cumulative share out of range")
	}
	g3, err := sharedEval.Graph3(2000)
	if err != nil {
		t.Fatal(err)
	}
	if len(g3.Series[0].Pts) == 0 {
		t.Error("Graph 3 empty")
	}
	t.Log(g2.Summary())
}

func TestGraphSeq(t *testing.T) {
	for n := 4; n <= 11; n++ {
		g, err := sharedEval.GraphSeq(n)
		if err != nil {
			t.Fatal(err)
		}
		if len(g.Series) != 3 {
			t.Fatalf("graph %d: %d series, want 3", n, len(g.Series))
		}
		// Monotone non-decreasing cumulative curves ending near 100.
		for _, s := range g.Series {
			last := -1.0
			for _, p := range s.Pts {
				if p.Y < last-1e-9 {
					t.Fatalf("graph %d series %s not monotone", n, s.Name)
				}
				last = p.Y
			}
			if last < 99.9 {
				t.Errorf("graph %d series %s tops out at %.2f%%", n, s.Name, last)
			}
		}
		t.Log(g.Summary())
	}
	if _, err := sharedEval.GraphSeq(3); err == nil {
		t.Error("GraphSeq(3) should fail")
	}
}

// TestEvalHoldsNoTrace: Section 6 and the dynamic-predictor table score
// the live event stream, so once the default runs are cached, Graphs 4-11
// and the dynamic table allocate no trace. Materialized, their traces
// come to well over 100 MB.
func TestEvalHoldsNoTrace(t *testing.T) {
	e := New()
	if _, err := e.DefaultRuns(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for n := 4; n <= 11; n++ {
		if _, err := e.GraphSeq(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.DynPredTable(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	t.Logf("Graphs 4-11 and the dynamic table allocated %.1f MB", mb)
	if mb >= 16 {
		t.Errorf("Graphs 4-11 and the dynamic table allocated %.1f MB, want under 16", mb)
	}
}

func TestPerfectBeatsOrEqualsOthersOnTrace(t *testing.T) {
	// The perfect static predictor must have the fewest mispredictions.
	r, err := sharedEval.Run(suite.Get("gcc"), 0)
	if err != nil {
		t.Fatal(err)
	}
	f := r.Final(core.DefaultOrder)
	if f.All.Perfect > f.All.Pred+1e-9 && f.All.Perfect > f.LoopRand.Pred+1e-9 {
		t.Error("perfect predictor is not a lower bound")
	}
}

func TestGraph12(t *testing.T) {
	g := sharedEval.Graph12()
	if len(g.Series) != 12 {
		t.Fatalf("Graph 12 has %d series, want 12", len(g.Series))
	}
	// Higher miss rates must dominate (reach any level sooner).
	for i := 1; i < 12; i++ {
		if g.Series[i].Pts[0].Y <= g.Series[i-1].Pts[0].Y {
			t.Errorf("model series %d does not dominate %d at s=1", i, i-1)
		}
	}
}

func TestGraph13(t *testing.T) {
	g, err := sharedEval.Graph13()
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Series[0].Pts {
		h := g.Series[0].Pts[i].Y
		p := g.Series[1].Pts[i].Y
		if p > h+1e-9 {
			t.Errorf("dataset %d: perfect (%.1f) worse than heuristic (%.1f)", i, p, h)
		}
	}
}

func TestTableTSVRender(t *testing.T) {
	g, err := sharedEval.Graph1()
	if err != nil {
		t.Fatal(err)
	}
	tsv := g.TSV()
	if !strings.Contains(tsv, "# series: orders") {
		t.Error("TSV missing series header")
	}
	if len(strings.Split(tsv, "\n")) < 5000 {
		t.Error("TSV suspiciously short")
	}
}

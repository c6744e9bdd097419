package eval

import (
	"strings"
	"testing"

	"ballarus/internal/core"
	"ballarus/internal/stats"
)

func TestFreqTable(t *testing.T) {
	tbl, err := sharedEval.FreqTable()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl)
	rows, err := sharedEval.FreqQuality()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 23 {
		t.Fatalf("%d rows", len(rows))
	}
	var est, rnd []float64
	for _, r := range rows {
		est = append(est, r.Estimator.Spearman)
		rnd = append(rnd, r.Random.Spearman)
	}
	if stats.Mean(est) <= stats.Mean(rnd)+0.2 {
		t.Errorf("estimator mean %.3f should clearly beat random %.3f", stats.Mean(est), stats.Mean(rnd))
	}
	if stats.Mean(est) < 0.4 {
		t.Errorf("estimator mean correlation %.3f too weak", stats.Mean(est))
	}
}

func TestCrossProfile(t *testing.T) {
	tbl, err := sharedEval.CrossProfileTable()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl)
	rows, err := sharedEval.CrossProfile()
	if err != nil {
		t.Fatal(err)
	}
	var prog, cross, self []float64
	for _, r := range rows {
		prog = append(prog, r.ProgramMiss)
		cross = append(cross, r.CrossMiss)
		self = append(self, r.SelfMiss)
		// Self-perfect lower-bounds the cross profile.
		if r.SelfMiss > r.CrossMiss+1e-9 {
			t.Errorf("%s: self perfect %.1f > cross %.1f", r.Name, r.SelfMiss, r.CrossMiss)
		}
	}
	mp, mc, ms := stats.Mean(prog), stats.Mean(cross), stats.Mean(self)
	t.Logf("means: program-based %.1f%%, profile-based %.1f%%, self-perfect %.1f%%", mp, mc, ms)
	// Paper: program-based is roughly a factor of two worse than
	// profile-based; at minimum it must not beat it on average.
	if mp < mc {
		t.Errorf("program-based (%.1f) should not beat cross-profile-based (%.1f) on average", mp, mc)
	}
	// Fisher-Freudenberger: profiles generalize across datasets, so the
	// cross profile should stay close to the self profile.
	if mc > 2.5*ms+5 {
		t.Errorf("cross profile (%.1f) does not generalize from self (%.1f)", mc, ms)
	}
}

func TestAblationTable(t *testing.T) {
	tbl, err := sharedEval.AblationTable()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl)
	for _, col := range []string{"BTFNT", "NoPostdom", "Voting", "Loop+Rand"} {
		if !strings.Contains(tbl, col) {
			t.Errorf("ablation table missing column %s", col)
		}
	}
}

func TestVotingCombinerReasonable(t *testing.T) {
	runs, err := sharedEval.DefaultRuns()
	if err != nil {
		t.Fatal(err)
	}
	var prio, vote, rnd []float64
	for _, r := range runs {
		prio = append(prio, r.AllMissRate(r.Analysis.Predictions(core.DefaultOrder)).Pred)
		vote = append(vote, r.AllMissRate(r.Analysis.VotePredictions(core.DefaultWeights)).Pred)
		rnd = append(rnd, r.AllMissRate(r.Analysis.LoopRandPredictions()).Pred)
	}
	mp, mv, mr := stats.Mean(prio), stats.Mean(vote), stats.Mean(rnd)
	t.Logf("priority %.1f%%, voting %.1f%%, loop+rand %.1f%%", mp, mv, mr)
	// Voting must clearly beat the Loop+Rand baseline and be in the same
	// league as the priority combiner (the paper left the comparison
	// open; both are legitimate combiners).
	if mv >= mr {
		t.Errorf("voting (%.1f) should beat loop+rand (%.1f)", mv, mr)
	}
	if mv > mp+8 {
		t.Errorf("voting (%.1f) is far worse than the priority order (%.1f)", mv, mp)
	}
}

func TestDynPredTable(t *testing.T) {
	tbl, err := sharedEval.DynPredTable()
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tbl)
	rows, err := sharedEval.DynPred()
	if err != nil {
		t.Fatal(err)
	}
	var heur, perf, twoBit []float64
	for _, r := range rows {
		heur = append(heur, r.Heur)
		perf = append(perf, r.Perfect)
		twoBit = append(twoBit, r.TwoBit)
	}
	mh, mp, m2 := stats.Mean(heur), stats.Mean(perf), stats.Mean(twoBit)
	t.Logf("means: Ball-Larus %.1f%%, perfect static %.1f%%, 2-bit %.1f%%", mh, mp, m2)
	// McFarling-Hennessy: profile-based static is comparable to dynamic
	// hardware (within a few points either way).
	if m2 > mp+10 || mp > m2+10 {
		t.Errorf("perfect static (%.1f) and 2-bit (%.1f) should be comparable", mp, m2)
	}
	// Program-based prediction sits above both but far below random.
	if mh <= mp-1e-9 {
		t.Errorf("program-based (%.1f) cannot beat profile-based (%.1f)", mh, mp)
	}
	if mh > 45 {
		t.Errorf("program-based mean %.1f%% too weak", mh)
	}
	// History-based predictors: on mean, TAGE should be at least as good
	// as the one-bit baseline, and gshare should beat one-bit too.
	var oneBit, gshare, tage []float64
	for _, r := range rows {
		oneBit = append(oneBit, r.OneBit)
		gshare = append(gshare, r.Gshare)
		tage = append(tage, r.Tage)
	}
	m1, mg, mt := stats.Mean(oneBit), stats.Mean(gshare), stats.Mean(tage)
	t.Logf("means: 1-bit %.1f%%, gshare %.1f%%, tage %.1f%%", m1, mg, mt)
	if mg > m1 || mt > m1 {
		t.Errorf("history predictors (gshare %.1f, tage %.1f) should not lose to 1-bit (%.1f) on mean", mg, mt, m1)
	}
}

func TestRunErrorPaths(t *testing.T) {
	b := sharedEvalBench(t)
	if _, err := sharedEval.Run(b, 99); err == nil {
		t.Error("bad dataset index must error")
	}
	if _, err := sharedEval.Run(b, -1); err == nil {
		t.Error("negative dataset index must error")
	}
}

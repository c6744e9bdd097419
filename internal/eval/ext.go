package eval

import (
	"context"
	"fmt"
	"runtime"

	"ballarus/internal/core"
	"ballarus/internal/dynpred"
	"ballarus/internal/freq"
	"ballarus/internal/interp"
	"ballarus/internal/service"
	"ballarus/internal/stats"
	"ballarus/internal/suite"
	"ballarus/internal/trace"
)

// FreqRow is one benchmark's static-profile-estimation quality.
type FreqRow struct {
	Name      string
	Estimator freq.Quality
	Uniform   freq.Quality
	Random    freq.Quality
}

// FreqQuality runs the profile-estimation extension over the suite: how
// well do Ball-Larus predictions estimate block execution frequencies
// without running the program (the application Wall evaluated with
// "poor results" for his estimators)?
func (e *Evaluator) FreqQuality() ([]FreqRow, error) {
	var rows []FreqRow
	for _, b := range suite.All() {
		a, err := e.Analysis(b)
		if err != nil {
			return nil, err
		}
		cfg := runConfig(b, 0)
		cfg.CollectInstrCounts = true
		res, err := interp.Run(a.Prog, cfg)
		if err != nil {
			return nil, fmt.Errorf("eval: freq %s: %w", b.Name, err)
		}
		act := freq.Actual(a, res.InstrCounts)
		rows = append(rows, FreqRow{
			Name:      b.Name,
			Estimator: freq.Evaluate(a, freq.Estimate(a, core.DefaultOrder, freq.Options{}), act),
			Uniform:   freq.Evaluate(a, freq.Uniform(a), act),
			Random:    freq.Evaluate(a, freq.Random(a), act),
		})
	}
	return rows, nil
}

// FreqTable renders the extension results.
func (e *Evaluator) FreqTable() (string, error) {
	rows, err := e.FreqQuality()
	if err != nil {
		return "", err
	}
	t := newTable("Extension: static profile estimation from predictions (Spearman / top-25% overlap)")
	t.row("Program", "Estimator", "Uniform", "Random")
	var es, us, rs []float64
	for _, r := range rows {
		t.row(r.Name,
			fmt.Sprintf("%.2f %.2f", r.Estimator.Spearman, r.Estimator.Overlap),
			fmt.Sprintf("%.2f %.2f", r.Uniform.Spearman, r.Uniform.Overlap),
			fmt.Sprintf("%.2f %.2f", r.Random.Spearman, r.Random.Overlap))
		es = append(es, r.Estimator.Spearman)
		us = append(us, r.Uniform.Spearman)
		rs = append(rs, r.Random.Spearman)
	}
	t.row("MEAN",
		fmt.Sprintf("%.2f", stats.Mean(es)),
		fmt.Sprintf("%.2f", stats.Mean(us)),
		fmt.Sprintf("%.2f", stats.Mean(rs)))
	return t.String(), nil
}

// CrossProfileRow compares program-based prediction against profile-based
// prediction where the profile comes from a *different* dataset — the
// Fisher-Freudenberger methodology the paper benchmarks itself against
// ("program-based prediction is a factor of two worse, on the average,
// than profile-based prediction").
type CrossProfileRow struct {
	Name        string
	ProgramMiss float64 // Ball-Larus heuristic, all branches, dataset B
	CrossMiss   float64 // perfect predictor trained on dataset A, applied to B
	SelfMiss    float64 // perfect predictor on dataset B itself (lower bound)
}

// CrossProfile runs the comparison for every benchmark with at least two
// datasets: train on dataset 0, test on dataset 1.
func (e *Evaluator) CrossProfile() ([]CrossProfileRow, error) {
	var rows []CrossProfileRow
	for _, b := range suite.All() {
		if len(b.Data) < 2 {
			continue
		}
		a, err := e.Analysis(b)
		if err != nil {
			return nil, err
		}
		train, err := e.Run(b, 0)
		if err != nil {
			return nil, err
		}
		test, err := e.Run(b, 1)
		if err != nil {
			return nil, err
		}
		// Profile-based static predictions from the training run.
		crossPreds := make([]core.Prediction, len(a.Branches))
		for id := range crossPreds {
			if train.Profile.PerfectTaken(id) {
				crossPreds[id] = core.PredTaken
			} else {
				crossPreds[id] = core.PredFall
			}
		}
		prog := test.AllMissRate(a.Predictions(core.DefaultOrder))
		cross := test.AllMissRate(crossPreds)
		rows = append(rows, CrossProfileRow{
			Name:        b.Name,
			ProgramMiss: prog.Pred,
			CrossMiss:   cross.Pred,
			SelfMiss:    cross.Perfect,
		})
	}
	return rows, nil
}

// CrossProfileTable renders the comparison.
func (e *Evaluator) CrossProfileTable() (string, error) {
	rows, err := e.CrossProfile()
	if err != nil {
		return "", err
	}
	t := newTable("Extension: program-based vs cross-dataset profile-based prediction (all-branch miss %)")
	t.row("Program", "ProgramBased", "ProfileBased", "SelfPerfect")
	var ps, cs, ss []float64
	for _, r := range rows {
		t.row(r.Name, pct(r.ProgramMiss), pct(r.CrossMiss), pct(r.SelfMiss))
		ps = append(ps, r.ProgramMiss)
		cs = append(cs, r.CrossMiss)
		ss = append(ss, r.SelfMiss)
	}
	t.row("MEAN", pct(stats.Mean(ps)), pct(stats.Mean(cs)), pct(stats.Mean(ss)))
	return t.String(), nil
}

// DynPredRow compares static predictors against the dynamic hardware
// predictors of the paper's related work on one benchmark's trace.
type DynPredRow struct {
	Name    string
	Heur    float64 // Ball-Larus program-based static, miss %
	Perfect float64 // profile-based static (perfect for this run)
	OneBit  float64 // per-branch last-direction hardware predictor
	TwoBit  float64 // per-branch two-bit saturating counter
	Bimodal float64 // shared PC-indexed counter table (aliasing)
	Gshare  float64 // global history XOR PC (McFarling)
	Tage    float64 // tagged geometric-history tables (Seznec)
}

// dynRowBackends are the dynamic backends a DynPredRow shows.
var dynRowBackends = []string{
	dynpred.NameOneBit, dynpred.NameTwoBit, dynpred.NameBimodal, dynpred.NameGshare, dynpred.NameTAGE,
}

// DynPred races the static pair and each dynamic backend over every
// benchmark's default dataset, one streamed run each — quantifying
// McFarling & Hennessy's claim (profile-based static ≈ dynamic hardware)
// and how far history-based predictors push past both. The benchmarks
// run in parallel, bounded by the CPU count, as DefaultRunsCtx's do.
func (e *Evaluator) DynPred() ([]DynPredRow, error) {
	benches := suite.All()
	rows := make([]DynPredRow, len(benches))
	err := service.Fan(context.Background(), runtime.GOMAXPROCS(0), len(benches), func(_ context.Context, i int) error {
		b := benches[i]
		a, err := e.Analysis(b)
		if err != nil {
			return err
		}
		heur := trace.PredictionVector(a.Predictions(core.DefaultOrder))
		c, err := dynpred.Compare(a.Prog, runConfig(b, 0), heur, dynRowBackends, dynpred.H2POptions{})
		if err != nil {
			return fmt.Errorf("eval: %s: %w", b.Name, err)
		}
		row := &rows[i]
		row.Name = b.Name
		field := map[string]*float64{
			dynpred.NameStatic:  &row.Heur,
			dynpred.NamePerfect: &row.Perfect,
			dynpred.NameOneBit:  &row.OneBit,
			dynpred.NameTwoBit:  &row.TwoBit,
			dynpred.NameBimodal: &row.Bimodal,
			dynpred.NameGshare:  &row.Gshare,
			dynpred.NameTAGE:    &row.Tage,
		}
		for _, s := range c.Entrants {
			*field[s.Name] = s.MissRate()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// DynPredTable renders the comparison.
func (e *Evaluator) DynPredTable() (string, error) {
	rows, err := e.DynPred()
	if err != nil {
		return "", err
	}
	t := newTable("Extension: static vs dynamic hardware predictors (miss %)")
	t.row("Program", "BallLarus", "PerfectStatic", "1-bit", "2-bit", "Bimodal", "Gshare", "TAGE")
	cols := make([][]float64, 7)
	for _, r := range rows {
		vals := []float64{r.Heur, r.Perfect, r.OneBit, r.TwoBit, r.Bimodal, r.Gshare, r.Tage}
		cells := []string{r.Name}
		for i, v := range vals {
			cells = append(cells, fmt.Sprintf("%.1f", v))
			cols[i] = append(cols[i], v)
		}
		t.row(cells...)
	}
	mean := []string{"MEAN"}
	for _, c := range cols {
		mean = append(mean, fmt.Sprintf("%.1f", stats.Mean(c)))
	}
	t.row(mean...)
	return t.String(), nil
}

// AblationTable renders the DESIGN.md ablations as one table: the
// Ball-Larus predictor vs BTFNT, and strict vs NoPostdom analysis.
func (e *Evaluator) AblationTable() (string, error) {
	runs, err := e.DefaultRuns()
	if err != nil {
		return "", err
	}
	loose := New()
	loose.Opts = core.Options{NoPostdom: true}
	deep := New()
	deep.Opts = core.Options{GuardDepth: 3}
	t := newTable("Extension: ablations and alternative combiner (all-branch miss %)")
	t.row("Program", "BallLarus", "Voting", "BTFNT", "Loop+Rand", "NoPostdom", "DeepGuard")
	var bl, vt, bt, lr, np, dg []float64
	for _, r := range runs {
		blRate := r.AllMissRate(r.Analysis.Predictions(core.DefaultOrder))
		vtRate := r.AllMissRate(r.Analysis.VotePredictions(core.DefaultWeights))
		btRate := r.AllMissRate(r.Analysis.BTFNTPredictions())
		lrRate := r.AllMissRate(r.Analysis.LoopRandPredictions())
		lRun, err := loose.Run(r.Bench, 0)
		if err != nil {
			return "", err
		}
		npRate := lRun.AllMissRate(lRun.Analysis.Predictions(core.DefaultOrder))
		dRun, err := deep.Run(r.Bench, 0)
		if err != nil {
			return "", err
		}
		dgRate := dRun.AllMissRate(dRun.Analysis.Predictions(core.DefaultOrder))
		t.row(r.Bench.Name,
			fmt.Sprintf("%.1f", blRate.Pred), fmt.Sprintf("%.1f", vtRate.Pred),
			fmt.Sprintf("%.1f", btRate.Pred), fmt.Sprintf("%.1f", lrRate.Pred),
			fmt.Sprintf("%.1f", npRate.Pred), fmt.Sprintf("%.1f", dgRate.Pred))
		bl = append(bl, blRate.Pred)
		vt = append(vt, vtRate.Pred)
		bt = append(bt, btRate.Pred)
		lr = append(lr, lrRate.Pred)
		np = append(np, npRate.Pred)
		dg = append(dg, dgRate.Pred)
	}
	t.row("MEAN",
		fmt.Sprintf("%.1f", stats.Mean(bl)), fmt.Sprintf("%.1f", stats.Mean(vt)),
		fmt.Sprintf("%.1f", stats.Mean(bt)), fmt.Sprintf("%.1f", stats.Mean(lr)),
		fmt.Sprintf("%.1f", stats.Mean(np)), fmt.Sprintf("%.1f", stats.Mean(dg)))
	return t.String(), nil
}

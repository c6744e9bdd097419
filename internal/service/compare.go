package service

import (
	"context"
	"errors"
	"sort"
	"time"

	"ballarus/internal/core"
	"ballarus/internal/dynpred"
	"ballarus/internal/interp"
	"ballarus/internal/mir"
	"ballarus/internal/resilience"
	"ballarus/internal/trace"
)

// Entrant labels for the two static predictors every comparison
// includes alongside the dynamic backends.
const (
	CompareStatic  = "ballarus-heuristics"
	ComparePerfect = "perfect"
)

// CompareRequest describes one static-vs-dynamic tournament job: the
// usual pipeline inputs plus the dynamic backends to race.
type CompareRequest struct {
	Request
	// Predictors names the dynamic backends (dynpred registry names) to
	// race against the static predictors. Nil means every registered
	// backend. Order is irrelevant to the result: entrants are reported
	// sorted by name.
	Predictors []string
	// H2PMinExecuted overrides the minimum dynamic executions a branch
	// needs to be classified hard-to-predict (0 = the dynpred default).
	H2PMinExecuted int64
}

// PredictorScore is one entrant's tally over the compared run.
type PredictorScore struct {
	Name        string  `json:"name"`
	Branches    int64   `json:"branches"`
	Misses      int64   `json:"misses"`
	MissRatePct float64 `json:"miss_rate_pct"`
	// PerBranch carries the per-branch tallies for callers that drill
	// down; the HTTP layer omits it from responses.
	PerBranch []dynpred.BranchStat `json:"per_branch,omitempty"`
}

// CompareResult is the outcome of one tournament. Results may be shared
// between requests that hit the cache, so treat every field as
// read-only.
type CompareResult struct {
	// Name echoes the benchmark name, or "<source>" for source requests.
	Name string `json:"name"`
	// Predictors holds one score per entrant — the static pair
	// (CompareStatic, ComparePerfect) plus each requested dynamic
	// backend — sorted by name.
	Predictors []PredictorScore `json:"predictors"`
	// H2P classifies the contested branches: statically hard but
	// history-predictable, and the converse.
	H2P dynpred.H2P `json:"h2p"`

	StaticBranches  int   `json:"static_branches"`
	DynamicBranches int64 `json:"dynamic_branches"`
	Steps           int64 `json:"steps"`

	// Cache outcome of this particular request.
	ProgramCached  bool          `json:"program_cached"`
	AnalysisCached bool          `json:"analysis_cached"`
	CompareCached  bool          `json:"compare_cached"`
	Elapsed        time.Duration `json:"elapsed_ns"`
}

// resolveCompare normalizes the tournament half of a request: backend
// names default to the full registry and are validated and sorted.
func resolveCompare(req *CompareRequest) error {
	if req.Predictors == nil {
		req.Predictors = dynpred.Names()
		return nil
	}
	seen := map[string]bool{}
	names := make([]string, 0, len(req.Predictors))
	for _, name := range req.Predictors {
		if _, err := dynpred.New(name, 0); err != nil {
			return resilience.Invalid(err)
		}
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	sort.Strings(names)
	req.Predictors = names
	return nil
}

// compareKey extends the run key with everything else that shapes a
// tournament: the heuristic order behind the static entrant, the
// backend set, and the H2P threshold.
func (req *CompareRequest) compareKey(runKey string) string {
	h := newHasher().str(runKey).str("compare")
	for _, heur := range req.Order {
		h.i64(int64(heur))
	}
	for _, name := range req.Predictors {
		h.str(name)
	}
	return h.i64(req.H2PMinExecuted).sum()
}

// Compare races the requested dynamic predictors against the Ball-Larus
// static predictions (and the perfect static predictor) over one
// interpreter run, streaming the branch-event trace into every entrant
// with no materialization. It shares the compile and analysis caches
// with Predict, caches whole tournament results by content hash, and is
// admitted, fault-isolated, and metered exactly like Predict.
// Error classification follows the same taxonomy.
func (s *Service) Compare(ctx context.Context, req CompareRequest) (*CompareResult, error) {
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

	res, err := s.compare(ctx, req)
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

func (s *Service) compare(ctx context.Context, req CompareRequest) (*CompareResult, error) {
	if err := s.resolve(&req.Request); err != nil {
		return nil, err
	}
	if err := resolveCompare(&req); err != nil {
		return nil, err
	}
	progKey, analysisKey, runKey := req.Request.keys()

	// Stages 1-3 are Predict's: same caches, same keys, so a compare
	// after a predict of the same program pays for neither compile nor
	// analysis (nor vice versa).
	if err := ctx.Err(); err != nil {
		return nil, resilience.Classify(err)
	}
	prog, progHit, err := s.compileStage(ctx, &req.Request, progKey)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, resilience.Classify(err)
	}
	analysis, analysisHit, err := s.analyzeStage(ctx, analysisKey, prog)
	if err != nil {
		return nil, err
	}

	if err := ctx.Err(); err != nil {
		return nil, resilience.Classify(err)
	}
	preds, _, _ := timedCtx(ctx, s.met, stagePredict, func() ([]core.Prediction, bool, error) {
		return analysis.Predictions(req.Order), false, nil
	})

	// Stage 4: the tournament. One fresh interpreter run streams every
	// branch event through the entrants; the static pair is scored from
	// the run's own edge profile. The whole result is content-addressed,
	// so a repeat request is a single cache lookup.
	if err := ctx.Err(); err != nil {
		return nil, resilience.Classify(err)
	}
	res, compareHit, err := runStage(s, ctx, stageCompare, func() (*CompareResult, bool, error) {
		r, hit, err := s.compares.do(ctx, req.compareKey(runKey), func() (*CompareResult, error) {
			return s.runTournament(ctx, &req, prog, analysis, preds)
		})
		if errors.Is(err, interp.ErrInterrupted) && ctx.Err() != nil {
			err = ctx.Err()
		}
		return r, hit, err
	})
	if err != nil {
		return nil, err
	}
	if compareHit {
		s.met.runHits.Add(1)
	} else {
		s.met.runMisses.Add(1)
	}

	// Cache outcomes are per-request, and results are shared: return a
	// shallow copy rather than mutating the cached value.
	out := *res
	out.ProgramCached = progHit
	out.AnalysisCached = analysisHit
	out.CompareCached = compareHit
	return &out, nil
}

// runTournament executes the program once, streaming events into the
// dynamic entrants, and assembles the scored comparison.
func (s *Service) runTournament(ctx context.Context, req *CompareRequest, prog *mir.Program, analysis *core.Analysis, preds []core.Prediction) (*CompareResult, error) {
	tour, err := dynpred.NewTournament(len(analysis.Branches), req.Predictors)
	if err != nil {
		return nil, resilience.Invalid(err)
	}
	run, err := interp.Run(prog, interp.Config{
		Input:     req.Input,
		Budget:    req.Budget,
		Seed:      req.Seed,
		Interrupt: ctx.Done(),
		OnEvent:   tour.Observe,
	})
	var f *interp.Fault
	if errors.As(err, &f) {
		err = resilience.Invalid(err)
	}
	if err != nil {
		return nil, err
	}

	static := dynpred.StaticResult(run.Profile, trace.PredictionVector(preds))
	perfect := dynpred.StaticResult(run.Profile, trace.PerfectVector(run.Profile))
	dynamics := tour.Results()

	h2p, err := dynpred.ClassifyH2P(static, dynamics, dynpred.H2POptions{MinExecuted: req.H2PMinExecuted})
	if err != nil {
		return nil, err
	}

	res := &CompareResult{
		Name:            req.Benchmark,
		H2P:             h2p,
		StaticBranches:  len(analysis.Branches),
		DynamicBranches: run.Profile.Total(),
		Steps:           run.Steps,
	}
	if res.Name == "" {
		res.Name = "<source>"
	}
	res.Predictors = append(res.Predictors,
		toScore(CompareStatic, static), toScore(ComparePerfect, perfect))
	for _, d := range dynamics {
		res.Predictors = append(res.Predictors, toScore(d.Name, d.Result))
	}
	sort.Slice(res.Predictors, func(i, j int) bool {
		return res.Predictors[i].Name < res.Predictors[j].Name
	})
	s.met.observeCompare(res)
	return res, nil
}

func toScore(name string, r dynpred.Result) PredictorScore {
	return PredictorScore{
		Name:        name,
		Branches:    r.Branches,
		Misses:      r.Miss,
		MissRatePct: r.MissRate(),
		PerBranch:   r.PerBranch,
	}
}

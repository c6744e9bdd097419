package dynpred

import (
	"fmt"
	"sort"

	"ballarus/internal/interp"
	"ballarus/internal/mir"
	"ballarus/internal/trace"
)

// Score pairs a registry name with the predictor's tally.
type Score struct {
	Name string
	Result
}

// Labels of the two static entrants every Compare includes alongside
// the dynamic backends.
const (
	NameStatic  = "ballarus-heuristics"
	NamePerfect = "perfect"
)

// Comparison is the outcome of one Compare.
type Comparison struct {
	// Entrants holds the static pair (NameStatic, NamePerfect) and each
	// dynamic backend, sorted by name.
	Entrants []Score
	// H2P classifies the contested branches.
	H2P H2P
	// Run is the interpreter run every entrant was scored on.
	Run *interp.Result
}

// Compare races the named dynamic backends against two static
// predictors over one run of prog under cfg: the static vector (indexed
// by branch ID, true = predict taken) and the perfect static predictor of
// the run's own profile. The run's events stream through a Tournament, so
// no trace is materialized (cfg.OnEvent is replaced); the static pair is
// scored from the run's profile, and the branches one side solves and
// the other does not are classified under opts. A failed run's error is
// returned as the interpreter reported it.
func Compare(prog *mir.Program, cfg interp.Config, static []bool, backends []string, opts H2POptions) (*Comparison, error) {
	tour, err := NewTournament(len(static), backends)
	if err != nil {
		return nil, err
	}
	cfg.OnEvent = tour.Observe
	run, err := interp.Run(prog, cfg)
	if err != nil {
		return nil, err
	}
	heur := StaticResult(run.Profile, static)
	dynamics := tour.Results()
	h2p, err := ClassifyH2P(heur, dynamics, opts)
	if err != nil {
		return nil, err
	}
	entrants := append([]Score{
		{Name: NameStatic, Result: heur},
		{Name: NamePerfect, Result: StaticResult(run.Profile, trace.PerfectVector(run.Profile))},
	}, dynamics...)
	sort.Slice(entrants, func(i, j int) bool { return entrants[i].Name < entrants[j].Name })
	return &Comparison{Entrants: entrants, H2P: h2p, Run: run}, nil
}

// Tournament races several registry predictors over one event stream:
// Observe takes each event of a run in order.
type Tournament struct {
	entrants []Score
	preds    []Predictor
}

// NewTournament builds the named predictors, each sized for nBranches
// static branches, in the order given. Unknown names error.
func NewTournament(nBranches int, backends []string) (*Tournament, error) {
	t := &Tournament{
		entrants: make([]Score, 0, len(backends)),
		preds:    make([]Predictor, 0, len(backends)),
	}
	for _, name := range backends {
		p, err := New(name, nBranches)
		if err != nil {
			return nil, err
		}
		t.entrants = append(t.entrants, Score{Name: name, Result: Result{PerBranch: make([]BranchStat, nBranches)}})
		t.preds = append(t.preds, p)
	}
	return t, nil
}

// Observe feeds one trace event to every entrant. Indirect transfers
// are not conditional branches and are ignored.
func (t *Tournament) Observe(ev interp.Event) {
	if ev.Kind != interp.EvBranch {
		return
	}
	for i, p := range t.preds {
		t.entrants[i].step(p, ev.Branch, ev.Taken)
	}
}

// Results returns each entrant's tally in registration order. The
// returned slice aliases the tournament's state; read it only after the
// stream ends.
func (t *Tournament) Results() []Score { return t.entrants }

// ---- Hard-to-predict classification ----

// H2POptions tunes the classifier. The zero value selects the defaults
// documented on each field.
type H2POptions struct {
	// MinExecuted excludes branches executed fewer times than this from
	// classification (default 32): a handful of executions cannot
	// distinguish a hard branch from a cold one.
	MinExecuted int64
	// HardPct is the per-branch miss percentage at or above which one
	// side counts as defeated (default 20).
	HardPct float64
	// EasyFactor: the other side must miss at most missRate/EasyFactor
	// to count as having solved the branch (default 2).
	EasyFactor float64
}

func (o H2POptions) withDefaults() H2POptions {
	if o.MinExecuted == 0 {
		o.MinExecuted = 32
	}
	if o.HardPct == 0 {
		o.HardPct = 20
	}
	if o.EasyFactor == 0 {
		o.EasyFactor = 2
	}
	return o
}

// H2PBranch is one classified branch with both sides' stats.
type H2PBranch struct {
	Branch      int32   `json:"branch"`
	Executed    int64   `json:"executed"`
	StaticPct   float64 `json:"static_miss_pct"`
	DynamicPct  float64 `json:"dynamic_miss_pct"`
	BestDynamic string  `json:"best_dynamic"`
}

// H2P is the per-branch verdict of the static-vs-dynamic comparison, in
// the Lin & Tarsa framing: StaticBeaten branches defeat the Ball-Larus
// heuristics but fall to history; HistoryBeaten branches are the
// converse — predictable statically, missed by every dynamic entrant.
// Both lists are sorted by branch ID, so a fixed trace and config yield
// byte-identical classifications.
type H2P struct {
	StaticBeaten  []H2PBranch `json:"static_beaten,omitempty"`
	HistoryBeaten []H2PBranch `json:"history_beaten,omitempty"`
}

// ClassifyH2P compares a static predictor's per-branch tallies against
// the best dynamic entrant per branch. Both results must carry
// PerBranch counts over the same branch ID space.
func ClassifyH2P(static Result, dynamics []Score, opts H2POptions) (H2P, error) {
	o := opts.withDefaults()
	var out H2P
	for id := range static.PerBranch {
		s := static.PerBranch[id]
		if s.Executed < o.MinExecuted {
			continue
		}
		bestName, bestMiss := "", int64(-1)
		for _, d := range dynamics {
			if id >= len(d.PerBranch) {
				return H2P{}, fmt.Errorf("dynpred: entrant %q has %d per-branch stats, static has %d", d.Name, len(d.PerBranch), len(static.PerBranch))
			}
			if m := d.PerBranch[id].Miss; bestMiss < 0 || m < bestMiss {
				bestName, bestMiss = d.Name, m
			}
		}
		if bestMiss < 0 {
			continue // no dynamic entrants
		}
		sPct := 100 * float64(s.Miss) / float64(s.Executed)
		dPct := 100 * float64(bestMiss) / float64(s.Executed)
		b := H2PBranch{
			Branch:      int32(id),
			Executed:    s.Executed,
			StaticPct:   sPct,
			DynamicPct:  dPct,
			BestDynamic: bestName,
		}
		switch {
		case sPct >= o.HardPct && dPct <= sPct/o.EasyFactor:
			out.StaticBeaten = append(out.StaticBeaten, b)
		case dPct >= o.HardPct && sPct <= dPct/o.EasyFactor:
			out.HistoryBeaten = append(out.HistoryBeaten, b)
		}
	}
	return out, nil
}

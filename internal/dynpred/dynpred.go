// Package dynpred implements the dynamic hardware branch predictors the
// paper's related work compares against, replayed over the interpreter's
// branch-event stream: per-branch one-bit (last-direction) and two-bit
// saturating-counter predictors (Lee & A. J. Smith), an indexed bimodal
// table, gshare (McFarling's global-history XOR scheme), and a small
// TAGE (base table plus tagged geometric-history tables). McFarling and
// Hennessy's observation — that profile-based static prediction is
// comparable to dynamic hardware methods — and the paper's positioning
// of program-based prediction below both can be verified directly on
// the reproduction's own workloads.
//
// Predictors implement the streaming Predictor interface and are
// constructed through a name-keyed registry, so serving layers can
// offer a tournament over any subset by name. Compare races them on one
// run's live event stream (no full-trace materialization); Replay drives
// one over a materialized trace.
package dynpred

import (
	"fmt"
	"sort"
	"sync"

	"ballarus/internal/interp"
	"ballarus/internal/profile"
)

// Predictor is a streaming dynamic branch predictor. Predict returns
// the predicted direction of the next execution of branch; Update feeds
// it the actual outcome. Callers must pair the two: each Update follows
// the Predict for the same dynamic branch instance (global-history
// predictors stash provider state between the calls). Implementations
// are deterministic — no wall-clock or global randomness — so the same
// trace always yields the same miss counts. They are not safe for
// concurrent use; drive each instance from one goroutine.
type Predictor interface {
	Predict(branch int32) bool
	Update(branch int32, taken bool)
}

// Factory constructs a predictor sized for a program with nBranches
// static conditional branches.
type Factory func(nBranches int) Predictor

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register adds a named predictor constructor to the registry. It
// panics on a duplicate name — registration is an init-time affair.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("dynpred: duplicate predictor %q", name))
	}
	registry[name] = f
}

// New constructs the named predictor for a program with nBranches
// static branches. Unknown names error with the registered alternatives.
func New(name string, nBranches int) (Predictor, error) {
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("dynpred: no predictor %q (have %v)", name, Names())
	}
	return f(nBranches), nil
}

// Names returns the registered predictor names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register(NameOneBit, func(n int) Predictor { return NewOneBit(n) })
	Register(NameTwoBit, func(n int) Predictor { return NewTwoBit(n) })
	Register(NameBimodal, func(n int) Predictor { return NewBimodal(DefaultBimodalBits) })
	Register(NameGshare, func(n int) Predictor { return NewGshare(DefaultGshareBits, DefaultGshareHistory) })
	Register(NameTAGE, func(n int) Predictor { return NewTAGE(DefaultTAGEConfig()) })
}

// Registry names for the built-in predictors.
const (
	NameOneBit  = "one-bit"
	NameTwoBit  = "two-bit"
	NameBimodal = "bimodal"
	NameGshare  = "gshare"
	NameTAGE    = "tage"
)

// BranchStat is one static branch's dynamic tally under a predictor.
type BranchStat struct {
	Executed int64 `json:"executed"`
	Miss     int64 `json:"miss"`
}

// Result is one predictor's dynamic performance on a trace, with
// per-branch counts so hard-to-predict classification needs no second
// replay.
type Result struct {
	Branches int64 // conditional branches executed
	Miss     int64 // mispredictions
	// PerBranch, indexed by branch ID, tallies each static branch's
	// executions and misses. Nil for results produced by the deprecated
	// aggregate-only entry points' zero-branch traces.
	PerBranch []BranchStat
}

// MissRate returns the miss percentage over the trace's conditional
// branches. A trace with zero conditional branches has, by definition,
// no mispredictions to rate; MissRate reports 0 for it (not NaN), and
// callers that must distinguish "perfect" from "never exercised" should
// test Branches == 0.
func (r Result) MissRate() float64 {
	if r.Branches == 0 {
		return 0
	}
	return 100 * float64(r.Miss) / float64(r.Branches)
}

// step is the one per-event step of Replay and Tournament.Observe: p
// predicts one execution of a conditional branch, learns its outcome,
// and r tallies the hit or miss.
func (r *Result) step(p Predictor, branch int32, taken bool) {
	miss := p.Predict(branch) != taken
	p.Update(branch, taken)
	r.Branches++
	if int(branch) < len(r.PerBranch) {
		r.PerBranch[branch].Executed++
	}
	if miss {
		r.Miss++
		if int(branch) < len(r.PerBranch) {
			r.PerBranch[branch].Miss++
		}
	}
}

// Replay drives p over a materialized trace, pairing Predict and Update
// per conditional branch event, and returns the tally. Indirect events
// are not conditional branches and are skipped.
func Replay(events []interp.Event, nBranches int, p Predictor) Result {
	r := Result{PerBranch: make([]BranchStat, nBranches)}
	for i := range events {
		if ev := &events[i]; ev.Kind == interp.EvBranch {
			r.step(p, ev.Branch, ev.Taken)
		}
	}
	return r
}

// StaticResult scores a fixed per-branch prediction vector against an
// edge profile. Static predictors need no trace replay: their misses
// per branch are exactly the profile's counts on the unpredicted edge.
func StaticResult(p *profile.Profile, taken []bool) Result {
	r := Result{PerBranch: make([]BranchStat, len(taken))}
	for id := range taken {
		d := p.Executed(id)
		if d == 0 {
			continue
		}
		m := p.Misses(id, taken[id])
		r.Branches += d
		r.Miss += m
		r.PerBranch[id] = BranchStat{Executed: d, Miss: m}
	}
	return r
}

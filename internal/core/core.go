// Package core implements the paper's contribution: program-based static
// branch prediction. Every two-way conditional branch is classified by
// natural-loop analysis as a loop branch (predicted "iterate, don't exit")
// or a non-loop branch (predicted by seven simple local heuristics —
// Opcode, Loop, Call, Return, Guard, Store, Pointer — combined by a total
// priority order, with a deterministic pseudo-random Default for branches
// no heuristic covers).
package core

import (
	"fmt"

	"ballarus/internal/cfg"
	"ballarus/internal/mir"
	"ballarus/internal/profile"
)

// Prediction is a static branch prediction.
type Prediction int8

// Prediction values.
const (
	PredNone  Prediction = iota // heuristic does not apply
	PredTaken                   // predict the target successor
	PredFall                    // predict the fall-through successor
)

// String renders the prediction.
func (p Prediction) String() string {
	switch p {
	case PredTaken:
		return "taken"
	case PredFall:
		return "fall"
	}
	return "none"
}

// Taken reports whether the prediction is "taken"; only meaningful when
// the prediction is not PredNone.
func (p Prediction) Taken() bool { return p == PredTaken }

// Tally scores a prediction vector, indexed by branch ID, against an edge
// profile over every branch the profile executed: the vector's misses,
// the perfect static predictor's misses, and the dynamic branch count.
// profile.MakeRate turns the three into the paper's miss/perfect pair.
func Tally(preds []Prediction, p *profile.Profile) (miss, perfect, dyn int64) {
	for id := range preds {
		d := p.Executed(id)
		if d == 0 {
			continue
		}
		dyn += d
		perfect += p.PerfectMisses(id)
		miss += p.Misses(id, preds[id].Taken())
	}
	return miss, perfect, dyn
}

// Heuristic identifies one of the seven non-loop heuristics.
type Heuristic uint8

// The non-loop heuristics, in the paper's Section 4 presentation order.
const (
	Opcode Heuristic = iota
	LoopH
	CallH
	ReturnH
	Guard
	Store
	Point

	NumHeuristics = 7
)

var heuristicNames = [NumHeuristics]string{
	"Opcode", "Loop", "Call", "Return", "Guard", "Store", "Point",
}

// String returns the heuristic's paper name.
func (h Heuristic) String() string {
	if int(h) < NumHeuristics {
		return heuristicNames[h]
	}
	return fmt.Sprintf("heuristic(%d)", uint8(h))
}

// Order is a total priority order over the heuristics: to predict a
// non-loop branch, the first applicable heuristic wins.
type Order [NumHeuristics]Heuristic

// DefaultOrder is the ordering the paper's Table 5 and Section 6 use:
// Point, Call, Opcode, Return, Store, Loop, Guard.
var DefaultOrder = Order{Point, CallH, Opcode, ReturnH, Store, LoopH, Guard}

// SectionOrder lists the heuristics in definition order (used when
// enumerating all 5040 permutations).
var SectionOrder = Order{Opcode, LoopH, CallH, ReturnH, Guard, Store, Point}

// Valid reports whether the order is a permutation of all heuristics.
func (o Order) Valid() bool {
	var seen [NumHeuristics]bool
	for _, h := range o {
		if int(h) >= NumHeuristics || seen[h] {
			return false
		}
		seen[h] = true
	}
	return true
}

// String renders the order as "Point+Call+...".
func (o Order) String() string {
	s := ""
	for i, h := range o {
		if i > 0 {
			s += "+"
		}
		s += h.String()
	}
	return s
}

// Class classifies a branch per Section 3.
type Class uint8

// Branch classes.
const (
	NonLoop Class = iota
	LoopBranch
)

// String names the class.
func (c Class) String() string {
	if c == LoopBranch {
		return "loop"
	}
	return "non-loop"
}

// Branch is the analysis result for one conditional branch.
type Branch struct {
	ID    int
	Proc  int
	Instr int
	Block int
	Class Class

	// LoopPred is the loop predictor's choice; set for loop branches.
	LoopPred Prediction
	// Heur[h] is heuristic h's individual prediction, or PredNone when it
	// does not apply. Populated only for non-loop branches (the paper
	// applies heuristics to non-loop branches exclusively).
	Heur [NumHeuristics]Prediction
	// DefaultPred is the deterministic pseudo-random Default prediction.
	DefaultPred Prediction
	// BTFNT is the backward-taken/forward-not-taken baseline's choice
	// (ablation: the hardware rule the paper argues natural loop analysis
	// improves on).
	BTFNT Prediction
}

// PredictWith returns the combined prediction under the given order along
// with the heuristic that fired; ok is false if the Default was used.
func (b *Branch) PredictWith(order Order) (pred Prediction, by Heuristic, ok bool) {
	if b.Class == LoopBranch {
		return b.LoopPred, 0, true
	}
	for _, h := range order {
		if p := b.Heur[h]; p != PredNone {
			return p, h, true
		}
	}
	return b.DefaultPred, 0, false
}

// Options configure analysis; the zero value reproduces the paper.
type Options struct {
	// NoPostdom drops the "successor does not postdominate the branch"
	// requirement from the Loop, Call, Guard, and Store heuristics
	// (ablation).
	NoPostdom bool
	// GuardDepth generalizes the Guard heuristic per the paper's Section
	// 4.4: instead of looking only at the successor block, follow
	// execution paths controlled by the branch (blocks dominated by the
	// successor) up to this many extra blocks deep, stopping at
	// redefinitions and calls. 0 reproduces the paper.
	GuardDepth int
}

// Analysis is the complete static prediction analysis of a program.
type Analysis struct {
	Prog     *mir.Program
	Set      *profile.Set
	Graphs   []*cfg.Graph // per procedure; nil for builtins
	Branches []Branch     // indexed by branch ID
	opts     Options
}

// Analyze builds CFGs for every procedure and runs the full Ball-Larus
// analysis over every conditional branch.
func Analyze(prog *mir.Program, opts Options) (*Analysis, error) {
	a := &Analysis{
		Prog:   prog,
		Set:    profile.Index(prog),
		Graphs: make([]*cfg.Graph, len(prog.Procs)),
		opts:   opts,
	}
	a.Branches = make([]Branch, a.Set.Len())
	for pi, pr := range prog.Procs {
		if pr.Builtin != mir.NotBuiltin {
			continue
		}
		g, err := cfg.Build(pr)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", pr.Name, err)
		}
		a.Graphs[pi] = g
	}
	for id := 0; id < a.Set.Len(); id++ {
		site := a.Set.Site(id)
		b := &a.Branches[id]
		b.ID = id
		b.Proc = site.Proc
		b.Instr = site.Instr
		a.analyzeBranch(b)
	}
	return a, nil
}

// analyzeBranch fills in classification and every heuristic's prediction.
func (a *Analysis) analyzeBranch(b *Branch) {
	g := a.Graphs[b.Proc]
	blk := g.BlockOf(b.Instr)
	b.Block = blk
	in := &g.Proc.Code[b.Instr]

	t := g.TargetSucc(blk)
	fl := g.FallSucc(blk)

	// BTFNT baseline: a backwards branch (target address before the branch
	// address) is predicted taken; forward branches fall through.
	if in.Target <= b.Instr {
		b.BTFNT = PredTaken
	} else {
		b.BTFNT = PredFall
	}

	// Deterministic "random" Default (splitmix-style hash of the ID).
	b.DefaultPred = defaultPrediction(b.ID)

	// Section 3 classification.
	tBack := g.IsBackedge(blk, t)
	fBack := g.IsBackedge(blk, fl)
	tExit := g.IsExitEdge(blk, t)
	fExit := g.IsExitEdge(blk, fl)
	if tBack || fBack || tExit || fExit {
		b.Class = LoopBranch
		b.LoopPred = a.loopPrediction(g, blk, t, fl, tBack, fBack, tExit, fExit)
		return
	}
	b.Class = NonLoop

	b.Heur[Opcode] = opcodePrediction(in.Op)
	b.Heur[LoopH] = a.succProperty(g, blk, t, fl, true, func(s int) bool {
		return g.IsLoopHead(s) || g.IsPreheader(s)
	}, true)
	b.Heur[CallH] = a.succProperty(g, blk, t, fl, false, func(s int) bool {
		return g.LeadsToCall(s)
	}, true)
	b.Heur[ReturnH] = a.succProperty(g, blk, t, fl, false, func(s int) bool {
		return g.LeadsToReturn(s)
	}, false)
	b.Heur[Guard] = a.guardPrediction(g, blk, b.Instr, t, fl)
	b.Heur[Store] = a.succProperty(g, blk, t, fl, false, func(s int) bool {
		return g.Blocks[s].HasStore
	}, true)
	b.Heur[Point] = pointerPrediction(g, blk, b.Instr)
}

// loopPrediction implements Section 3's loop predictor: predict a backedge
// if one exists (innermost loop on a tie, per footnote 1); otherwise
// predict the non-exit edge — loops iterate many times and exit once.
func (a *Analysis) loopPrediction(g *cfg.Graph, blk, t, fl int, tBack, fBack, tExit, fExit bool) Prediction {
	switch {
	case tBack && fBack:
		if g.InnermostLoopSize(t) <= g.InnermostLoopSize(fl) {
			return PredTaken
		}
		return PredFall
	case tBack:
		return PredTaken
	case fBack:
		return PredFall
	}
	// Exit-edge case: predict the edge that stays in the innermost loop
	// containing the branch.
	for _, l := range g.LoopsContaining(blk) {
		tIn, fIn := l.Contains(t), l.Contains(fl)
		if tIn && !fIn {
			return PredTaken
		}
		if fIn && !tIn {
			return PredFall
		}
	}
	// Both edges behave identically with respect to every enclosing loop;
	// fall back on the non-exit edge, then on taken.
	if !tExit && fExit {
		return PredTaken
	}
	if tExit && !fExit {
		return PredFall
	}
	return PredTaken
}

// succProperty implements the Section 4.2 selection-property schema: if
// exactly one successor has the property, predict the successor with
// (withProp=true) or without (withProp=false) it. When needsNotPostdom is
// set, "successor does not postdominate the branch" is conjoined to the
// property, matching the paper's per-heuristic definitions.
func (a *Analysis) succProperty(g *cfg.Graph, blk, t, fl int, withProp bool, prop func(int) bool, needsNotPostdom bool) Prediction {
	has := func(s int) bool {
		if !prop(s) {
			return false
		}
		if needsNotPostdom && !a.opts.NoPostdom && g.Postdominates(s, blk) {
			return false
		}
		return true
	}
	tp, fp := has(t), has(fl)
	if tp == fp {
		return PredNone
	}
	if tp == withProp {
		return PredTaken
	}
	return PredFall
}

// opcodePrediction implements the Opcode heuristic: bltz/blez predict not
// taken (negative values signal errors), bgtz/bgez predict taken, and
// floating-point equality tests predict false.
func opcodePrediction(op mir.Op) Prediction {
	switch op {
	case mir.Bltz, mir.Blez:
		return PredFall
	case mir.Bgtz, mir.Bgez:
		return PredTaken
	case mir.FBeq:
		return PredFall
	case mir.FBne:
		return PredTaken
	}
	return PredNone
}

// guardPrediction implements the Guard heuristic: a branch register used
// in a successor block before being defined there guards that use; predict
// the successor with the use (the guard usually lets the value flow).
func (a *Analysis) guardPrediction(g *cfg.Graph, blk, instr, t, fl int) Prediction {
	in := &g.Proc.Code[instr]
	var operands []mir.Reg
	operands = in.Uses(operands)
	// R0 is not a guarded value.
	regs := operands[:0]
	for _, r := range operands {
		if r != mir.R0 {
			regs = append(regs, r)
		}
	}
	if len(regs) == 0 {
		return PredNone
	}
	return a.succProperty(g, blk, t, fl, true, func(s int) bool {
		for _, r := range regs {
			if a.guardUse(g, s, r) {
				return true
			}
		}
		return false
	}, true)
}

// guardUse reports whether register r is used before being defined on the
// execution paths the successor s controls. With GuardDepth 0 this is the
// paper's single-block test; deeper settings follow single paths through
// blocks dominated by s (so their execution is still decided by the
// branch), stopping at definitions of r and at calls.
func (a *Analysis) guardUse(g *cfg.Graph, s int, r mir.Reg) bool {
	use, blocked := useOrDef(g, s, r)
	if use {
		return true
	}
	if blocked || a.opts.GuardDepth == 0 {
		return false
	}
	type item struct{ b, depth int }
	seen := map[int]bool{s: true}
	work := []item{{s, 0}}
	for len(work) > 0 {
		it := work[len(work)-1]
		work = work[:len(work)-1]
		if it.depth >= a.opts.GuardDepth {
			continue
		}
		for _, n := range g.Blocks[it.b].Succs {
			if seen[n] || !g.Dominates(s, n) {
				continue
			}
			seen[n] = true
			use, blocked := useOrDef(g, n, r)
			if use {
				return true
			}
			if !blocked {
				work = append(work, item{n, it.depth + 1})
			}
		}
	}
	return false
}

// useOrDef scans one block: use reports a read of r before any write;
// blocked reports that the scan may not continue past this block (r was
// written, or a call was reached).
func useOrDef(g *cfg.Graph, s int, r mir.Reg) (use, blocked bool) {
	blk := g.Blocks[s]
	var buf [4]mir.Reg
	for i := blk.Start; i < blk.End; i++ {
		in := &g.Proc.Code[i]
		for _, u := range in.Uses(buf[:0]) {
			if u == r {
				return true, true
			}
		}
		if d, ok := in.Def(); ok && d == r {
			return false, true
		}
		if in.Op.IsCall() {
			return false, true
		}
	}
	return false, false
}

// pointerPrediction implements the Pointer heuristic: beq/bne comparing a
// register against $zero (or two registers against each other) where the
// compared registers were defined by loads in the branch's own basic block
// — loads not based off GP, with no call between the load and the branch —
// look like pointer null tests and pointer equality tests. Equality is
// predicted false: beq predicts fall-through, bne predicts taken.
func pointerPrediction(g *cfg.Graph, blk, instr int) Prediction {
	in := &g.Proc.Code[instr]
	if in.Op != mir.Beq && in.Op != mir.Bne {
		return PredNone
	}
	loaded := func(r mir.Reg) bool {
		if r == mir.R0 || r.IsFloat() {
			return false
		}
		start := g.Blocks[blk].Start
		// Walk back from the branch to the most recent definition of r.
		for i := instr - 1; i >= start; i-- {
			def := &g.Proc.Code[i]
			if def.Op.IsCall() {
				return false // call between load and branch
			}
			if d, ok := def.Def(); ok && d == r {
				return def.Op == mir.Lw && def.Rs != mir.GP
			}
		}
		return false
	}
	var ok bool
	switch {
	case in.Rs == mir.R0:
		ok = loaded(in.Rt)
	case in.Rt == mir.R0:
		ok = loaded(in.Rs)
	default:
		ok = loaded(in.Rs) && loaded(in.Rt)
	}
	if !ok {
		return PredNone
	}
	if in.Op == mir.Beq {
		return PredFall
	}
	return PredTaken
}

// defaultPrediction derives a reproducible pseudo-random prediction from
// the branch ID (splitmix64 finalizer).
func defaultPrediction(id int) Prediction {
	z := uint64(id) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z&1 == 0 {
		return PredTaken
	}
	return PredFall
}

// Predictions returns the combined prediction for every branch under the
// order, as a taken/fall slice indexed by branch ID.
func (a *Analysis) Predictions(order Order) []Prediction {
	out := make([]Prediction, len(a.Branches))
	for i := range a.Branches {
		p, _, _ := a.Branches[i].PredictWith(order)
		out[i] = p
	}
	return out
}

// LoopRandPredictions returns the Loop+Rand baseline of Section 6: the
// loop predictor on loop branches and random prediction on non-loop
// branches.
func (a *Analysis) LoopRandPredictions() []Prediction {
	out := make([]Prediction, len(a.Branches))
	for i := range a.Branches {
		b := &a.Branches[i]
		if b.Class == LoopBranch {
			out[i] = b.LoopPred
		} else {
			out[i] = b.DefaultPred
		}
	}
	return out
}

// BTFNTPredictions returns the backward-taken/forward-not-taken baseline.
func (a *Analysis) BTFNTPredictions() []Prediction {
	out := make([]Prediction, len(a.Branches))
	for i := range a.Branches {
		out[i] = a.Branches[i].BTFNT
	}
	return out
}

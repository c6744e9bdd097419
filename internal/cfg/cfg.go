// Package cfg builds per-procedure control flow graphs over MIR and
// computes the relations the Ball-Larus predictor consumes: dominators,
// postdominators, DFS/backedge structure, loop heads, natural loops, and
// loop exit edges (Aho-Sethi-Ullman natural loop analysis, exactly as the
// paper's Section 3 describes it).
package cfg

import (
	"fmt"
	"sort"

	"ballarus/internal/mir"
)

// Block is a basic block: a maximal straight-line instruction range
// [Start,End) of its procedure. A block ending in a conditional branch has
// two outgoing edges; Succs[0] is then the taken (target) successor and
// Succs[1] the fall-through successor.
type Block struct {
	Index int
	Start int // first instruction index
	End   int // one past the last instruction index

	Succs []int
	Preds []int

	// Local facts used by the heuristics.
	HasCall   bool // contains Jal or Jalr
	HasStore  bool // contains Sw or FSw
	HasReturn bool // contains Jr RA
}

// IsCondBranch reports whether the block ends in a two-way conditional
// branch.
func (b *Block) IsCondBranch(p *mir.Proc) bool {
	return b.End > b.Start && p.Code[b.End-1].Op.IsCondBranch()
}

// Loop is a natural loop: the head plus every block that can reach one of
// the head's backedge sources without passing through the head. Loops with
// the same head are merged, per the standard definition.
type Loop struct {
	Head   int
	Blocks []bool // membership by block index
	Size   int    // number of member blocks
}

// Contains reports whether block b is in the loop.
func (l *Loop) Contains(b int) bool { return b >= 0 && b < len(l.Blocks) && l.Blocks[b] }

// Graph is the control flow graph of one procedure together with the
// analyses the predictor needs. Build constructs it; the exported fields
// are read-only thereafter.
type Graph struct {
	Proc   *mir.Proc
	Blocks []*Block

	blockOf []int // instruction index -> block index

	rpo    []int // reverse postorder of reachable blocks
	rpoNum []int // block index -> position in rpo, -1 if unreachable

	idom  []int // immediate dominator, -1 for entry/unreachable
	ipdom []int // immediate postdominator, -1 if none / cannot reach exit

	backedge  map[[2]int]bool // edges u->v with v dom u
	loopHead  []bool
	loops     []*Loop   // sorted by increasing size (inner first)
	loopsAt   [][]*Loop // block index -> loops containing it, inner first
	exitEdges map[[2]int]bool
}

// Build constructs the CFG and all analyses for proc. It panics only on
// internal inconsistencies; malformed procedures should be rejected by
// mir.Validate first.
func Build(proc *mir.Proc) (*Graph, error) {
	if proc.Builtin != mir.NotBuiltin {
		return nil, fmt.Errorf("cfg: cannot build graph for builtin %q", proc.Name)
	}
	if len(proc.Code) == 0 {
		return nil, fmt.Errorf("cfg: empty procedure %q", proc.Name)
	}
	g := &Graph{Proc: proc}
	g.splitBlocks()
	g.connect()
	g.computeRPO()
	g.computeDominators()
	g.computePostdominators()
	g.findLoops()
	return g, nil
}

// splitBlocks finds leaders and carves the instruction stream into blocks.
func (g *Graph) splitBlocks() {
	code := g.Proc.Code
	leader := make([]bool, len(code))
	leader[0] = true
	for i := range code {
		in := &code[i]
		switch {
		case in.Op.IsCondBranch():
			leader[in.Target] = true
			if i+1 < len(code) {
				leader[i+1] = true
			}
		case in.Op == mir.J:
			leader[in.Target] = true
			if i+1 < len(code) {
				leader[i+1] = true
			}
		case in.Op == mir.Jtab:
			for _, t := range in.Table {
				leader[t] = true
			}
			if i+1 < len(code) {
				leader[i+1] = true
			}
		case in.Op == mir.Jr || in.Op == mir.Halt:
			if i+1 < len(code) {
				leader[i+1] = true
			}
		}
	}
	g.blockOf = make([]int, len(code))
	for i := 0; i < len(code); {
		b := &Block{Index: len(g.Blocks), Start: i}
		j := i
		for {
			g.blockOf[j] = b.Index
			op := code[j].Op
			if op.IsCall() {
				b.HasCall = true
			}
			if op.IsStore() {
				b.HasStore = true
			}
			if code[j].IsReturn() {
				b.HasReturn = true
			}
			j++
			if j >= len(code) || leader[j] || op.EndsBlock() {
				break
			}
		}
		b.End = j
		g.Blocks = append(g.Blocks, b)
		i = j
	}
}

// connect wires successor and predecessor edges.
func (g *Graph) connect() {
	code := g.Proc.Code
	for _, b := range g.Blocks {
		last := &code[b.End-1]
		switch {
		case last.Op.IsCondBranch():
			// Succs[0] = taken target, Succs[1] = fall-through.
			b.Succs = append(b.Succs, g.blockOf[last.Target])
			if b.End < len(code) {
				b.Succs = append(b.Succs, g.blockOf[b.End])
			}
		case last.Op == mir.J:
			b.Succs = append(b.Succs, g.blockOf[last.Target])
		case last.Op == mir.Jtab:
			seen := map[int]bool{}
			for _, t := range last.Table {
				s := g.blockOf[t]
				if !seen[s] {
					seen[s] = true
					b.Succs = append(b.Succs, s)
				}
			}
		case last.Op == mir.Jr, last.Op == mir.Halt:
			// no successors
		default:
			if b.End < len(code) {
				b.Succs = append(b.Succs, g.blockOf[b.End])
			}
		}
	}
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			g.Blocks[s].Preds = append(g.Blocks[s].Preds, b.Index)
		}
	}
}

// TargetSucc returns the taken successor of a conditional-branch block.
func (g *Graph) TargetSucc(b int) int { return g.Blocks[b].Succs[0] }

// FallSucc returns the fall-through successor of a conditional-branch
// block, or -1 if the branch is the last instruction of the procedure
// (which mir.Validate rejects).
func (g *Graph) FallSucc(b int) int {
	if len(g.Blocks[b].Succs) < 2 {
		return -1
	}
	return g.Blocks[b].Succs[1]
}

// BlockOf returns the block containing instruction index i.
func (g *Graph) BlockOf(i int) int { return g.blockOf[i] }

// Reachable reports whether block b is reachable from the entry.
func (g *Graph) Reachable(b int) bool { return g.rpoNum[b] >= 0 }

func (g *Graph) computeRPO() {
	n := len(g.Blocks)
	g.rpoNum = make([]int, n)
	for i := range g.rpoNum {
		g.rpoNum[i] = -1
	}
	visited := make([]bool, n)
	post := make([]int, 0, n)
	// Iterative postorder DFS from block 0.
	type frame struct{ b, next int }
	stack := []frame{{0, 0}}
	visited[0] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(g.Blocks[f.b].Succs) {
			s := g.Blocks[f.b].Succs[f.next]
			f.next++
			if !visited[s] {
				visited[s] = true
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		post = append(post, f.b)
		stack = stack[:len(stack)-1]
	}
	g.rpo = make([]int, len(post))
	for i := range post {
		g.rpo[i] = post[len(post)-1-i]
	}
	for i, b := range g.rpo {
		g.rpoNum[b] = i
	}
}

// computeDominators runs the Cooper-Harvey-Kennedy iterative algorithm.
func (g *Graph) computeDominators() {
	n := len(g.Blocks)
	g.idom = make([]int, n)
	for i := range g.idom {
		g.idom[i] = -1
	}
	entry := g.rpo[0]
	g.idom[entry] = entry
	changed := true
	for changed {
		changed = false
		for _, b := range g.rpo[1:] {
			newIdom := -1
			for _, p := range g.Blocks[b].Preds {
				if g.idom[p] == -1 {
					continue // not yet processed or unreachable
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = g.intersect(newIdom, p, g.idom, g.rpoNum)
				}
			}
			if newIdom != -1 && g.idom[b] != newIdom {
				g.idom[b] = newIdom
				changed = true
			}
		}
	}
	g.idom[entry] = -1 // by convention the entry has no idom
}

// intersect walks two dominator-tree fingers to their common ancestor.
func (g *Graph) intersect(a, b int, idom, order []int) int {
	for a != b {
		for order[a] > order[b] {
			a = idom[a]
		}
		for order[b] > order[a] {
			b = idom[b]
		}
	}
	return a
}

// computePostdominators mirrors the dominator computation on the reverse
// graph with a virtual exit joined to every block with no successors.
// Blocks that cannot reach any exit (infinite loops) get ipdom -1 and
// Postdominates is conservatively false around them.
func (g *Graph) computePostdominators() {
	n := len(g.Blocks)
	exit := n // virtual exit node
	rsucc := make([][]int, n+1)
	rpred := make([][]int, n+1)
	for _, b := range g.Blocks {
		if len(b.Succs) == 0 {
			rpred[b.Index] = append(rpred[b.Index], exit)
			rsucc[exit] = append(rsucc[exit], b.Index)
		}
		for _, s := range b.Succs {
			rpred[b.Index] = append(rpred[b.Index], s)
			rsucc[s] = append(rsucc[s], b.Index)
		}
	}
	g.ipdom = make([]int, n)
	for i := range g.ipdom {
		g.ipdom[i] = -1
	}
	if len(rsucc[exit]) == 0 {
		return // no exits at all
	}
	// Reverse postorder of the reverse graph, rooted at the virtual exit.
	order := make([]int, n+1)
	for i := range order {
		order[i] = -1
	}
	visited := make([]bool, n+1)
	var post []int
	type frame struct{ b, next int }
	stack := []frame{{exit, 0}}
	visited[exit] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(rsucc[f.b]) {
			s := rsucc[f.b][f.next]
			f.next++
			if !visited[s] {
				visited[s] = true
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		post = append(post, f.b)
		stack = stack[:len(stack)-1]
	}
	rpo := make([]int, len(post))
	for i := range post {
		rpo[i] = post[len(post)-1-i]
	}
	for i, b := range rpo {
		order[b] = i
	}
	ip := make([]int, n+1)
	for i := range ip {
		ip[i] = -1
	}
	ip[exit] = exit
	changed := true
	for changed {
		changed = false
		for _, b := range rpo[1:] {
			newIp := -1
			for _, p := range rpred[b] {
				if order[p] == -1 || ip[p] == -1 {
					continue
				}
				if newIp == -1 {
					newIp = p
				} else {
					newIp = g.intersect(newIp, p, ip, order)
				}
			}
			if newIp != -1 && ip[b] != newIp {
				ip[b] = newIp
				changed = true
			}
		}
	}
	for i := 0; i < n; i++ {
		if order[i] != -1 && ip[i] != exit {
			g.ipdom[i] = ip[i]
		} else if order[i] != -1 && ip[i] == exit {
			g.ipdom[i] = -2 // postdominated only by the virtual exit
		}
	}
}

// Dominates reports whether a dominates b (reflexive).
func (g *Graph) Dominates(a, b int) bool {
	if !g.Reachable(a) || !g.Reachable(b) {
		return false
	}
	for b != -1 {
		if a == b {
			return true
		}
		b = g.idom[b]
	}
	return false
}

// Postdominates reports whether a postdominates b (reflexive): every path
// from b to procedure exit passes through a.
func (g *Graph) Postdominates(a, b int) bool {
	if a == b {
		return g.ipdom[a] != -1 // only meaningful if a reaches exit
	}
	for b != -1 && b != -2 {
		if a == b {
			return true
		}
		b = g.ipdom[b]
	}
	return false
}

// findLoops identifies backedges (u->v with v dominating u), builds the
// natural loop of each head (merging loops sharing a head), and records
// exit edges: edges v->w with v inside some loop and w outside that loop.
func (g *Graph) findLoops() {
	n := len(g.Blocks)
	g.backedge = map[[2]int]bool{}
	g.loopHead = make([]bool, n)
	heads := map[int][]int{} // head -> backedge sources
	for _, b := range g.Blocks {
		if !g.Reachable(b.Index) {
			continue
		}
		for _, s := range b.Succs {
			if g.Dominates(s, b.Index) {
				g.backedge[[2]int{b.Index, s}] = true
				g.loopHead[s] = true
				heads[s] = append(heads[s], b.Index)
			}
		}
	}
	headList := make([]int, 0, len(heads))
	for h := range heads {
		headList = append(headList, h)
	}
	sort.Ints(headList)
	for _, h := range headList {
		l := &Loop{Head: h, Blocks: make([]bool, n)}
		l.Blocks[h] = true
		l.Size = 1
		// Standard worklist: everything that reaches a backedge source
		// without passing through the head.
		var work []int
		for _, src := range heads[h] {
			if !l.Blocks[src] {
				l.Blocks[src] = true
				l.Size++
				work = append(work, src)
			}
		}
		for len(work) > 0 {
			b := work[len(work)-1]
			work = work[:len(work)-1]
			for _, p := range g.Blocks[b].Preds {
				if !g.Reachable(p) || l.Blocks[p] {
					continue
				}
				l.Blocks[p] = true
				l.Size++
				work = append(work, p)
			}
		}
		g.loops = append(g.loops, l)
	}
	// Inner loops first: sort by size ascending (ties by head for
	// determinism).
	sort.Slice(g.loops, func(i, j int) bool {
		if g.loops[i].Size != g.loops[j].Size {
			return g.loops[i].Size < g.loops[j].Size
		}
		return g.loops[i].Head < g.loops[j].Head
	})
	g.loopsAt = make([][]*Loop, n)
	for _, l := range g.loops {
		for b := 0; b < n; b++ {
			if l.Blocks[b] {
				g.loopsAt[b] = append(g.loopsAt[b], l)
			}
		}
	}
	g.exitEdges = map[[2]int]bool{}
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			for _, l := range g.loopsAt[b.Index] {
				if !l.Contains(s) {
					g.exitEdges[[2]int{b.Index, s}] = true
					break
				}
			}
		}
	}
}

// IsBackedge reports whether the edge from->to is a loop backedge.
func (g *Graph) IsBackedge(from, to int) bool { return g.backedge[[2]int{from, to}] }

// IsExitEdge reports whether the edge from->to exits some natural loop.
func (g *Graph) IsExitEdge(from, to int) bool { return g.exitEdges[[2]int{from, to}] }

// IsLoopHead reports whether block b is the head of a natural loop.
func (g *Graph) IsLoopHead(b int) bool { return g.loopHead[b] }

// LoopsContaining returns the loops containing block b, innermost first.
func (g *Graph) LoopsContaining(b int) []*Loop { return g.loopsAt[b] }

// InnermostLoopSize returns the size of the smallest loop containing b, or
// 0 if b is in no loop. Used for the paper's footnote-1 tiebreak: when both
// outgoing edges of a branch are backedges, predict the edge leading to the
// innermost loop.
func (g *Graph) InnermostLoopSize(b int) int {
	if len(g.loopsAt[b]) == 0 {
		return 0
	}
	return g.loopsAt[b][0].Size
}

// IsPreheader reports whether block b unconditionally passes control to a
// loop head that b dominates — the paper's definition of a loop preheader
// for the Loop heuristic.
func (g *Graph) IsPreheader(b int) bool {
	blk := g.Blocks[b]
	if len(blk.Succs) != 1 {
		return false
	}
	s := blk.Succs[0]
	return g.IsLoopHead(s) && g.Dominates(b, s)
}

// uncondChainLimit bounds the single-successor chain walks below; chains in
// real code are short and the bound guards against pathological graphs.
const uncondChainLimit = 16

// LeadsToCall reports whether block b contains a call, or unconditionally
// passes control to a block with a call that b dominates (the Call
// heuristic's selection property).
func (g *Graph) LeadsToCall(b int) bool {
	if g.Blocks[b].HasCall {
		return true
	}
	c := b
	for i := 0; i < uncondChainLimit; i++ {
		blk := g.Blocks[c]
		if len(blk.Succs) != 1 {
			return false
		}
		n := blk.Succs[0]
		if !g.Dominates(b, n) {
			return false
		}
		if g.Blocks[n].HasCall {
			return true
		}
		if n == b {
			return false // cycle
		}
		c = n
	}
	return false
}

// LeadsToReturn reports whether block b contains a return, or
// unconditionally passes control to a block that contains a return (the
// Return heuristic's selection property).
func (g *Graph) LeadsToReturn(b int) bool {
	if g.Blocks[b].HasReturn {
		return true
	}
	c := b
	for i := 0; i < uncondChainLimit; i++ {
		blk := g.Blocks[c]
		if len(blk.Succs) != 1 {
			return false
		}
		n := blk.Succs[0]
		if g.Blocks[n].HasReturn {
			return true
		}
		if n == b {
			return false
		}
		c = n
	}
	return false
}

// String renders a compact summary for debugging.
func (g *Graph) String() string {
	s := fmt.Sprintf("cfg %s: %d blocks, %d loops\n", g.Proc.Name, len(g.Blocks), len(g.loops))
	for _, b := range g.Blocks {
		s += fmt.Sprintf("  B%d [%d,%d) -> %v", b.Index, b.Start, b.End, b.Succs)
		if g.loopHead[b.Index] {
			s += " (loop head)"
		}
		s += "\n"
	}
	return s
}

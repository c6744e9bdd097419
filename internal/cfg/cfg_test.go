package cfg

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ballarus/internal/mir"
)

// buildProc assembles a procedure from a compact edge description: each
// block is one instruction; blocks with two successors end in a Beq, one
// successor in a J, zero in a Jr RA (return). Block i is instruction i.
func buildProc(t *testing.T, succs [][]int) *Graph {
	t.Helper()
	p := &mir.Proc{Name: "t"}
	for i, ss := range succs {
		switch len(ss) {
		case 0:
			p.Code = append(p.Code, mir.Instr{Op: mir.Jr, Rs: mir.RA})
		case 1:
			p.Code = append(p.Code, mir.Instr{Op: mir.J, Target: ss[0]})
		case 2:
			// Target successor first, fall-through second. A fall-through
			// that isn't i+1 needs a following J, which would shift the
			// indices; require ss[1] == i+1.
			if ss[1] != i+1 {
				t.Fatalf("block %d: fall-through %d must be %d", i, ss[1], i+1)
			}
			p.Code = append(p.Code, mir.Instr{Op: mir.Beq, Rs: mir.R0, Rt: mir.R0, Target: ss[0]})
		default:
			t.Fatalf("block %d: too many successors", i)
		}
	}
	g, err := Build(p)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(g.Blocks) != len(succs) {
		t.Fatalf("got %d blocks, want %d", len(g.Blocks), len(succs))
	}
	return g
}

// paperFigure1 builds the CFG from the paper's Figure 1:
//
//	A -> B, F
//	B -> C, D
//	C -> D*, F        (* = predicted)
//	D -> B (backedge), E
//	E -> B (backedge), F
//	F exit
//
// Natural loop head B contains {B, C, D, E}; exit edges C->F and E->F.
func paperFigure1(t *testing.T) *Graph {
	// Order: A=0, B=1, C=2, D=3, E=4, F=5.
	return buildProc(t, [][]int{
		{5, 1}, // A: target F, fall B
		{3, 2}, // B: target D? No—B -> C,D: target D, fall C
		{5, 3}, // C: target F, fall D
		{1, 4}, // D: target B (backedge), fall E
		{1, 5}, // E: target B (backedge), fall F
		{},     // F: exit
	})
}

func TestFigure1Loops(t *testing.T) {
	g := paperFigure1(t)
	if !g.IsLoopHead(1) {
		t.Error("B should be a loop head")
	}
	loops := g.loops
	if len(loops) != 1 {
		t.Fatalf("want 1 loop, got %d", len(loops))
	}
	l := loops[0]
	want := map[int]bool{1: true, 2: true, 3: true, 4: true}
	for b := 0; b < 6; b++ {
		if l.Contains(b) != want[b] {
			t.Errorf("loop membership of block %d = %v, want %v", b, l.Contains(b), want[b])
		}
	}
	if !g.IsBackedge(3, 1) || !g.IsBackedge(4, 1) {
		t.Error("D->B and E->B should be backedges")
	}
	if g.IsBackedge(0, 1) {
		t.Error("A->B is not a backedge")
	}
	if !g.IsExitEdge(2, 5) || !g.IsExitEdge(4, 5) {
		t.Error("C->F and E->F should be exit edges")
	}
	if g.IsExitEdge(0, 5) {
		t.Error("A->F is not an exit edge (A is not in the loop)")
	}
	// Per the paper: C, D, E are loop branches; A and B are non-loop.
	isLoopBranch := func(b int) bool {
		blk := g.Blocks[b]
		for _, s := range blk.Succs {
			if g.IsBackedge(b, s) || g.IsExitEdge(b, s) {
				return true
			}
		}
		return false
	}
	for b, want := range map[int]bool{0: false, 1: false, 2: true, 3: true, 4: true} {
		if got := isLoopBranch(b); got != want {
			t.Errorf("block %d loop-branch = %v, want %v", b, got, want)
		}
	}
}

func TestFigure1Dominators(t *testing.T) {
	g := paperFigure1(t)
	cases := []struct {
		a, b int
		want bool
	}{
		{0, 0, true}, {0, 5, true}, {0, 3, true},
		{1, 2, true}, {1, 3, true}, {1, 4, true},
		{2, 3, false}, // B -> D directly bypasses C
		{3, 4, true},  // E's only predecessor is D
		{1, 5, false}, // A -> F bypasses B
		{4, 3, false},
	}
	for _, c := range cases {
		if got := g.Dominates(c.a, c.b); got != c.want {
			t.Errorf("Dominates(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestFigure1Postdominators(t *testing.T) {
	g := paperFigure1(t)
	cases := []struct {
		a, b int
		want bool
	}{
		{5, 0, true}, {5, 1, true}, {5, 4, true},
		{3, 2, false}, // C -> F bypasses D
		{4, 3, false}, // D -> B bypasses E
		{1, 0, false},
		{5, 5, true},
	}
	for _, c := range cases {
		if got := g.Postdominates(c.a, c.b); got != c.want {
			t.Errorf("Postdominates(%d,%d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestDiamond(t *testing.T) {
	// 0 -> 1,2 ; 1 -> 3 ; 2 -> 3 ; 3 exit. Classic diamond.
	g := buildProc(t, [][]int{{2, 1}, {3}, {3}, {}})
	if !g.Dominates(0, 3) || g.Dominates(1, 3) || g.Dominates(2, 3) {
		t.Error("only the entry dominates the join")
	}
	if !g.Postdominates(3, 0) {
		t.Error("join postdominates the split")
	}
	if g.Postdominates(1, 0) || g.Postdominates(2, 0) {
		t.Error("arms do not postdominate the split")
	}
	if len(g.loops) != 0 {
		t.Error("diamond has no loops")
	}
}

func TestSelfLoop(t *testing.T) {
	// 0 -> 1 ; 1 -> 1 (backedge), 2 ; 2 exit.
	g := buildProc(t, [][]int{{1}, {1, 2}, {}})
	if !g.IsBackedge(1, 1) {
		t.Error("1->1 should be a backedge")
	}
	if !g.IsLoopHead(1) {
		t.Error("1 should be a loop head")
	}
	if !g.IsExitEdge(1, 2) {
		t.Error("1->2 should be an exit edge")
	}
	if got := g.loops[0].Size; got != 1 {
		t.Errorf("self loop size = %d, want 1", got)
	}
}

func TestNestedLoops(t *testing.T) {
	// 0 -> 1; 1 -> 2; 2 -> 2(back),3; 3 -> 1(back),4; 4 exit.
	g := buildProc(t, [][]int{{1}, {2}, {2, 3}, {1, 4}, {}})
	loops := g.loops
	if len(loops) != 2 {
		t.Fatalf("want 2 loops, got %d", len(loops))
	}
	inner, outer := loops[0], loops[1]
	if inner.Size >= outer.Size {
		t.Fatalf("loops not sorted inner-first: %d, %d", inner.Size, outer.Size)
	}
	if inner.Head != 2 || outer.Head != 1 {
		t.Errorf("heads = %d,%d, want 2,1", inner.Head, outer.Head)
	}
	if !outer.Contains(2) || !outer.Contains(3) {
		t.Error("outer loop should contain the inner loop")
	}
	// 2->3 exits the inner loop but stays in the outer.
	if !g.IsExitEdge(2, 3) {
		t.Error("2->3 should be an exit edge of the inner loop")
	}
	if !g.IsExitEdge(3, 4) {
		t.Error("3->4 should be an exit edge of the outer loop")
	}
	// Innermost-loop queries.
	if g.InnermostLoopSize(2) != 1 {
		t.Errorf("innermost size at 2 = %d, want 1", g.InnermostLoopSize(2))
	}
	if g.InnermostLoopSize(3) != 3 {
		t.Errorf("innermost size at 3 = %d, want 3", g.InnermostLoopSize(3))
	}
}

func TestPreheader(t *testing.T) {
	// 0 -> 1; 1 -> 2; 2 -> 2(back), 3; 3 exit. Block 1 is a preheader of 2.
	g := buildProc(t, [][]int{{1}, {2}, {2, 3}, {}})
	if !g.IsPreheader(1) {
		t.Error("block 1 should be a preheader")
	}
	if g.IsPreheader(0) {
		t.Error("block 0 is not a preheader (it does not go directly to a head)")
	}
	if g.IsPreheader(2) {
		t.Error("the loop head is not its own preheader")
	}
}

func TestInfiniteLoopPostdom(t *testing.T) {
	// 0 -> 1; 1 -> 1 (no exits at all).
	g := buildProc(t, [][]int{{1}, {1}})
	if g.Postdominates(1, 0) {
		t.Error("no postdomination facts should hold without a path to exit")
	}
}

func TestLeadsToCallAndReturn(t *testing.T) {
	// Build by hand: block0: beq -> block2 ; block1: jal f; j 4 ; block2(3): jr ; block4: jr
	p := &mir.Proc{Name: "t", Code: []mir.Instr{
		{Op: mir.Beq, Rs: mir.R0, Rt: mir.R0, Target: 3}, // B0 -> B2(target), B1(fall)
		{Op: mir.Jal, Callee: 0},                         // B1: call
		{Op: mir.J, Target: 4},                           // B1 -> B3
		{Op: mir.Jr, Rs: mir.RA},                         // B2: return
		{Op: mir.Jr, Rs: mir.RA},                         // B3: return
	}}
	g, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	b1 := g.BlockOf(1)
	b2 := g.BlockOf(3)
	if !g.LeadsToCall(b1) {
		t.Error("B1 contains a call")
	}
	if g.LeadsToCall(b2) {
		t.Error("B2 does not lead to a call")
	}
	if !g.LeadsToReturn(b2) {
		t.Error("B2 contains a return")
	}
	if !g.LeadsToReturn(b1) {
		t.Error("B1 falls unconditionally into a return block")
	}
}

// ---- Property tests over random reducible-ish CFGs ----

// randomGraph builds a random procedure with n blocks. Every block gets 1
// or 2 successors among the blocks (plus a guaranteed return block), so
// graphs may be irreducible; the analyses must still satisfy their
// defining properties.
func randomGraph(rng *rand.Rand, n int) *Graph {
	if n < 2 {
		n = 2
	}
	succs := make([][]int, n)
	for i := 0; i < n-1; i++ {
		switch rng.Intn(3) {
		case 0:
			succs[i] = []int{rng.Intn(n)}
		default:
			succs[i] = []int{rng.Intn(n), i + 1}
		}
	}
	succs[n-1] = nil // return
	p := &mir.Proc{Name: "rand"}
	for _, ss := range succs {
		switch len(ss) {
		case 0:
			p.Code = append(p.Code, mir.Instr{Op: mir.Jr, Rs: mir.RA})
		case 1:
			p.Code = append(p.Code, mir.Instr{Op: mir.J, Target: ss[0]})
		case 2:
			p.Code = append(p.Code, mir.Instr{Op: mir.Beq, Rs: mir.R0, Rt: mir.R0, Target: ss[0]})
		}
	}
	g, err := Build(p)
	if err != nil {
		panic(err)
	}
	return g
}

// reaches reports whether `to` is reachable from `from` avoiding block
// `without` (pass -1 to disable).
func reaches(g *Graph, from, to, without int) bool {
	if from == without {
		return false
	}
	seen := make([]bool, len(g.Blocks))
	stack := []int{from}
	seen[from] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if b == to {
			return true
		}
		for _, s := range g.Blocks[b].Succs {
			if s != without && !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return false
}

func TestDominatorsPropertyRandom(t *testing.T) {
	// Dominance of a over b <=> b unreachable from entry when a removed.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 3+rng.Intn(12))
		for a := range g.Blocks {
			for b := range g.Blocks {
				if !g.Reachable(a) || !g.Reachable(b) {
					continue
				}
				want := a == b || !reaches(g, 0, b, a)
				if g.Dominates(a, b) != want {
					t.Logf("seed %d: Dominates(%d,%d) = %v, want %v", seed, a, b, g.Dominates(a, b), want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPostdominatorsPropertyRandom(t *testing.T) {
	// a postdominates b <=> no exit reachable from b when a removed
	// (for b that can reach an exit at all; the implementation is
	// conservative otherwise).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 3+rng.Intn(12))
		exitReachableWithout := func(b, without int) bool {
			if b == without {
				return false
			}
			seen := make([]bool, len(g.Blocks))
			stack := []int{b}
			seen[b] = true
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if len(g.Blocks[x].Succs) == 0 {
					return true
				}
				for _, s := range g.Blocks[x].Succs {
					if s != without && !seen[s] {
						seen[s] = true
						stack = append(stack, s)
					}
				}
			}
			return false
		}
		for a := range g.Blocks {
			for b := range g.Blocks {
				if !exitReachableWithout(b, -1) {
					continue // b cannot reach an exit: facts undefined
				}
				want := a == b || !exitReachableWithout(b, a)
				if g.Postdominates(a, b) != want {
					t.Logf("seed %d: Postdominates(%d,%d) = %v, want %v",
						seed, a, b, g.Postdominates(a, b), want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestNaturalLoopPropertiesRandom(t *testing.T) {
	// Paper Section 3 invariants: (1) every vertex in nat-loop(y) has at
	// least one successor in nat-loop(y); (2) the head dominates every
	// loop member; (3) removing backedges leaves an acyclic graph over
	// reachable blocks.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 3+rng.Intn(12))
		for _, l := range g.loops {
			for b := range g.Blocks {
				if !l.Contains(b) {
					continue
				}
				if !g.Dominates(l.Head, b) {
					t.Logf("seed %d: head %d does not dominate member %d", seed, l.Head, b)
					return false
				}
				inLoop := false
				for _, s := range g.Blocks[b].Succs {
					if l.Contains(s) {
						inLoop = true
					}
				}
				if !inLoop && len(g.Blocks[b].Succs) > 0 {
					t.Logf("seed %d: member %d of loop %d has no successor in the loop", seed, b, l.Head)
					return false
				}
			}
		}
		// Backedges are exactly the edges into a dominator. (Irreducible
		// random graphs can retain cycles after backedge removal, so
		// acyclicity is not asserted here; dominance is the definition.)
		for b := range g.Blocks {
			for _, s := range g.Blocks[b].Succs {
				if g.IsBackedge(b, s) && !g.Dominates(s, b) {
					t.Logf("seed %d: backedge %d->%d without dominance", seed, b, s)
					return false
				}
				if !g.IsBackedge(b, s) && g.Reachable(b) && g.Dominates(s, b) {
					t.Logf("seed %d: edge %d->%d to dominator not marked backedge", seed, b, s)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestExitEdgePropertyRandom(t *testing.T) {
	// An edge is an exit edge iff some natural loop contains its source
	// but not its destination.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 3+rng.Intn(12))
		for b := range g.Blocks {
			for _, s := range g.Blocks[b].Succs {
				want := false
				for _, l := range g.loops {
					if l.Contains(b) && !l.Contains(s) {
						want = true
					}
				}
				if g.IsExitEdge(b, s) != want {
					t.Logf("seed %d: IsExitEdge(%d,%d) = %v, want %v", seed, b, s, g.IsExitEdge(b, s), want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestBlockSplitting(t *testing.T) {
	// Calls do not end blocks; branches and returns do.
	p := &mir.Proc{Name: "t", Code: []mir.Instr{
		{Op: mir.Li, Rd: mir.Int(0), Imm: 1},
		{Op: mir.Jal, Callee: 0},
		{Op: mir.Li, Rd: mir.Int(0), Imm: 2},
		{Op: mir.Beq, Rs: mir.R0, Rt: mir.R0, Target: 0},
		{Op: mir.Sw, Rs: mir.SP, Rt: mir.R0},
		{Op: mir.Jr, Rs: mir.RA},
	}, NIRegs: 1}
	g, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Blocks) != 2 {
		t.Fatalf("got %d blocks, want 2:\n%s", len(g.Blocks), g.String())
	}
	b0 := g.Blocks[0]
	if !b0.HasCall || b0.HasStore || b0.HasReturn {
		t.Errorf("block 0 facts: call=%v store=%v ret=%v", b0.HasCall, b0.HasStore, b0.HasReturn)
	}
	b1 := g.Blocks[1]
	if b1.HasCall || !b1.HasStore || !b1.HasReturn {
		t.Errorf("block 1 facts: call=%v store=%v ret=%v", b1.HasCall, b1.HasStore, b1.HasReturn)
	}
	if g.TargetSucc(0) != 0 || g.FallSucc(0) != 1 {
		t.Errorf("successors of block 0: target %d fall %d", g.TargetSucc(0), g.FallSucc(0))
	}
}

func TestAccessorsAndEdgeCases(t *testing.T) {
	g := paperFigure1(t)
	if got := g.String(); !strings.Contains(got, "loop head") {
		t.Errorf("String() should mark loop heads:\n%s", got)
	}
	// FallSucc of a single-successor block is -1.
	if g.FallSucc(5) != -1 {
		// block 5 (exit) has no successors at all; FallSucc is defined for
		// branch blocks, returns -1 when there is no second successor.
		t.Errorf("FallSucc(exit) = %d, want -1", g.FallSucc(5))
	}
	l := g.loops[0]
	if l.Contains(-1) || l.Contains(99) {
		t.Error("Contains must be false out of range")
	}
	if g.BlockOf(0) != 0 {
		t.Errorf("BlockOf(0) = %d", g.BlockOf(0))
	}
	if g.idom[0] != -1 {
		t.Errorf("entry idom = %d, want -1", g.idom[0])
	}
}

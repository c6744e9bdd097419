package minic

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"ballarus/internal/interp"
)

// Differential testing: generate random programs as a tiny statement AST,
// render them to minic source, execute them on the reference evaluator
// below AND through the compiler + interpreter, and compare results
// (FuzzInterp). This pins the whole compile-execute pipeline against an
// independent implementation of the semantics.

type dExpr interface {
	render(b *strings.Builder)
	eval(env []int64) int64
}

type dConst int64

func (c dConst) render(b *strings.Builder) {
	if c < 0 {
		fmt.Fprintf(b, "(0 - %d)", -int64(c))
		return
	}
	fmt.Fprintf(b, "%d", int64(c))
}
func (c dConst) eval([]int64) int64 { return int64(c) }

type dVar int

func (v dVar) render(b *strings.Builder) { fmt.Fprintf(b, "v%d", int(v)) }
func (v dVar) eval(env []int64) int64    { return env[v] }

type dBin struct {
	op   string
	l, r dExpr
}

func (x dBin) render(b *strings.Builder) {
	b.WriteByte('(')
	x.l.render(b)
	b.WriteString(x.op)
	x.r.render(b)
	b.WriteByte(')')
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (x dBin) eval(env []int64) int64 {
	l := x.l.eval(env)
	switch x.op {
	case "&&":
		if l == 0 {
			return 0
		}
		return b2i(x.r.eval(env) != 0)
	case "||":
		if l != 0 {
			return 1
		}
		return b2i(x.r.eval(env) != 0)
	}
	r := x.r.eval(env)
	switch x.op {
	case "+":
		return l + r
	case "-":
		return l - r
	case "*":
		return l * r
	case "/":
		return l / r // generator guarantees constant non-zero, non-(-1) r
	case "%":
		return l % r
	case "&":
		return l & r
	case "|":
		return l | r
	case "^":
		return l ^ r
	case "<<":
		return l << uint(r) // generator guarantees 0..62
	case ">>":
		return l >> uint(r)
	case "<":
		return b2i(l < r)
	case "<=":
		return b2i(l <= r)
	case ">":
		return b2i(l > r)
	case ">=":
		return b2i(l >= r)
	case "==":
		return b2i(l == r)
	case "!=":
		return b2i(l != r)
	}
	panic("bad op " + x.op)
}

type dStmt interface {
	renderS(b *strings.Builder, indent int)
	exec(env []int64)
}

type dAssign struct {
	v dVar
	e dExpr
}

func (s dAssign) renderS(b *strings.Builder, indent int) {
	pad(b, indent)
	fmt.Fprintf(b, "v%d = ", int(s.v))
	s.e.render(b)
	b.WriteString(";\n")
}
func (s dAssign) exec(env []int64) { env[s.v] = s.e.eval(env) }

type dIf struct {
	c         dExpr
	then, els []dStmt
}

func (s dIf) renderS(b *strings.Builder, indent int) {
	pad(b, indent)
	b.WriteString("if (")
	s.c.render(b)
	b.WriteString(") {\n")
	for _, st := range s.then {
		st.renderS(b, indent+1)
	}
	pad(b, indent)
	b.WriteString("}")
	if s.els != nil {
		b.WriteString(" else {\n")
		for _, st := range s.els {
			st.renderS(b, indent+1)
		}
		pad(b, indent)
		b.WriteString("}")
	}
	b.WriteString("\n")
}

func (s dIf) exec(env []int64) {
	if s.c.eval(env) != 0 {
		for _, st := range s.then {
			st.exec(env)
		}
	} else {
		for _, st := range s.els {
			st.exec(env)
		}
	}
}

// dLoop is a bounded counting loop: `vC = n; while (vC > 0) { body; vC--; }`.
// The counter variable is reserved and never assigned by the body.
type dLoop struct {
	counter dVar
	n       int64
	body    []dStmt
}

func (s dLoop) renderS(b *strings.Builder, indent int) {
	pad(b, indent)
	fmt.Fprintf(b, "v%d = %d;\n", int(s.counter), s.n)
	pad(b, indent)
	fmt.Fprintf(b, "while (v%d > 0) {\n", int(s.counter))
	for _, st := range s.body {
		st.renderS(b, indent+1)
	}
	pad(b, indent+1)
	fmt.Fprintf(b, "v%d--;\n", int(s.counter))
	pad(b, indent)
	b.WriteString("}\n")
}

func (s dLoop) exec(env []int64) {
	env[s.counter] = s.n
	for env[s.counter] > 0 {
		for _, st := range s.body {
			st.exec(env)
		}
		env[s.counter]--
	}
}

func pad(b *strings.Builder, n int) {
	for i := 0; i < n; i++ {
		b.WriteByte('\t')
	}
}

// dGen generates random programs.
type dGen struct {
	r     *rand.Rand
	nvars int
}

func (g *dGen) expr(depth int) dExpr {
	if depth <= 0 || g.r.Intn(3) == 0 {
		if g.r.Intn(2) == 0 {
			return dVar(g.r.Intn(g.nvars))
		}
		return dConst(g.r.Int63n(201) - 100)
	}
	ops := []string{"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
		"<", "<=", ">", ">=", "==", "!=", "&&", "||"}
	op := ops[g.r.Intn(len(ops))]
	l := g.expr(depth - 1)
	var r dExpr
	switch op {
	case "/", "%":
		r = dConst(g.r.Int63n(50) + 2) // non-zero, never -1
	case "<<", ">>":
		r = dConst(g.r.Int63n(20)) // small shift counts
	default:
		r = g.expr(depth - 1)
	}
	return dBin{op: op, l: l, r: r}
}

func (g *dGen) stmts(depth, n int, loopVarsUsed int) []dStmt {
	var out []dStmt
	for i := 0; i < n; i++ {
		switch {
		case depth > 0 && g.r.Intn(4) == 0:
			out = append(out, dIf{
				c:    g.expr(2),
				then: g.stmts(depth-1, 1+g.r.Intn(2), loopVarsUsed),
				els:  g.maybeElse(depth-1, loopVarsUsed),
			})
		case depth > 0 && loopVarsUsed < 3 && g.r.Intn(5) == 0:
			// Reserve the counter variable: the body assigns only
			// non-counter variables by construction (assign targets are
			// drawn from the first nvars-3 variables).
			counter := dVar(g.nvars - 3 + loopVarsUsed)
			out = append(out, dLoop{
				counter: counter,
				n:       int64(g.r.Intn(6)),
				body:    g.stmts(depth-1, 1+g.r.Intn(2), loopVarsUsed+1),
			})
		default:
			out = append(out, dAssign{
				v: dVar(g.r.Intn(g.nvars - 3)),
				e: g.expr(2 + g.r.Intn(2)),
			})
		}
	}
	return out
}

func (g *dGen) maybeElse(depth, loopVarsUsed int) []dStmt {
	if g.r.Intn(2) == 0 {
		return nil
	}
	return g.stmts(depth, 1+g.r.Intn(2), loopVarsUsed)
}

// program renders the statement list as a minic main() that prints the
// xor-mix of all variables.
func renderProgram(nvars int, init []int64, body []dStmt) string {
	var b strings.Builder
	b.WriteString("int main() {\n")
	for i := 0; i < nvars; i++ {
		fmt.Fprintf(&b, "\tint v%d = %d;\n", i, init[i])
	}
	for _, s := range body {
		s.renderS(&b, 1)
	}
	b.WriteString("\tint mix = 0;\n")
	for i := 0; i < nvars; i++ {
		fmt.Fprintf(&b, "\tmix = mix * 31 + v%d;\n", i)
	}
	b.WriteString("\tprinti(mix);\n\treturn 0;\n}\n")
	return b.String()
}

func refRun(nvars int, init []int64, body []dStmt) int64 {
	env := append([]int64(nil), init...)
	for _, s := range body {
		s.exec(env)
	}
	var mix int64
	for i := 0; i < nvars; i++ {
		mix = mix*31 + env[i]
	}
	return mix
}

// dirtySrc writes a heap, a deep stack and wild addresses between them,
// so a run right after it shows whether any of that leaks into the next
// run that reuses its memory.
const dirtySrc = `
int f(int n) {
	int a[8];
	a[n % 8] = n;
	if (n == 0) { return 0; }
	return f(n - 1) + a[n % 8];
}
int main() {
	int *p = alloc(50000);
	int *w = (int*)1000000;
	int i;
	for (i = 0; i < 50000; i += 101) { p[i] = i + 7; }
	*w = 99;
	w = (int*)1900000;
	*w = 98;
	return f(5000) % 256;
}`

// FuzzInterp generates a random program from a seed and runs it through
// the compiler and the interpreter, with and without spilled locals. It
// checks the output against the reference evaluator; that the event
// deltas plus the tail add up to Steps; that the per-branch taken and
// fall-through counts of the events equal the profile; and that a second
// run, right after one that dirties memory, returns an identical Result.
// The seed corpus is the first 300 seeds.
func FuzzInterp(f *testing.F) {
	for seed := int64(0); seed < 300; seed++ {
		f.Add(seed)
	}
	dirty, err := Compile(dirtySrc, Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		const nvars = 8
		g := &dGen{r: rand.New(rand.NewSource(seed)), nvars: nvars}
		init := make([]int64, nvars)
		for i := range init {
			init[i] = g.r.Int63n(2001) - 1000
		}
		body := g.stmts(3, 2+g.r.Intn(5), 0)
		src := renderProgram(nvars, init, body)
		want := fmt.Sprintf("%d", refRun(nvars, init, body))

		for _, opts := range []Options{{}, {SpillLocals: true}} {
			prog, err := Compile(src, opts)
			if err != nil {
				t.Fatalf("opts %+v: compile: %v\n%s", opts, err, src)
			}
			cfg := interp.Config{Budget: 1 << 22, CollectEvents: true}
			res, err := interp.Run(prog, cfg)
			if err != nil {
				t.Fatalf("opts %+v: run: %v\n%s", opts, err, src)
			}
			if res.Output != want {
				t.Fatalf("opts %+v: got %s, want %s\nprogram:\n%s", opts, res.Output, want, src)
			}
			checkEvents(t, res)
			// The streamed path must see exactly the collected trace.
			var streamed []interp.Event
			live, err := interp.Run(prog, interp.Config{
				Budget:  cfg.Budget,
				OnEvent: func(ev interp.Event) { streamed = append(streamed, ev) },
			})
			if err != nil || live.Events != nil || !slices.Equal(streamed, res.Events) ||
				live.TailLen != res.TailLen || live.Steps != res.Steps {
				t.Fatalf("opts %+v: streamed run differs from the collected one (err %v)\nprogram:\n%s", opts, err, src)
			}
			if _, err := interp.Run(dirty, interp.Config{}); err != nil {
				t.Fatalf("dirtying run: %v", err)
			}
			again, err := interp.Run(prog, cfg)
			if err != nil || !reflect.DeepEqual(again, res) {
				t.Fatalf("opts %+v: rerun after a dirtying run differs (err %v)\nprogram:\n%s", opts, err, src)
			}
		}
	})
}

// checkEvents requires the event stream to account for every executed
// instruction and to agree with the edge profile branch by branch.
func checkEvents(t *testing.T, res *interp.Result) {
	t.Helper()
	sum := res.TailLen
	taken := make([]int64, len(res.Profile.Taken))
	fall := make([]int64, len(res.Profile.Fall))
	for _, ev := range res.Events {
		sum += int64(ev.Delta)
		if ev.Kind != interp.EvBranch {
			continue
		}
		if ev.Taken {
			taken[ev.Branch]++
		} else {
			fall[ev.Branch]++
		}
	}
	if sum != res.Steps {
		t.Errorf("event deltas plus tail = %d, steps = %d", sum, res.Steps)
	}
	if !slices.Equal(taken, res.Profile.Taken) || !slices.Equal(fall, res.Profile.Fall) {
		t.Errorf("events count taken %v fall %v, profile taken %v fall %v",
			taken, fall, res.Profile.Taken, res.Profile.Fall)
	}
}

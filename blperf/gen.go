package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"ballarus/internal/core"
	"ballarus/internal/dynpred"
	"ballarus/internal/interp"
	"ballarus/internal/minic"
	"ballarus/internal/trace"
)

// poolSize is how many distinct generated programs fresh-small draws
// from; every request still carries a fresh nonce, so no two requests
// share a source.
const poolSize = 256

// The envelope every pool program lands in: big enough that compile,
// analysis, and the interpreter's fixed per-run cost all show, small
// enough that none of them dominates the others.
const (
	minSteps, maxSteps   = 10_000, 100_000
	minInstrs, maxInstrs = 100, 800
)

// nonceDecl is the first statement of every generated main. A request
// replaces it with its own nonce, which only shifts the printed value.
const nonceDecl = "int k = 0;"

// refMemWords sizes the interpreter memory for the in-process reference
// runs. Generated programs touch a few dozen words, so the result is the
// same as under the interpreter's default size, minus the cost of
// zeroing 16 MiB per run.
const refMemWords = 1 << 16

// poolProgram is one generated program and its reference result at
// nonce 0. A request with nonce N must print Output+N and match every
// count exactly.
type poolProgram struct {
	src      string
	Output   int64
	Steps    int64
	Branches int64
	Misses   int64
	Instrs   int
}

// source returns the program with its nonce set.
func (p *poolProgram) source(nonce int64) string {
	return strings.Replace(p.src, nonceDecl, fmt.Sprintf("int k = %d;", nonce), 1)
}

// buildPool generates the fresh-small pool for a seed and computes each
// program's reference result. The digest hashes every source, so a
// changed generator shows up as a changed digest for the default seed.
func buildPool(seed int64) ([]poolProgram, string, error) {
	r := rand.New(rand.NewSource(seed))
	h := sha256.New()
	pool := make([]poolProgram, poolSize)
	for i := range pool {
		p, err := genPoolProgram(r)
		if err != nil {
			return nil, "", fmt.Errorf("pool program %d: %w", i, err)
		}
		pool[i] = p
		h.Write([]byte(p.src))
	}
	return pool, hex.EncodeToString(h.Sum(nil)), nil
}

// genPoolProgram draws programs until one lands inside the envelope.
// The iteration count of the main loop is calibrated from a short run
// so the step count lands near a target drawn log-uniformly.
func genPoolProgram(r *rand.Rand) (poolProgram, error) {
	for attempt := 0; attempt < 16; attempt++ {
		tmpl := genTemplate(r)
		target := math.Exp(math.Log(2e4) + r.Float64()*math.Log(8e4/2e4))
		const calIter = 8
		cal, err := reference(strings.Replace(tmpl, "ITER", strconv.Itoa(calIter), 1))
		if err != nil {
			return poolProgram{}, err
		}
		iter := int(target * calIter / float64(cal.Steps))
		iter = max(1, min(iter, 5000))
		p, err := reference(strings.Replace(tmpl, "ITER", strconv.Itoa(iter), 1))
		if err != nil {
			return poolProgram{}, err
		}
		if p.Steps >= minSteps && p.Steps <= maxSteps && p.Instrs >= minInstrs && p.Instrs <= maxInstrs {
			return p, nil
		}
	}
	return poolProgram{}, fmt.Errorf("no program inside the envelope after 16 draws")
}

// reference compiles, analyzes, and runs src the way the service does
// (default compile options, default heuristic order, no input) and
// returns its counts.
func reference(src string) (poolProgram, error) {
	prog, err := minic.Compile(src, minic.Options{})
	if err != nil {
		return poolProgram{}, fmt.Errorf("compile: %w\n%s", err, src)
	}
	a, err := core.Analyze(prog, core.Options{})
	if err != nil {
		return poolProgram{}, fmt.Errorf("analyze: %w", err)
	}
	run, err := interp.Run(prog, interp.Config{MemWords: refMemWords})
	if err != nil {
		return poolProgram{}, fmt.Errorf("run: %w\n%s", err, src)
	}
	out, err := strconv.ParseInt(run.Output, 10, 64)
	if err != nil {
		return poolProgram{}, fmt.Errorf("output %q is not one integer", run.Output)
	}
	heur := trace.PredictionVector(a.Predictions(core.DefaultOrder))
	return poolProgram{
		src:      src,
		Output:   out,
		Steps:    run.Steps,
		Branches: run.Profile.Total(),
		Misses:   dynpred.StaticResult(run.Profile, heur).Miss,
		Instrs:   prog.NumInstrs(),
	}, nil
}

// progGen writes one random minic program: a few pure helper functions
// and a main loop of if/else chains, short counted loops, switches, and
// array traffic. Every loop is counted, every divisor is a nonzero
// constant, and every index is masked, so no program can fault or spin.
type progGen struct {
	r *rand.Rand
	b strings.Builder
}

// genTemplate returns a program whose main-loop bound is the literal
// ITER, for the caller to calibrate.
func genTemplate(r *rand.Rand) string {
	g := &progGen{r: r}
	g.b.WriteString("int g[32];\n\n")
	nHelpers := 1 + r.Intn(3)
	for h := 0; h < nHelpers; h++ {
		g.helper(h)
	}
	vars := []string{"v0", "v1", "v2", "v3", "v4", "v5", "i", "r"}
	g.b.WriteString("int main() {\n\t" + nonceDecl + "\n\tint r = 0;\n\tint i;\n\tint j;\n")
	for v := 0; v < 6; v++ {
		fmt.Fprintf(&g.b, "\tint v%d = %d;\n", v, r.Intn(2001)-1000)
	}
	g.b.WriteString("\tfor (i = 0; i < ITER; i++) {\n")
	g.stmts(3+r.Intn(6), 2, "\t\t", vars, nHelpers, false)
	g.b.WriteString("\t\tr = (r * 31 + (v0 ^ v3) + g[i & 31]) % 1000003;\n\t}\n")
	g.b.WriteString("\tprinti(r + k);\n\treturn 0;\n}\n")
	return g.b.String()
}

func (g *progGen) helper(n int) {
	fmt.Fprintf(&g.b, "int h%d(int a, int b) {\n", n)
	vars := []string{"a", "b"}
	fmt.Fprintf(&g.b, "\tint t = %s;\n", g.expr(2, vars))
	vars = append(vars, "t")
	for k := 1 + g.r.Intn(4); k > 0; k-- {
		fmt.Fprintf(&g.b, "\tif (%s) {\n\t\tt = %s;\n\t}", g.cond(vars), g.expr(2, vars))
		if g.r.Intn(2) == 0 {
			fmt.Fprintf(&g.b, " else {\n\t\tt = %s;\n\t}", g.expr(2, vars))
		}
		g.b.WriteString("\n")
	}
	g.b.WriteString("\treturn t;\n}\n\n")
}

// stmts writes n statements. Assignments only target v0..v5, so the
// loop counters i and j, the accumulator r, and the nonce k keep their
// meaning.
func (g *progGen) stmts(n, depth int, pad string, vars []string, nHelpers int, inLoop bool) {
	for ; n > 0; n-- {
		target := fmt.Sprintf("v%d", g.r.Intn(6))
		switch k := g.r.Intn(8); {
		case (k == 0 || k == 5) && depth > 0:
			fmt.Fprintf(&g.b, "%sif (%s) {\n", pad, g.cond(vars))
			g.stmts(1+g.r.Intn(2), depth-1, pad+"\t", vars, nHelpers, inLoop)
			if g.r.Intn(2) == 0 {
				fmt.Fprintf(&g.b, "%s} else {\n", pad)
				g.stmts(1+g.r.Intn(2), depth-1, pad+"\t", vars, nHelpers, inLoop)
			}
			fmt.Fprintf(&g.b, "%s}\n", pad)
		case k == 1 && depth > 0 && !inLoop:
			fmt.Fprintf(&g.b, "%sfor (j = 0; j < %d; j++) {\n", pad, 2+g.r.Intn(7))
			g.stmts(1+g.r.Intn(3), depth-1, pad+"\t", append(vars[:len(vars):len(vars)], "j"), nHelpers, true)
			fmt.Fprintf(&g.b, "%s}\n", pad)
		case k == 2 && depth > 0:
			fmt.Fprintf(&g.b, "%sswitch (%s & 3) {\n", pad, vars[g.r.Intn(len(vars))])
			for c := 0; c < 3; c++ {
				fmt.Fprintf(&g.b, "%scase %d:\n", pad, c)
				g.stmts(1, depth-1, pad+"\t", vars, nHelpers, inLoop)
			}
			fmt.Fprintf(&g.b, "%sdefault:\n", pad)
			g.stmts(1, depth-1, pad+"\t", vars, nHelpers, inLoop)
			fmt.Fprintf(&g.b, "%s}\n", pad)
		case k == 3:
			fmt.Fprintf(&g.b, "%sg[(%s) & 31] = %s;\n", pad, g.expr(1, vars), g.expr(2, vars))
		case k == 4:
			fmt.Fprintf(&g.b, "%s%s = h%d(%s, %s);\n", pad, target, g.r.Intn(nHelpers), g.expr(1, vars), g.expr(1, vars))
		default:
			fmt.Fprintf(&g.b, "%s%s = %s;\n", pad, target, g.expr(2+g.r.Intn(2), vars))
		}
	}
}

func (g *progGen) expr(depth int, vars []string) string {
	if depth <= 0 || g.r.Intn(4) == 0 {
		if g.r.Intn(3) > 0 {
			return vars[g.r.Intn(len(vars))]
		}
		return strconv.Itoa(g.r.Intn(100))
	}
	switch g.r.Intn(8) {
	case 0:
		return fmt.Sprintf("g[(%s) & 31]", g.expr(depth-1, vars))
	case 1:
		return fmt.Sprintf("(%s %% %d)", g.expr(depth-1, vars), 2+g.r.Intn(96))
	case 2:
		return fmt.Sprintf("(%s >> %d)", g.expr(depth-1, vars), g.r.Intn(8))
	default:
		op := [...]string{"+", "-", "*", "&", "|", "^"}[g.r.Intn(6)]
		return fmt.Sprintf("(%s %s %s)", g.expr(depth-1, vars), op, g.expr(depth-1, vars))
	}
}

// cond mixes compare-against-zero tests (the Opcode heuristic's shape)
// with general relations and short-circuit pairs.
func (g *progGen) cond(vars []string) string {
	rel := func() string { return [...]string{"<", "<=", ">", ">=", "==", "!="}[g.r.Intn(6)] }
	switch g.r.Intn(4) {
	case 0:
		return fmt.Sprintf("%s %s 0", vars[g.r.Intn(len(vars))], rel())
	case 1:
		return fmt.Sprintf("(%s & %d) == 0", g.expr(1, vars), 1+g.r.Intn(15))
	case 2:
		return fmt.Sprintf("(%s %s %s) && (%s %s 0)", g.expr(1, vars), rel(), g.expr(1, vars), vars[g.r.Intn(len(vars))], rel())
	default:
		return fmt.Sprintf("%s %s %s", g.expr(2, vars), rel(), g.expr(1, vars))
	}
}

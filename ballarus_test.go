package ballarus

import (
	"context"
	"strings"
	"testing"
)

const facadeSrc = `
int g;
int f(int x) {
	if (x < 0) { return 0 - x; }
	while (x > 100) { x /= 2; g++; }
	return x;
}
int main() {
	int i;
	int s = 0;
	for (i = 0; i < 300; i++) { s += f(i * 7 - 30); }
	printi(s); printc('\n');
	return 0;
}
`

func TestFacadePipeline(t *testing.T) {
	prog, err := CompileOpt(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeCtx(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Branches) == 0 {
		t.Fatal("no branches analyzed")
	}
	res, err := ExecuteCtx(context.Background(), prog, WithRunConfig(RunConfig{CollectEvents: true}))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(res.Output, "\n") {
		t.Errorf("output %q", res.Output)
	}
	preds := a.Predictions(DefaultOrder)
	score := Score(a, preds, res.Profile)
	if score.Dyn == 0 {
		t.Fatal("no dynamic branches scored")
	}
	if score.Pred < score.Perfect-1e-9 {
		t.Errorf("predictor %.1f%% beats perfect %.1f%%", score.Pred, score.Perfect)
	}
	// Trace analysis through the facade.
	d := Sequences(res, preds)
	dp := PerfectSequences(res)
	if d.TotalInstr != dp.TotalInstr || d.TotalInstr == 0 {
		t.Errorf("distributions disagree on total instructions: %d vs %d", d.TotalInstr, dp.TotalInstr)
	}
	if dp.Mispred > d.Mispred {
		t.Errorf("perfect mispredicts more (%d) than the heuristic (%d)", dp.Mispred, d.Mispred)
	}
}

func TestFacadeCompileError(t *testing.T) {
	if _, err := CompileOpt("int main() { return x; }"); err == nil {
		t.Error("expected compile error")
	}
}

func TestFacadeOptions(t *testing.T) {
	p1, err := CompileOpt(facadeSrc, WithCompileOptions(CompileOptions{SpillLocals: true}))
	if err != nil {
		t.Fatal(err)
	}
	a, err := AnalyzeCtx(context.Background(), p1, WithAnalysisOptions(AnalysisOptions{NoPostdom: true}))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Branches) == 0 {
		t.Fatal("no branches")
	}
	// Spilled compilation still computes the same program output.
	p2, err := CompileOpt(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := ExecuteCtx(context.Background(), p1, WithRunConfig(RunConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ExecuteCtx(context.Background(), p2, WithRunConfig(RunConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Output != r2.Output {
		t.Errorf("spilled output %q != register output %q", r1.Output, r2.Output)
	}
}

func TestFacadeBenchmarks(t *testing.T) {
	bs := Benchmarks()
	if len(bs) != 23 {
		t.Fatalf("%d benchmarks, want 23", len(bs))
	}
	if GetBenchmark("tomcatv") == nil || GetBenchmark("zzz") != nil {
		t.Error("GetBenchmark misbehaves")
	}
}

func TestFacadeConstants(t *testing.T) {
	if !DefaultOrder.Valid() {
		t.Error("DefaultOrder invalid")
	}
	hs := []Heuristic{Opcode, LoopH, CallH, ReturnH, Guard, Store, Point}
	seen := map[Heuristic]bool{}
	for _, h := range hs {
		if seen[h] {
			t.Errorf("duplicate heuristic constant %v", h)
		}
		seen[h] = true
	}
	if PredTaken == PredFall || PredTaken == PredNone {
		t.Error("prediction constants collide")
	}
}

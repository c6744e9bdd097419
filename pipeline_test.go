package ballarus

import (
	"context"
	"testing"

	"ballarus/internal/asm"
	"ballarus/internal/suite"
)

// TestFullPipelineComposition chains every transformation in the
// repository — compile, optimize, predict, reorder, assemble, reassemble,
// run — and demands behavioral equality at the end of the chain.
func TestFullPipelineComposition(t *testing.T) {
	for _, name := range []string{"grep", "eqntott", "doduc"} {
		name := name
		t.Run(name, func(t *testing.T) {
			b := suite.Get(name)
			prog, err := b.Compile()
			if err != nil {
				t.Fatal(err)
			}
			baseline, err := ExecuteCtx(context.Background(), prog, WithRunConfig(RunConfig{Input: b.Data[0].Input, Budget: b.Budget}))
			if err != nil {
				t.Fatal(err)
			}

			// compile -> optimize
			opt := Optimize(prog)
			// optimize -> analyze + layout
			a, err := AnalyzeCtx(context.Background(), opt)
			if err != nil {
				t.Fatal(err)
			}
			laid, err := Reorder(a, a.Predictions(DefaultOrder))
			if err != nil {
				t.Fatal(err)
			}
			// layout -> assembler round trip
			back, err := asm.Assemble(asm.Format(laid))
			if err != nil {
				t.Fatal(err)
			}
			res, err := ExecuteCtx(context.Background(), back, WithRunConfig(RunConfig{Input: b.Data[0].Input, Budget: 2 * b.Budget}))
			if err != nil {
				t.Fatalf("end of pipeline faulted: %v", err)
			}
			if res.Output != baseline.Output {
				t.Fatalf("pipeline changed behavior:\n  baseline %q\n  final    %q",
					baseline.Output, res.Output)
			}
			// The final program should be leaner and no less predictable
			// in layout terms than the original.
			if back.NumInstrs() >= prog.NumInstrs() {
				t.Errorf("pipeline grew the program: %d -> %d instrs",
					prog.NumInstrs(), back.NumInstrs())
			}
			t.Logf("%s: %d -> %d static instrs; %d -> %d dynamic; taken %.1f%% -> %.1f%%",
				name, prog.NumInstrs(), back.NumInstrs(), baseline.Steps, res.Steps,
				100*TakenRate(baseline.Profile), 100*TakenRate(res.Profile))
		})
	}
}

// TestOptimizedProgramsStillAnalyzable runs the full Ball-Larus analysis
// over optimized versions of every benchmark: no pass may produce a CFG
// the analyses reject.
func TestOptimizedProgramsStillAnalyzable(t *testing.T) {
	for _, b := range suite.All() {
		prog, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		op := Optimize(prog)
		a, err := AnalyzeCtx(context.Background(), op)
		if err != nil {
			t.Fatalf("%s: analysis of optimized program failed: %v", b.Name, err)
		}
		preds := a.Predictions(DefaultOrder)
		for i, p := range preds {
			if p == PredNone {
				t.Fatalf("%s: optimized branch %d unpredicted", b.Name, i)
			}
		}
	}
}

package ballarus

import (
	"context"
	"encoding/json"
	"io"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ballarus/internal/dynpred"
	"ballarus/internal/eval"
	"ballarus/internal/service"
	"ballarus/internal/suite"
	"ballarus/internal/trace"
)

// suiteGolden is one (benchmark, dataset) entry of the benchmark's golden
// file, blperf/testdata/golden.json.
type suiteGolden struct {
	Dataset         string `json:"dataset"`
	Steps           int64  `json:"steps"`
	DynamicBranches int64  `json:"dynamic_branches"`
	ExitCode        int64  `json:"exit_code"`
	HeuristicMisses int64  `json:"heuristic_misses"`
}

// TestSuiteGolden pins the compiler, the interpreter and the heuristics bit
// for bit. It recomputes, the way the benchmark's -update-golden does, every
// suite pair's steps, dynamic branches, exit code and heuristic misses, and
// every default-dataset compare entrant's misses, and requires them to equal
// the benchmark's own golden file, so there is one golden with two readers.
// One service answers every request, so the interpreter's held memories are
// reused across all the runs.
func TestSuiteGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("blperf", "testdata", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g struct {
		Suite   map[string][]suiteGolden    `json:"suite"`
		Compare map[string]map[string]int64 `json:"compare"`
	}
	if err := json.Unmarshal(data, &g); err != nil {
		t.Fatal(err)
	}
	all := suite.All()
	if len(g.Suite) != len(all) || len(g.Compare) != len(all) {
		t.Fatalf("golden covers %d/%d benchmarks, the suite has %d", len(g.Suite), len(g.Compare), len(all))
	}
	svc := service.New()
	defer svc.Close()
	ctx := context.Background()
	for _, b := range all {
		want := g.Suite[b.Name]
		if len(want) != len(b.Data) {
			t.Errorf("%s: golden has %d datasets, the suite %d", b.Name, len(want), len(b.Data))
			continue
		}
		for ds := range b.Data {
			res, err := svc.Predict(ctx, service.Request{Benchmark: b.Name, Dataset: ds})
			if err != nil {
				t.Fatalf("%s/%d: %v", b.Name, ds, err)
			}
			got := suiteGolden{
				Dataset:         b.Data[ds].Name,
				Steps:           res.Steps,
				DynamicBranches: res.DynamicBranches,
				ExitCode:        res.ExitCode,
				HeuristicMisses: dynpred.StaticResult(res.Profile, trace.PredictionVector(res.Predictions)).Miss,
			}
			if got != want[ds] {
				t.Errorf("%s/%d: got %+v, golden %+v", b.Name, ds, got, want[ds])
			}
		}
		cr, err := svc.Compare(ctx, service.CompareRequest{Request: service.Request{Benchmark: b.Name}})
		if err != nil {
			t.Fatalf("compare %s: %v", b.Name, err)
		}
		got := map[string]int64{}
		for _, p := range cr.Predictors {
			got[p.Name] = p.Misses
		}
		if !maps.Equal(got, g.Compare[b.Name]) {
			t.Errorf("compare %s: got %v, golden %v", b.Name, got, g.Compare[b.Name])
		}
	}
}

// TestResultsGolden pins docs/RESULTS.txt byte for byte: one fresh
// evaluator renders every paper table, extension table, order experiment
// and graph summary, so a change to a heuristic, the suite, the compiler
// or the interpreter that moves a reported number fails here. Regenerate
// the file with blreport, which writes the same text as RESULTS.txt, and
// review the diff. The same evaluator's exact C(22,11) subset experiment
// is then checked, so tier-1 runs it once.
func TestResultsGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("docs", "RESULTS.txt"))
	if err != nil {
		t.Fatal(err)
	}
	e := eval.New()
	got, exact, err := e.Snapshot(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("docs/RESULTS.txt line %d differs (regenerate with blreport):\n got: %q\nwant: %q", i+1, g, w)
			}
		}
	}

	// Table 4 and the order-experiment section report one experiment, so
	// their ten rows must agree field for field.
	t4 := tableRows(t, got, "%Trials  MissRate  Order", 10)
	oe := tableRows(t, got, "pct-trials  miss-rate  order", 10)
	for i := range t4 {
		if !slices.Equal(t4[i], oe[i]) {
			t.Errorf("row %d: Table 4 has %v, the order experiment %v", i+1, t4[i], oe[i])
		}
	}

	if exact.Trials != 705432 {
		t.Fatalf("exact experiment ran %d trials, want C(22,11) = 705432", exact.Trials)
	}
	// The counts must sum to the trials and concentrate sharply, and a
	// sampled experiment must agree on the most common order.
	sum := 0
	for _, c := range exact.BestCount {
		sum += c
	}
	if sum != exact.Trials {
		t.Fatalf("counts sum to %d", sum)
	}
	if d := exact.DistinctOrders(); d < 2 || d > 2000 {
		t.Errorf("distinct orders %d out of plausible range", d)
	}
	s, err := e.Sweep()
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := s.SubsetsSampledCtx(context.Background(), 11, 5000, 7)
	if err != nil {
		t.Fatal(err)
	}
	if exact.Ranked()[0] != sampled.Ranked()[0] {
		t.Errorf("exact and sampled experiments disagree on the top order: %v vs %v",
			s.Orders[exact.Ranked()[0]], s.Orders[sampled.Ranked()[0]])
	}
}

// tableRows returns the whitespace-separated fields of the n lines that
// follow the line equal to header in text.
func tableRows(t *testing.T, text, header string, n int) [][]string {
	t.Helper()
	lines := strings.Split(text, "\n")
	i := slices.Index(lines, header)
	if i < 0 || i+n >= len(lines) {
		t.Fatalf("no %d rows under %q", n, header)
	}
	rows := make([][]string, n)
	for j := range rows {
		rows[j] = strings.Fields(lines[i+1+j])
	}
	return rows
}

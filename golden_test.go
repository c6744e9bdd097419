package ballarus

import (
	"context"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"ballarus/internal/dynpred"
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

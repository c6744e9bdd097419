package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"ballarus/internal/interp"
	"ballarus/internal/minic"
)

func testGolden(t *testing.T) *golden {
	t.Helper()
	g, err := loadGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGoldenRoundTrips(t *testing.T) {
	data, err := encodeGolden(testGolden(t))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, goldenJSON) {
		t.Fatal("decoding and re-encoding testdata/golden.json changed it; rerun with -update-golden")
	}
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	gen := func(seed int64) string {
		p, err := genPoolProgram(rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		return p.src
	}
	for seed := int64(1); seed <= 3; seed++ {
		if gen(seed) != gen(seed) {
			t.Fatalf("seed %d generated two different programs", seed)
		}
	}
	if gen(1) == gen(2) {
		t.Fatal("seeds 1 and 2 generated the same program")
	}
}

// TestPoolInsideEnvelope builds the default-seed pool: its digest must
// be the golden's, and every program must compile and finish inside the
// step and size envelope.
func TestPoolInsideEnvelope(t *testing.T) {
	pool, digest, err := buildPool(defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if want := testGolden(t).PoolDigest; digest != want {
		t.Fatalf("pool digest %s, golden %s", digest, want)
	}
	for i, p := range pool {
		if p.Steps < minSteps || p.Steps > maxSteps || p.Instrs < minInstrs || p.Instrs > maxInstrs {
			t.Errorf("program %d: %d steps, %d instructions", i, p.Steps, p.Instrs)
		}
	}
}

// TestNonceShiftsOnlyOutput checks the property fresh-small verifies
// replies by: a nonce shifts the printed value and changes no count,
// also under the interpreter's default memory size the servers use.
func TestNonceShiftsOnlyOutput(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 4; i++ {
		p, err := genPoolProgram(r)
		if err != nil {
			t.Fatal(err)
		}
		nonce := 1 + r.Int63n(1<<30)
		got, err := reference(p.source(nonce))
		if err != nil {
			t.Fatal(err)
		}
		if got.Output != p.Output+nonce || got.Steps != p.Steps || got.Branches != p.Branches || got.Misses != p.Misses {
			t.Fatalf("nonce %d: got %+v, reference %+v", nonce, got, p)
		}
		prog, err := minic.Compile(p.source(nonce), minic.Options{})
		if err != nil {
			t.Fatal(err)
		}
		run, err := interp.Run(prog, interp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if run.Steps != p.Steps || run.Output != strconv.FormatInt(p.Output+nonce, 10) {
			t.Fatalf("default memory: %d steps, output %q", run.Steps, run.Output)
		}
	}
}

// predictReply renders a /v1/predict reply the way blserve does.
func predictReply(t *testing.T, steps, branches, misses int64, output string, degraded bool) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"steps": steps, "dynamic_branches": branches, "exit_code": 0, "output": output, "degraded": degraded,
		"heuristic": map[string]any{"miss_pct": 100 * float64(misses) / float64(branches), "dynamic": branches},
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestVerificationRejectsWrongAnswers(t *testing.T) {
	p, err := genPoolProgram(rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	const nonce = 4242
	out := strconv.FormatInt(p.Output+nonce, 10)
	if err := checkFresh(predictReply(t, p.Steps, p.Branches, p.Misses, out, false), &p, nonce); err != nil {
		t.Fatalf("right answer rejected: %v", err)
	}
	for name, body := range map[string][]byte{
		"wrong nonce output": predictReply(t, p.Steps, p.Branches, p.Misses, strconv.FormatInt(p.Output+nonce+1, 10), false),
		"wrong miss count":   predictReply(t, p.Steps, p.Branches, p.Misses+1, out, false),
		"degraded":           predictReply(t, p.Steps, p.Branches, p.Misses, out, true),
	} {
		if checkFresh(body, &p, nonce) == nil {
			t.Errorf("%s accepted", name)
		}
	}

	g := testGolden(t)
	want := g.Suite["xlisp"][0]
	if err := checkSuite(predictReply(t, want.Steps, want.DynamicBranches, want.HeuristicMisses, "", false), want); err != nil {
		t.Fatalf("right suite answer rejected: %v", err)
	}
	if checkSuite(predictReply(t, want.Steps, want.DynamicBranches, want.HeuristicMisses-1, "", false), want) == nil {
		t.Error("suite answer with a wrong miss count accepted")
	}

	type entrant struct {
		Name   string `json:"name"`
		Misses int64  `json:"misses"`
	}
	var entrants []entrant
	for name, m := range g.Compare["xlisp"] {
		entrants = append(entrants, entrant{name, m})
	}
	reply := func() []byte {
		b, err := json.Marshal(map[string]any{"steps": want.Steps, "dynamic_branches": want.DynamicBranches, "predictors": entrants})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := checkCompare(reply(), want, g.Compare["xlisp"]); err != nil {
		t.Fatalf("right compare answer rejected: %v", err)
	}
	entrants[0].Misses++
	if checkCompare(reply(), want, g.Compare["xlisp"]) == nil {
		t.Error("compare answer with a wrong miss count accepted")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	ascending := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	if v, ok := percentile(ascending(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990, true", v, ok)
	}
	if _, ok := percentile(ascending(999), 0.99); ok {
		t.Error("p99 of 999 samples reported with only 9 beyond it")
	}
	if v, ok := percentile(ascending(20), 0.5); !ok || v != 10 {
		t.Errorf("p50 of 1..20 = %v, %v; want 10, true", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step:
// the same workloads, and the same metrics with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %s, implemented %s", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		defs     []metricDef
	}{{b.EndToEnd, e2eMetrics}, {b.PerLayer, layerMetrics}} {
		if len(c.declared) != len(c.defs) {
			t.Fatalf("%d metrics declared, %d reported", len(c.declared), len(c.defs))
		}
		for i, m := range c.declared {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("metric %d: declared %s (%s), reported %s (%s)", i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}

package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ballarus/internal/dynpred"
	"ballarus/internal/interp"
	"ballarus/internal/minic"
	"ballarus/internal/resilience"
	"ballarus/internal/suite"
	"ballarus/internal/trace"
)

const compareSrc = `
int main() {
  int i; int j; int s = 0;
  for (i = 0; i < 40; i++) {
    for (j = 0; j < 8; j++) {
      if ((i + j) % 3 == 0) { s += j; } else { s -= 1; }
    }
    if (s % 2 == 0) { s += i; }
  }
  printi(s);
  return 0;
}`

// entrant returns the named tournament entrant's score.
func entrant(t *testing.T, res *CompareResult, name string) PredictorScore {
	t.Helper()
	for _, p := range res.Predictors {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("missing entrant %q", name)
	return PredictorScore{}
}

func TestCompareBasics(t *testing.T) {
	s := New()
	ctx := context.Background()
	res, err := s.Compare(ctx, CompareRequest{Request: Request{Source: compareSrc}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "<source>" {
		t.Errorf("name = %q", res.Name)
	}
	// The static pair plus every registered backend, sorted by name.
	want := append([]string{dynpred.NameStatic, dynpred.NamePerfect}, dynpred.Names()...)
	if len(res.Predictors) != len(want) {
		t.Fatalf("%d entrants, want %d: %+v", len(res.Predictors), len(want), res.Predictors)
	}
	for i := 1; i < len(res.Predictors); i++ {
		if res.Predictors[i-1].Name >= res.Predictors[i].Name {
			t.Errorf("entrants not sorted: %q before %q", res.Predictors[i-1].Name, res.Predictors[i].Name)
		}
	}
	for _, name := range want {
		sc := entrant(t, res, name)
		if sc.Branches != res.DynamicBranches {
			t.Errorf("%s raced %d branches, run had %d", name, sc.Branches, res.DynamicBranches)
		}
		if sc.PerBranch == nil {
			t.Errorf("%s has no per-branch stats", name)
		}
	}
	// Perfect is the floor for every static vector by construction.
	if p, h := entrant(t, res, dynpred.NamePerfect), entrant(t, res, dynpred.NameStatic); p.Misses > h.Misses {
		t.Errorf("perfect (%d misses) worse than heuristics (%d)", p.Misses, h.Misses)
	}
	if res.CompareCached {
		t.Error("first request claims a compare cache hit")
	}

	// Second identical request: served from the compare cache.
	res2, err := s.Compare(ctx, CompareRequest{Request: Request{Source: compareSrc}})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.CompareCached || !res2.ProgramCached || !res2.AnalysisCached {
		t.Errorf("repeat request caches: compare=%v program=%v analysis=%v, want all true",
			res2.CompareCached, res2.ProgramCached, res2.AnalysisCached)
	}
	if !reflect.DeepEqual(res.Predictors, res2.Predictors) || !reflect.DeepEqual(res.H2P, res2.H2P) {
		t.Error("cached comparison differs from computed one")
	}
	st := s.Stats()
	if got := stageFor(t, st, stageCompare); got.CacheHits != 1 || got.CacheMisses != 1 {
		t.Errorf("compare stage cache hits/misses = %d/%d, want 1/1", got.CacheHits, got.CacheMisses)
	}
}

func TestCompareValidation(t *testing.T) {
	s := New()
	ctx := context.Background()
	_, err := s.Compare(ctx, CompareRequest{
		Request:    Request{Source: compareSrc},
		Predictors: []string{"oracle"},
	})
	if !errors.Is(err, resilience.ErrInvalidInput) {
		t.Errorf("unknown backend: %v, want invalid input", err)
	}
	_, err = s.Compare(ctx, CompareRequest{})
	if !errors.Is(err, resilience.ErrInvalidInput) {
		t.Errorf("empty request: %v, want invalid input", err)
	}
	// Duplicate and unsorted backends normalize to one entrant each.
	res, err := s.Compare(ctx, CompareRequest{
		Request:    Request{Source: compareSrc},
		Predictors: []string{dynpred.NameTwoBit, dynpred.NameOneBit, dynpred.NameTwoBit},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Predictors) != 4 { // static pair + one-bit + two-bit
		t.Errorf("entrants = %+v, want 4", res.Predictors)
	}
	// A seeded run with a lowered H2P threshold is a valid request.
	if _, err := s.Compare(ctx, CompareRequest{
		Request:        Request{Source: compareSrc, Seed: 3},
		H2PMinExecuted: 1,
	}); err != nil {
		t.Errorf("seeded compare with H2PMinExecuted 1: %v", err)
	}
	// A canceled context fails before any work.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.Compare(canceled, CompareRequest{Request: Request{Source: compareSrc}}); !errors.Is(err, resilience.ErrTimeout) {
		t.Errorf("canceled context: %v, want a timeout", err)
	}
}

// TestCompareAgreesWithOfflineReplay is the acceptance check: for every
// suite benchmark, the served tournament's miss counts must equal an
// offline replay of the same materialized trace, for every entrant.
func TestCompareAgreesWithOfflineReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite comparison in -short mode")
	}
	s := New()
	ctx := context.Background()
	for _, b := range suite.All() {
		res, err := s.Compare(ctx, CompareRequest{Request: Request{Benchmark: b.Name}})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}

		// Offline: compile, run with a materialized trace, replay each
		// backend over the events.
		prog, err := minic.Compile(b.Source, minic.Options{})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		run, err := interp.Run(prog, interp.Config{
			Input:         b.Data[0].Input,
			Budget:        b.Budget,
			CollectEvents: true,
		})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		n := run.Profile.Set.Len()
		for _, name := range dynpred.Names() {
			p, err := dynpred.New(name, n)
			if err != nil {
				t.Fatal(err)
			}
			want := dynpred.Replay(run.Events, n, p)
			got := entrant(t, res, name)
			if got.Misses != want.Miss || got.Branches != want.Branches {
				t.Errorf("%s/%s: served %d/%d misses/branches, offline replay %d/%d",
					b.Name, name, got.Misses, got.Branches, want.Miss, want.Branches)
			}
		}
		perfect := dynpred.StaticResult(run.Profile, trace.PerfectVector(run.Profile))
		if got := entrant(t, res, dynpred.NamePerfect); got.Misses != perfect.Miss {
			t.Errorf("%s/perfect: served %d misses, offline %d", b.Name, got.Misses, perfect.Miss)
		}
	}
}

// Same request against two fresh services must yield identical H2P
// sets and scores — the determinism acceptance criterion.
func TestCompareDeterministicAcrossServices(t *testing.T) {
	req := CompareRequest{Request: Request{Benchmark: suite.Names()[0], Seed: 7}}
	ctx := context.Background()
	a, err := New().Compare(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New().Compare(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Predictors, b.Predictors) {
		t.Error("scores differ across identical services")
	}
	if !reflect.DeepEqual(a.H2P, b.H2P) {
		t.Error("H2P classification differs across identical services")
	}
}

// TestCompareBackendSetCaching: the compare cache keys the resolved
// backend set, so a nil list and the full registry spelled out share
// one entry, a subset does not, and an unknown backend is invalid.
func TestCompareBackendSetCaching(t *testing.T) {
	s := New()
	ctx := context.Background()
	if _, err := s.Compare(ctx, CompareRequest{Request: Request{Source: compareSrc}}); err != nil {
		t.Fatal(err)
	}
	full, err := s.Compare(ctx, CompareRequest{Request: Request{Source: compareSrc}, Predictors: dynpred.Names()})
	if err != nil {
		t.Fatal(err)
	}
	if !full.CompareCached {
		t.Error("explicit full backend list missed the defaulted list's cache entry")
	}
	sub, err := s.Compare(ctx, CompareRequest{Request: Request{Source: compareSrc}, Predictors: []string{dynpred.NameGshare}})
	if err != nil {
		t.Fatal(err)
	}
	if sub.CompareCached {
		t.Error("a backend subset hit the full set's cache entry")
	}
	if len(sub.Predictors) != 3 {
		t.Errorf("entrants = %+v, want the static pair + gshare", sub.Predictors)
	}
	_, err = s.Compare(ctx, CompareRequest{Request: Request{Source: compareSrc}, Predictors: []string{"oracle"}})
	if !errors.Is(err, resilience.ErrInvalidInput) {
		t.Errorf("unknown backend = %v, want invalid input", err)
	}
}

func TestCompareFaultpointAndMetrics(t *testing.T) {
	defer resilience.ClearFaults()
	s := New()
	resilience.InjectFault("service."+stageCompare, resilience.Fault{Err: errors.New("injected failure")})
	_, err := s.Compare(context.Background(), CompareRequest{Request: Request{Source: compareSrc}})
	if err == nil || !strings.Contains(err.Error(), "compare") {
		t.Fatalf("faultpoint not exercised: %v", err)
	}
	resilience.ClearFaults()

	if _, err := s.Compare(context.Background(), CompareRequest{Request: Request{Source: compareSrc}}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := s.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, w := range []string{
		`ballarus_compare_predictor_misses_total{predictor="tage"}`,
		`ballarus_compare_predictor_misses_total{predictor="ballarus-heuristics"}`,
		`ballarus_compare_miss_rate_pct{predictor="gshare"}`,
		`ballarus_compare_branches_total`,
		`ballarus_compare_h2p_branches_total{verdict="static_beaten"}`,
	} {
		if !strings.Contains(text, w) {
			t.Errorf("metrics exposition missing %s", w)
		}
	}
	// The failed and the computed run are each recorded once, in the
	// stage's latency histogram, and only the computed one in its cache
	// family.
	st := stageFor(t, s.Stats(), stageCompare)
	for _, w := range []string{
		fmt.Sprintf(`ballarus_stage_duration_seconds_count{stage="compare"} %d`, st.Count),
		fmt.Sprintf(`ballarus_stage_cache_total{stage="compare",result="miss"} %d`, st.CacheMisses),
	} {
		if !strings.Contains(text, w) || st.Count != 2 || st.Errors != 1 || st.CacheMisses != 1 {
			t.Errorf("metrics exposition missing %s (stats %+v)", w, st)
		}
	}
}

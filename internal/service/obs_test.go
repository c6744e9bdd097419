package service

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"ballarus/internal/obs"
)

const obsTestSrc = `int main() { int i; int s = 0; for (i = 0; i < 2000; i++) { if (i % 3 == 0) { s += i; } else { s -= 1; } } printi(s); return 0; }`

// TestPredictTraceSpans: a trace started above the service collects a
// span for admission and for every pipeline stage, with cache-outcome
// attributes.
func TestPredictTraceSpans(t *testing.T) {
	tracer := obs.NewTracer(8, nil, obs.ArchivePolicy{})
	s := New(WithTracer(tracer))
	defer s.Close()
	if s.Tracer() != tracer {
		t.Fatal("Tracer() did not return the installed tracer")
	}
	ctx, act := tracer.Start(context.Background(), "predict")
	if _, err := s.Predict(ctx, Request{Source: obsTestSrc}); err != nil {
		t.Fatal(err)
	}
	act.End(nil)
	traces := tracer.Last(1)
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	spans := map[string]obs.SpanRecord{}
	for _, sp := range traces[0].Spans {
		spans[sp.Name] = sp
	}
	for _, want := range []string{
		"admit", "stage.compile", "stage.analyze",
		"stage.predict", "stage.execute", "stage.score",
	} {
		if _, ok := spans[want]; !ok {
			t.Errorf("trace missing span %q (have %v)", want, names(traces[0].Spans))
		}
	}
	if got := spans["stage.compile"].Attrs["cache"]; got != "miss" {
		t.Errorf("cold compile span cache attr = %q, want miss", got)
	}

	// A second identical request is a cache hit and says so.
	ctx2, act2 := tracer.Start(context.Background(), "predict")
	if _, err := s.Predict(ctx2, Request{Source: obsTestSrc}); err != nil {
		t.Fatal(err)
	}
	act2.End(nil)
	warm := tracer.Last(1)[0]
	for _, sp := range warm.Spans {
		if sp.Name == "stage.execute" && sp.Attrs["cache"] != "hit" {
			t.Errorf("warm execute span cache attr = %q, want hit", sp.Attrs["cache"])
		}
	}
}

func names(spans []obs.SpanRecord) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

// TestTracePropagatesThroughFan: spans opened inside Fan workers (other
// goroutines) land in the trace attached to the parent context.
func TestTracePropagatesThroughFan(t *testing.T) {
	tracer := obs.NewTracer(4, nil, obs.ArchivePolicy{})
	s := New(WithTracer(tracer))
	defer s.Close()
	ctx, act := tracer.Start(context.Background(), "fanout")
	err := Fan(ctx, 4, 8, func(ctx context.Context, i int) error {
		sp := obs.StartSpan(ctx, "item")
		defer sp.End(nil)
		// Every other item drives the full pipeline, so stage spans from
		// concurrent workers interleave into the same trace.
		if i%2 == 0 {
			src := fmt.Sprintf("int main() { printi(%d); return 0; }", i)
			_, perr := s.Predict(ctx, Request{Source: src})
			return perr
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	act.End(nil)
	traces := tracer.Last(1)
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	items, stageSpans := 0, 0
	for _, sp := range traces[0].Spans {
		switch {
		case sp.Name == "item":
			items++
		case strings.HasPrefix(sp.Name, "stage."):
			stageSpans++
		}
	}
	if items != 8 {
		t.Errorf("got %d item spans, want 8", items)
	}
	if stageSpans < 4*4 {
		t.Errorf("got %d stage spans across fan workers, want >= 16", stageSpans)
	}
}

// TestServiceMetricsExposition: the registry serves a lint-clean
// Prometheus exposition whose counters agree with Stats() and carry
// per-stage histograms and the paper's per-heuristic accuracy counters.
func TestServiceMetricsExposition(t *testing.T) {
	s := New()
	defer s.Close()
	ctx := context.Background()
	for i := 0; i < 2; i++ { // second round hits every cache
		if _, err := s.Predict(ctx, Request{Source: obsTestSrc, Optimize: true}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Compare(ctx, CompareRequest{Request: Request{Source: obsTestSrc, Optimize: true}}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if problems := obs.Lint(bytes.NewReader(buf.Bytes())); len(problems) != 0 {
		t.Fatalf("exposition lint: %v", problems)
	}
	exp, err := obs.ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	value := func(name string, labels map[string]string) float64 {
		t.Helper()
		v, ok := exp.Value(name, labels)
		if !ok {
			t.Fatalf("metric %s%v not exported", name, labels)
		}
		return v
	}
	if got := value("ballarus_requests_total", nil); int64(got) != st.Requests {
		t.Errorf("requests_total = %v, stats say %d", got, st.Requests)
	}
	if got := value("ballarus_requests_completed_total", nil); int64(got) != st.Completed {
		t.Errorf("completed_total = %v, stats say %d", got, st.Completed)
	}
	// The run and tournament caches' outcomes are the execute and
	// compare rows of the stage cache family.
	for result, want := range map[string]int64{"hit": st.RunHits, "miss": st.RunMisses} {
		got := value("ballarus_stage_cache_total", map[string]string{"stage": stageExecute, "result": result}) +
			value("ballarus_stage_cache_total", map[string]string{"stage": stageCompare, "result": result})
		if int64(got) != want || want != 2 {
			t.Errorf("stage_cache_total{execute+compare,%s} = %v, stats say %d, want 2", result, got, want)
		}
	}
	for _, stage := range stageOrder {
		want := stageFor(t, st, stage).Count
		if got := value("ballarus_stage_duration_seconds_count", map[string]string{"stage": stage}); int64(got) != want || want == 0 {
			t.Errorf("stage_duration_seconds_count{%s} = %v, stats say %d, want > 0", stage, got, want)
		}
	}
	// Domain metrics: every dynamic branch is attributed to exactly one
	// rule, and the per-class split covers the same total.
	dyn := value("ballarus_dynamic_branches_total", nil)
	if dyn <= 0 {
		t.Fatalf("dynamic_branches_total = %v, want > 0", dyn)
	}
	sum := func(name string) float64 {
		var t float64
		for _, s := range exp.Samples {
			if s.Name == name {
				t += s.Value
			}
		}
		return t
	}
	if got := sum("ballarus_heuristic_predicted_total"); got != dyn {
		t.Errorf("sum(heuristic_predicted_total) = %v, want %v", got, dyn)
	}
	if got := sum("ballarus_branch_executions_total"); got != dyn {
		t.Errorf("sum(branch_executions_total) = %v, want %v", got, dyn)
	}
	if miss := sum("ballarus_heuristic_misses_total"); miss <= 0 || miss >= dyn {
		t.Errorf("sum(heuristic_misses_total) = %v, want in (0, %v)", miss, dyn)
	}
	for _, p := range predictorOrder {
		rate := value("ballarus_predictor_miss_rate_pct", map[string]string{"predictor": p})
		if rate < 0 || rate > 100 {
			t.Errorf("miss_rate_pct{%s} = %v, want within [0, 100]", p, rate)
		}
	}
	// The heuristic combiner must beat or match the perfect floor.
	hm := value("ballarus_predictor_misses_total", map[string]string{"predictor": "heuristic"})
	pm := value("ballarus_predictor_misses_total", map[string]string{"predictor": "perfect"})
	if pm > hm {
		t.Errorf("perfect misses %v > heuristic misses %v", pm, hm)
	}
}

// TestFreshServiceExpositionGuards: a service that has served nothing
// exposes zeros — not NaN — for every derived rate, and Stats() means
// stay zero-guarded.
func TestFreshServiceExpositionGuards(t *testing.T) {
	s := New()
	defer s.Close()
	var buf bytes.Buffer
	if err := s.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "NaN") {
		t.Fatalf("fresh exposition contains NaN:\n%s", buf.String())
	}
	if problems := obs.Lint(bytes.NewReader(buf.Bytes())); len(problems) != 0 {
		t.Fatalf("fresh exposition lint: %v", problems)
	}
	for _, st := range s.Stats().Stages {
		if st.MeanTime != 0 {
			t.Errorf("stage %s: MeanTime %v with no runs", st.Name, st.MeanTime)
		}
	}
}

// BenchmarkPredictWarmTraced measures the cached-hit path with a live
// trace attached — the overhead budget for the observability layer.
func BenchmarkPredictWarmTraced(b *testing.B) {
	src := `int main() { int i; int s = 0; for (i = 0; i < 500000; i++) { s += i % 9; } printi(s); return 0; }`
	tracer := obs.NewTracer(256, nil, obs.ArchivePolicy{})
	s := New(WithTracer(tracer))
	defer s.Close()
	ctx := context.Background()
	if _, err := s.Predict(ctx, Request{Source: src}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tctx, act := tracer.Start(ctx, "bench")
		if _, err := s.Predict(tctx, Request{Source: src}); err != nil {
			b.Fatal(err)
		}
		act.End(nil)
	}
}

package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ballarus/internal/core"
	"ballarus/internal/interp"
	"ballarus/internal/minic"
	"ballarus/internal/profile"
	"ballarus/internal/suite"
)

// testSrc executes ~7k instructions: enough branches to score, cheap
// enough to hammer.
const testSrc = `
int main() {
	int i;
	int s = 0;
	for (i = 0; i < 300; i++) {
		if (i % 3 == 0) { s += i; }
		if (i % 7 == 0) { s -= 1; }
	}
	printi(s);
	printc('\n');
	return 0;
}
`

// slowSrc runs for hundreds of milliseconds under the interpreter —
// long enough that a cancellation mid-run is observable.
const slowSrc = `
int main() {
	int i;
	int s = 0;
	for (i = 0; i < 1000000000; i++) {
		s += i % 7;
	}
	printi(s);
	return 0;
}
`

func TestPredictSource(t *testing.T) {
	s := New()
	res, err := s.Predict(context.Background(), Request{Source: testSrc})
	if err != nil {
		t.Fatal(err)
	}
	if res.StaticBranches == 0 || res.DynamicBranches == 0 || res.Steps == 0 {
		t.Fatalf("empty result: %+v", res)
	}
	if res.Heuristic.Dyn != res.DynamicBranches {
		t.Fatalf("score over %d branches, want %d", res.Heuristic.Dyn, res.DynamicBranches)
	}
	if res.ProgramCached || res.AnalysisCached || res.RunCached {
		t.Fatalf("first request must be cold: %+v", res)
	}
}

func TestPredictMatchesDirectPipeline(t *testing.T) {
	s := New()
	b := suite.All()[0]
	res, err := s.Predict(context.Background(), Request{Benchmark: b.Name})
	if err != nil {
		t.Fatal(err)
	}

	prog, err := minic.Compile(b.Source, minic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	run, err := interp.Run(prog, interp.Config{Input: b.Data[0].Input, Budget: b.Budget})
	if err != nil {
		t.Fatal(err)
	}
	want := profile.MakeRate(core.Tally(a.Predictions(core.DefaultOrder), run.Profile))
	if res.Heuristic != want {
		t.Fatalf("service score %v != direct pipeline score %v", res.Heuristic, want)
	}
	if res.Steps != run.Steps || res.Output != run.Output {
		t.Fatalf("service run diverged from direct run: %d/%d steps", res.Steps, run.Steps)
	}
}

func TestValidation(t *testing.T) {
	s := New()
	ctx := context.Background()
	if _, err := s.Predict(ctx, Request{}); err == nil {
		t.Error("empty request should fail")
	}
	if _, err := s.Predict(ctx, Request{Source: "x", Benchmark: "y"}); err == nil {
		t.Error("both source and benchmark should fail")
	}
	if _, err := s.Predict(ctx, Request{Benchmark: "nope"}); err == nil {
		t.Error("unknown benchmark should fail")
	}
	if _, err := s.Predict(ctx, Request{Benchmark: suite.All()[0].Name, Dataset: 99}); err == nil {
		t.Error("bad dataset should fail")
	}
	if _, err := s.Predict(ctx, Request{Source: "int main() { return 0 }"}); err == nil {
		t.Error("syntax error should fail")
	}
	// Errors are not cached: the same bad source fails the same way twice
	// and the cache stays empty.
	s.Predict(ctx, Request{Source: "int main() { return 0 }"})
	if st := s.Stats(); st.Programs != 0 {
		t.Errorf("failed compiles must not be cached, have %d programs", st.Programs)
	}
}

func TestConcurrentSameSource(t *testing.T) {
	s := New(WithWorkers(8))
	const n = 32
	var wg sync.WaitGroup
	results := make([]*Result, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Predict(context.Background(), Request{Source: testSrc})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if results[i].Heuristic != results[0].Heuristic || results[i].Steps != results[0].Steps {
			t.Fatalf("request %d diverged: %+v vs %+v", i, results[i], results[0])
		}
	}
	st := s.Stats()
	// Single-flight: exactly one compile, one analysis, one execution.
	if c := stageFor(t, st, stageCompile); c.CacheMisses != 1 || c.CacheHits != n-1 {
		t.Errorf("compile cache = %d misses / %d hits, want 1/%d", c.CacheMisses, c.CacheHits, n-1)
	}
	if a := stageFor(t, st, stageAnalyze); a.CacheMisses != 1 || a.CacheHits != n-1 {
		t.Errorf("analysis cache = %d misses / %d hits, want 1/%d", a.CacheMisses, a.CacheHits, n-1)
	}
	if st.RunMisses != 1 || st.RunHits != n-1 {
		t.Errorf("run cache = %d misses / %d hits, want 1/%d", st.RunMisses, st.RunHits, n-1)
	}
	if st.Completed != n || st.Errors != 0 || st.InFlight != 0 {
		t.Errorf("stats = %+v, want %d completed, none in flight", st, n)
	}
}

func TestConcurrentDistinctSources(t *testing.T) {
	s := New(WithWorkers(8))
	const n = 12
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			src := fmt.Sprintf(
				"int main() { int i; int s = 0; for (i = 0; i < %d; i++) { s += i; } printi(s); return 0; }",
				200+i)
			_, errs[i] = s.Predict(context.Background(), Request{Source: src})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := s.Stats()
	if c := stageFor(t, st, stageCompile); c.CacheMisses != n || c.CacheHits != 0 {
		t.Errorf("compile cache = %d misses / %d hits, want %d/0", c.CacheMisses, c.CacheHits, n)
	}
	if st.Programs != n || st.Analyses != n || st.Runs != n {
		t.Errorf("cache sizes = %d/%d/%d, want %d each", st.Programs, st.Analyses, st.Runs, n)
	}
}

func TestCancellationMidPipeline(t *testing.T) {
	s := New()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var err error
	go func() {
		defer close(done)
		_, err = s.Predict(ctx, Request{Source: slowSrc, Budget: 1 << 40})
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not interrupt the interpreter")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	st := s.Stats()
	if st.Errors != 1 || st.Canceled != 1 {
		t.Errorf("stats = %d errors, %d canceled, want 1/1", st.Errors, st.Canceled)
	}
	if st.Runs != 0 {
		t.Errorf("a canceled run must not be cached, have %d", st.Runs)
	}
	// The service recovers: the same request with a live context and a
	// real budget completes (with ErrBudget surfaced as a pipeline error,
	// not a poisoned cache entry).
	if _, err := s.Predict(context.Background(), Request{Source: testSrc}); err != nil {
		t.Fatalf("service did not recover after cancellation: %v", err)
	}
}

func TestDeadline(t *testing.T) {
	s := New(WithRequestTimeout(25 * time.Millisecond))
	_, err := s.Predict(context.Background(), Request{Source: slowSrc, Budget: 1 << 40})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestQueueRespectsContext(t *testing.T) {
	s := New(WithWorkers(1))
	holdCtx, holdCancel := context.WithCancel(context.Background())
	defer holdCancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		// Occupy the only worker slot with a long run.
		s.Predict(holdCtx, Request{Source: slowSrc, Budget: 1 << 40})
	}()
	// Give the slot holder time to start executing.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slot holder never started")
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err := s.Predict(ctx, Request{Source: testSrc})
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("queued request err = %v, want ErrBusy", err)
	}
	// Release the slot holder so the test exits promptly.
	holdCancel()
	wg.Wait()
}

// TestWarmCacheSpeedup is the acceptance benchmark: a repeated identical
// request must be served at least 5x faster than the cold run.
func TestWarmCacheSpeedup(t *testing.T) {
	// ~3M executed instructions: a cold run costs real work.
	src := `int main() { int i; int s = 0; for (i = 0; i < 500000; i++) { s += i % 9; } printi(s); return 0; }`
	s := New()
	ctx := context.Background()

	start := time.Now()
	if _, err := s.Predict(ctx, Request{Source: src}); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start)

	warm := time.Duration(1 << 62)
	for i := 0; i < 20; i++ {
		start = time.Now()
		res, err := s.Predict(ctx, Request{Source: src})
		if err != nil {
			t.Fatal(err)
		}
		if !res.RunCached {
			t.Fatal("warm request missed the run cache")
		}
		if d := time.Since(start); d < warm {
			warm = d
		}
	}
	t.Logf("cold %v, warm %v (%.0fx)", cold, warm, float64(cold)/float64(warm))
	if cold < 5*warm {
		t.Errorf("warm requests only %.1fx faster than cold (cold %v, warm %v), want >= 5x",
			float64(cold)/float64(warm), cold, warm)
	}
}

func BenchmarkPredictCold(b *testing.B) {
	src := `int main() { int i; int s = 0; for (i = 0; i < 500000; i++) { s += i % 9; } printi(s); return 0; }`
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A fresh service per iteration: every stage runs.
		s := New()
		if _, err := s.Predict(ctx, Request{Source: src}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictWarm(b *testing.B) {
	src := `int main() { int i; int s = 0; for (i = 0; i < 500000; i++) { s += i % 9; } printi(s); return 0; }`
	ctx := context.Background()
	s := New()
	if _, err := s.Predict(ctx, Request{Source: src}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Predict(ctx, Request{Source: src}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFan(t *testing.T) {
	// All items run, bounded workers.
	var mu sync.Mutex
	seen := map[int]bool{}
	err := Fan(context.Background(), 3, 20, func(ctx context.Context, i int) error {
		mu.Lock()
		seen[i] = true
		mu.Unlock()
		return nil
	})
	if err != nil || len(seen) != 20 {
		t.Fatalf("fan: err %v, %d items, want 20", err, len(seen))
	}

	// First error cancels the rest.
	boom := errors.New("boom")
	var ran int32
	err = Fan(context.Background(), 2, 100, func(ctx context.Context, i int) error {
		mu.Lock()
		ran++
		mu.Unlock()
		if i == 3 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("fan err = %v, want boom", err)
	}
	mu.Lock()
	if ran == 100 {
		t.Error("error did not cancel remaining work")
	}
	mu.Unlock()

	// Pre-canceled context runs nothing.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	count := 0
	err = Fan(ctx, 2, 10, func(ctx context.Context, i int) error {
		mu.Lock()
		count++
		mu.Unlock()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("fan on canceled ctx: err = %v", err)
	}
}

package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ballarus/internal/interp"
	"ballarus/internal/resilience"
)

// breakerFor extracts one stage's breaker snapshot from a Stats.
func breakerFor(t *testing.T, st Stats, stage string) resilience.BreakerStats {
	t.Helper()
	for _, b := range st.Breakers {
		if b.Name == stage {
			return b
		}
	}
	t.Fatalf("no breaker %q in stats", stage)
	return resilience.BreakerStats{}
}

// stageFor extracts one stage's snapshot from a Stats.
func stageFor(t *testing.T, st Stats, stage string) StageStats {
	t.Helper()
	for _, s := range st.Stages {
		if s.Name == stage {
			return s
		}
	}
	t.Fatalf("no stage %q in stats", stage)
	return StageStats{}
}

// TestFaultMatrix injects a failure, a panic, and a hang at every
// failure-prone stage and asserts the documented typed error, that no
// panic escapes, that the breaker records the failure, and that the
// service recovers once the fault clears. Faults use the global
// registry, so none of these subtests run in parallel.
func TestFaultMatrix(t *testing.T) {
	stages := []string{stageCompile, stageAnalyze, stageExecute}
	faults := []struct {
		name      string
		fault     resilience.Fault
		wantKind  error
		wantPanic bool
	}{
		{"error", resilience.Fault{Err: errors.New("injected failure")}, resilience.ErrInternal, false},
		{"panic", resilience.Fault{Panic: "injected panic"}, resilience.ErrInternal, true},
		{"hang", resilience.Fault{Hang: true}, resilience.ErrTimeout, false},
	}
	for _, stage := range stages {
		for _, f := range faults {
			t.Run(stage+"/"+f.name, func(t *testing.T) {
				defer resilience.ClearFaults()
				s := New(WithRequestTimeout(200 * time.Millisecond))
				resilience.InjectFault("service."+stage, f.fault)

				_, err := s.Predict(context.Background(), Request{Source: testSrc})
				if err == nil {
					t.Fatal("injected fault did not fail the request")
				}
				if got := resilience.KindOf(err); got != f.wantKind {
					t.Fatalf("error kind = %v (%v), want %v", got, err, f.wantKind)
				}
				if resilience.IsPanic(err) != f.wantPanic {
					t.Fatalf("IsPanic = %v, want %v (err %v)", !f.wantPanic, f.wantPanic, err)
				}
				st := s.Stats()
				if f.wantPanic && st.Panics != 1 {
					t.Fatalf("panics counter = %d, want 1", st.Panics)
				}
				if st.Errors != 1 {
					t.Fatalf("errors counter = %d, want 1", st.Errors)
				}
				if br := breakerFor(t, st, stage); br.Failures != 1 || br.State != "closed" {
					t.Fatalf("breaker after one failure = %+v, want 1 failure, closed", br)
				}

				// The fault cleared: the same request now succeeds and the
				// breaker's consecutive-failure count resets.
				resilience.ClearFaults()
				if _, err := s.Predict(context.Background(), Request{Source: testSrc}); err != nil {
					t.Fatalf("service did not recover after fault cleared: %v", err)
				}
				if br := breakerFor(t, s.Stats(), stage); br.Failures != 0 {
					t.Fatalf("breaker failures not reset by success: %+v", br)
				}
			})
		}
	}
}

// TestBreakerOpensShedsAndRecovers drives a stage breaker through
// closed → open → half-open → closed and asserts shed requests classify
// as overload.
func TestBreakerOpensShedsAndRecovers(t *testing.T) {
	defer resilience.ClearFaults()
	s := New(WithBreakerPolicy(resilience.BreakerPolicy{Threshold: 2, Cooldown: 50 * time.Millisecond}))
	ctx := context.Background()
	resilience.InjectFault("service."+stageAnalyze, resilience.Fault{Err: errors.New("persistent failure")})

	for i := 0; i < 2; i++ {
		if _, err := s.Predict(ctx, Request{Source: testSrc}); !errors.Is(err, resilience.ErrInternal) {
			t.Fatalf("request %d: err = %v, want internal", i, err)
		}
	}
	st := s.Stats()
	if br := breakerFor(t, st, stageAnalyze); br.State != "open" || br.Opens != 1 {
		t.Fatalf("breaker after threshold failures = %+v, want open", br)
	}

	// While open, requests are shed at the analyze stage without running
	// it: typed as overload, wrapping ErrCircuitOpen.
	_, err := s.Predict(ctx, Request{Source: testSrc})
	if !errors.Is(err, resilience.ErrCircuitOpen) || !errors.Is(err, resilience.ErrOverload) {
		t.Fatalf("open-breaker err = %v, want ErrCircuitOpen+ErrOverload", err)
	}
	if st := s.Stats(); st.Shed == 0 {
		t.Fatal("shed counter did not move")
	}

	// Cooldown elapses and the fault is gone: the half-open probe
	// succeeds and closes the breaker.
	resilience.ClearFaults()
	time.Sleep(60 * time.Millisecond)
	if _, err := s.Predict(ctx, Request{Source: testSrc}); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if br := breakerFor(t, s.Stats(), stageAnalyze); br.State != "closed" {
		t.Fatalf("breaker after successful probe = %+v, want closed", br)
	}
}

// TestRetryRecoversTransientFault: a fault that fails twice with a
// transient error is absorbed by the retry policy — the request
// succeeds and the retries are counted.
func TestRetryRecoversTransientFault(t *testing.T) {
	defer resilience.ClearFaults()
	s := New()
	resilience.InjectFault("service."+stageExecute,
		resilience.Fault{Err: resilience.MarkTransient(errors.New("blip")), Times: 2})

	res, err := s.Predict(context.Background(), Request{Source: testSrc})
	if err != nil {
		t.Fatalf("transient fault not retried away: %v", err)
	}
	if res.Steps == 0 {
		t.Fatal("empty result after retries")
	}
	st := s.Stats()
	if st.Retries != 2 {
		t.Fatalf("retries = %d, want 2", st.Retries)
	}
	if br := breakerFor(t, st, stageExecute); br.Failures != 0 || br.State != "closed" {
		t.Fatalf("retried-away failure left breaker %+v", br)
	}
}

// TestQueueDepthSheds: with one worker and a queue depth of one, a
// third concurrent request is rejected immediately as overload.
func TestQueueDepthSheds(t *testing.T) {
	s := New(WithWorkers(1), WithQueueDepth(1))
	holdCtx, holdCancel := context.WithCancel(context.Background())
	defer holdCancel()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // occupies the only worker slot
		defer wg.Done()
		s.Predict(holdCtx, Request{Source: slowSrc, Budget: 1 << 40})
	}()
	waitFor(t, func() bool { return s.Stats().InFlight == 1 })
	go func() { // fills the queue
		defer wg.Done()
		s.Predict(holdCtx, Request{Source: slowSrc, Input: []int64{1}, Budget: 1 << 40})
	}()
	waitFor(t, func() bool { return s.Stats().Queued == 1 })

	_, err := s.Predict(context.Background(), Request{Source: testSrc})
	if !errors.Is(err, ErrBusy) || !errors.Is(err, resilience.ErrOverload) {
		t.Fatalf("shed request err = %v, want ErrBusy classified overload", err)
	}
	if st := s.Stats(); st.Shed != 1 {
		t.Fatalf("shed = %d, want 1", st.Shed)
	}
	holdCancel()
	wg.Wait()
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCacheSizeBoundsMemory: with a 4-entry cap, 8 distinct programs
// evict the oldest entries, the counters say so, and recent entries
// still hit.
func TestCacheSizeBounds(t *testing.T) {
	s := New(WithCacheSize(4))
	ctx := context.Background()
	src := func(i int) string {
		return fmt.Sprintf("int main() { int i; int s = 0; for (i = 0; i < %d; i++) { s += i; } printi(s); return 0; }", 100+i)
	}
	for i := 0; i < 8; i++ {
		if _, err := s.Predict(ctx, Request{Source: src(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Compare(ctx, CompareRequest{Request: Request{Source: src(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Programs != 4 || st.Analyses != 4 || st.Runs != 4 || st.Compares != 4 {
		t.Fatalf("cache sizes = %d/%d/%d/%d, want 4 each", st.Programs, st.Analyses, st.Runs, st.Compares)
	}
	if st.Evictions != 16 {
		t.Fatalf("evictions = %d, want 16 (4 per cache)", st.Evictions)
	}
	for _, c := range st.Caches {
		if c.Capacity != 4 || c.Evictions != 4 || c.Entries != 4 {
			t.Fatalf("cache %s = %+v, want capacity 4, 4 evictions, 4 entries", c.Name, c)
		}
	}
	// The most recent program is still resident.
	res, err := s.Predict(ctx, Request{Source: src(7)})
	if err != nil || !res.RunCached {
		t.Fatalf("recent entry evicted: hit=%v err=%v", res != nil && res.RunCached, err)
	}
	// The oldest was evicted: a repeat is a miss, recomputed correctly.
	res, err = s.Predict(ctx, Request{Source: src(0)})
	if err != nil || res.RunCached {
		t.Fatalf("oldest entry should have been evicted: hit=%v err=%v", res != nil && res.RunCached, err)
	}
}

// TestBudgetOption: WithBudget lowers the default instruction budget,
// and blowing it classifies as resource exhaustion, not an internal
// error — and does not trip the breaker.
func TestBudgetOption(t *testing.T) {
	s := New(WithBudget(1000)) // testSrc needs ~7k instructions
	ctx := context.Background()
	_, err := s.Predict(ctx, Request{Source: testSrc})
	if !errors.Is(err, interp.ErrBudget) || !errors.Is(err, resilience.ErrResourceExhausted) {
		t.Fatalf("err = %v, want ErrBudget classified resource-exhausted", err)
	}
	if br := breakerFor(t, s.Stats(), stageExecute); br.Failures != 0 {
		t.Fatalf("budget exhaustion tripped the breaker: %+v", br)
	}
	// An explicit per-request budget overrides the service default.
	if _, err := s.Predict(ctx, Request{Source: testSrc, Budget: 1 << 20}); err != nil {
		t.Fatalf("explicit budget did not override the default: %v", err)
	}
}

// TestPanicIsolationConcurrent hammers a panicking stage from many
// goroutines: no panic may escape, and every request must resolve to a
// typed internal error. Run with -race.
func TestPanicIsolationConcurrent(t *testing.T) {
	defer resilience.ClearFaults()
	// Breaker disabled so every request reaches the panicking stage.
	s := New(WithWorkers(4), WithBreakerPolicy(resilience.BreakerPolicy{Threshold: 0}))
	resilience.InjectFault("service."+stageExecute, resilience.Fault{Panic: "concurrent kaboom"})
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.Predict(context.Background(), Request{
				Source: fmt.Sprintf("int main() { printi(%d); return 0; }", i),
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, resilience.ErrInternal) || !resilience.IsPanic(err) {
			t.Fatalf("request %d: err = %v, want recovered panic", i, err)
		}
	}
	if st := s.Stats(); st.Panics != 16 {
		t.Fatalf("panics = %d, want 16", st.Panics)
	}
}

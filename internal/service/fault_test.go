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
// panic escapes, that the stage records the failure, and that the
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
				if got := stageFor(t, st, stage).Errors; got != 1 {
					t.Fatalf("%s stage errors = %d, want 1", stage, got)
				}

				// The fault cleared: the same request now succeeds.
				resilience.ClearFaults()
				if _, err := s.Predict(context.Background(), Request{Source: testSrc}); err != nil {
					t.Fatalf("service did not recover after fault cleared: %v", err)
				}
			})
		}
	}
}

// TestEveryStageIsolated: a panic at any of the seven stages fails
// only the call that hits it, as an internal error counted once in
// Stats().Panics (optimize runs inside compile, and is still counted
// once), and the next identical call succeeds.
func TestEveryStageIsolated(t *testing.T) {
	for _, stage := range stageOrder {
		t.Run(stage, func(t *testing.T) {
			defer resilience.ClearFaults()
			s := New()
			defer s.Close()
			req := Request{Source: testSrc, Optimize: true}
			call := func() error {
				var err error
				if stage == stageCompare {
					_, err = s.Compare(context.Background(), CompareRequest{Request: req})
				} else {
					_, err = s.Predict(context.Background(), req)
				}
				return err
			}
			resilience.InjectFault("service."+stage, resilience.Fault{Panic: "injected " + stage, Times: 1})
			if err := call(); !errors.Is(err, resilience.ErrInternal) || !resilience.IsPanic(err) {
				t.Fatalf("err = %v, want a recovered panic classified internal", err)
			}
			if got := s.Stats().Panics; got != 1 {
				t.Fatalf("panics = %d, want 1", got)
			}
			if err := call(); err != nil {
				t.Fatalf("next identical call: %v", err)
			}
		})
	}
}

// TestExpiredDeadlinesDoNotRefuseOthers: a request whose own deadline
// expires fails alone. Eight of them in a row leave every other
// request's answer unchanged: a benchmark answered before them still
// answers from the run cache, and an unseen source still computes.
func TestExpiredDeadlinesDoNotRefuseOthers(t *testing.T) {
	s := New()
	defer s.Close()
	ctx := context.Background()
	if _, err := s.Predict(ctx, Request{Benchmark: "xlisp"}); err != nil {
		t.Fatalf("priming xlisp: %v", err)
	}
	for i := 1; i <= 8; i++ {
		dctx, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
		_, err := s.Predict(dctx, Request{Source: slowSrc, Budget: 1 << 40})
		cancel()
		if !errors.Is(err, resilience.ErrTimeout) {
			t.Fatalf("call %d: err = %v, want ErrTimeout", i, err)
		}
	}
	res, err := s.Predict(ctx, Request{Benchmark: "xlisp"})
	if err != nil {
		t.Fatalf("cached xlisp after expired deadlines: %v", err)
	}
	if !res.RunCached {
		t.Fatal("cached xlisp after expired deadlines missed the run cache")
	}
	if _, err := s.Predict(ctx, Request{Source: "int main() { printi(7); return 0; }"}); err != nil {
		t.Fatalf("unseen source after expired deadlines: %v", err)
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

// TestSlowRequestsKeepWorkerBound: slow requests hold the only worker
// one after another, never together. Each runs the interpreter until its
// own deadline, 100 ms after the previous one's.
func TestSlowRequestsKeepWorkerBound(t *testing.T) {
	s := New(WithWorkers(1))
	defer s.Close()
	base := time.Now()
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithDeadline(context.Background(), base.Add(time.Duration(i+1)*100*time.Millisecond))
		defer cancel()
		go func() {
			_, err := s.Predict(ctx, Request{Source: slowSrc, Seed: int64(i), Budget: 1 << 40})
			errs <- err
		}()
		// Queue them in order, so each is admitted before its deadline.
		waitFor(t, func() bool { return s.Stats().InFlight+s.Stats().Queued == int64(i+1) })
	}
	var peak int64
	for done := 0; done < 3; {
		select {
		case err := <-errs:
			if !errors.Is(err, resilience.ErrTimeout) {
				t.Fatalf("slow request err = %v, want ErrTimeout at its deadline", err)
			}
			done++
		case <-time.After(time.Millisecond):
		}
		peak = max(peak, s.Stats().InFlight)
	}
	if peak > 1 {
		t.Fatalf("peak in-flight = %d with one worker", peak)
	}
	if st := s.Stats(); st.Shed != 0 {
		t.Fatalf("shed = %d, want every slow request to run", st.Shed)
	}
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
// error.
func TestBudgetOption(t *testing.T) {
	s := New(WithBudget(1000)) // testSrc needs ~7k instructions
	ctx := context.Background()
	_, err := s.Predict(ctx, Request{Source: testSrc})
	if !errors.Is(err, interp.ErrBudget) || !errors.Is(err, resilience.ErrResourceExhausted) {
		t.Fatalf("err = %v, want ErrBudget classified resource-exhausted", err)
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
	s := New(WithWorkers(4))
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

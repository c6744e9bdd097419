package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ballarus/internal/interp"
)

func TestTaxonomy(t *testing.T) {
	cause := errors.New("boom")
	cases := []struct {
		err  error
		kind error
	}{
		{Invalid(cause), ErrInvalidInput},
		{Exhausted(cause), ErrResourceExhausted},
		{Overloaded(cause), ErrOverload},
		{Timeout(cause), ErrTimeout},
		{Internal(cause), ErrInternal},
	}
	for _, c := range cases {
		if !errors.Is(c.err, c.kind) {
			t.Errorf("%v should match its kind %v", c.err, c.kind)
		}
		if !errors.Is(c.err, cause) {
			t.Errorf("%v lost its cause", c.err)
		}
		if got := KindOf(c.err); got != c.kind {
			t.Errorf("KindOf(%v) = %v, want %v", c.err, got, c.kind)
		}
		// Exactly one kind matches.
		n := 0
		for _, k := range kinds {
			if errors.Is(c.err, k) {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%v matches %d kinds, want 1", c.err, n)
		}
	}
	if Invalid(nil) != nil || MarkTransient(nil) != nil {
		t.Error("classifying nil must stay nil")
	}
	// Wrapping through fmt.Errorf keeps the kind reachable.
	wrapped := fmt.Errorf("stage: %w", Exhausted(interp.ErrBudget))
	if !errors.Is(wrapped, ErrResourceExhausted) || !errors.Is(wrapped, interp.ErrBudget) {
		t.Errorf("wrapped classification broken: %v", wrapped)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		kind error
	}{
		{nil, nil},
		{interp.ErrBudget, ErrResourceExhausted},
		{fmt.Errorf("x: %w", interp.ErrBudget), ErrResourceExhausted},
		{context.Canceled, ErrTimeout},
		{context.DeadlineExceeded, ErrTimeout},
		{interp.ErrInterrupted, ErrTimeout},
		{errors.New("mystery"), ErrInternal},
		{Invalid(errors.New("bad")), ErrInvalidInput}, // already classified: untouched
	}
	for _, c := range cases {
		if got := KindOf(Classify(c.err)); got != c.kind {
			t.Errorf("Classify(%v) kind = %v, want %v", c.err, got, c.kind)
		}
	}
}

func TestTrips(t *testing.T) {
	if Trips(nil) || Trips(Invalid(errors.New("x"))) || Trips(Exhausted(errors.New("x"))) ||
		Trips(Overloaded(errors.New("x"))) {
		t.Error("client errors and shed load must not trip the breaker")
	}
	if Trips(Classify(context.Canceled)) {
		t.Error("client cancellation must not trip the breaker")
	}
	if !Trips(Internal(errors.New("x"))) || !Trips(Classify(context.DeadlineExceeded)) {
		t.Error("internal errors and deadline expiry must trip the breaker")
	}
}

func TestSafely(t *testing.T) {
	if err := Safely("ok", func() error { return nil }); err != nil {
		t.Fatalf("Safely passed through err = %v", err)
	}
	sentinel := errors.New("plain")
	if err := Safely("plain", func() error { return sentinel }); err != sentinel {
		t.Fatalf("Safely must not touch ordinary errors, got %v", err)
	}
	err := Safely("boom", func() error { panic("kaboom") })
	if err == nil || !IsPanic(err) || !errors.Is(err, ErrInternal) {
		t.Fatalf("recovered panic = %v, want PanicError classified internal", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Stage != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("panic context lost: %+v", pe)
	}
}

func TestRetryTransientOnly(t *testing.T) {
	pol := RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond, Multiplier: 2}
	calls := 0
	err := pol.Do(context.Background(), func() error {
		calls++
		if calls < 3 {
			return MarkTransient(errors.New("blip"))
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("retry: err %v after %d calls, want success on 3rd", err, calls)
	}

	calls = 0
	permanent := Invalid(errors.New("bad input"))
	if err := pol.Do(context.Background(), func() error { calls++; return permanent }); !errors.Is(err, ErrInvalidInput) || calls != 1 {
		t.Fatalf("non-transient error retried: %d calls, err %v", calls, err)
	}

	calls = 0
	err = pol.Do(context.Background(), func() error { calls++; return MarkTransient(errors.New("always")) })
	if !IsTransient(err) || calls != 4 {
		t.Fatalf("exhausted retries: %d calls (want 4), err %v", calls, err)
	}
}

func TestRetryHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	pol := RetryPolicy{MaxAttempts: 100, BaseDelay: time.Hour}
	calls := 0
	done := make(chan error, 1)
	go func() {
		done <- pol.Do(ctx, func() error { calls++; return MarkTransient(errors.New("x")) })
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if calls != 1 || !IsTransient(err) {
			t.Fatalf("canceled retry: %d calls, err %v", calls, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry did not observe cancellation during backoff")
	}
}

func TestRetryBackoffCapped(t *testing.T) {
	pol := RetryPolicy{MaxAttempts: 10, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond, Multiplier: 2}
	for attempt, want := range map[int]time.Duration{1: 10 * time.Millisecond, 2: 20 * time.Millisecond, 3: 40 * time.Millisecond, 8: 40 * time.Millisecond} {
		if got := pol.backoff(attempt); got != want {
			t.Errorf("backoff(%d) = %v, want %v", attempt, got, want)
		}
	}
	jittered := RetryPolicy{MaxAttempts: 2, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond, Multiplier: 2, Jitter: 0.5}
	for i := 0; i < 100; i++ {
		d := jittered.backoff(1)
		if d < 7500*time.Microsecond || d > 12500*time.Microsecond {
			t.Fatalf("jittered backoff %v outside ±25%% of 10ms", d)
		}
	}
}

func TestBreakerLifecycle(t *testing.T) {
	b := NewBreaker("stage", BreakerPolicy{Threshold: 3, Cooldown: time.Minute})
	clock := time.Unix(0, 0)
	b.now = func() time.Time { return clock }

	fail := func() {
		done, err := b.Allow()
		if err != nil {
			t.Fatalf("closed breaker rejected: %v", err)
		}
		done(true)
	}
	// Two failures, then a success: the consecutive counter resets.
	fail()
	fail()
	done, _ := b.Allow()
	done(false)
	if st := b.Stats(); st.State != "closed" || st.Failures != 0 {
		t.Fatalf("success did not reset failures: %+v", st)
	}
	// Threshold consecutive failures open it.
	fail()
	fail()
	fail()
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after %d failures, want open", b.State(), 3)
	}
	if _, err := b.Allow(); !errors.Is(err, ErrCircuitOpen) || !errors.Is(err, ErrOverload) {
		t.Fatalf("open breaker rejection = %v, want ErrCircuitOpen+ErrOverload", err)
	}
	// Cooldown elapses: one probe allowed, concurrent probes rejected.
	clock = clock.Add(2 * time.Minute)
	probe, err := b.Allow()
	if err != nil {
		t.Fatalf("half-open probe rejected: %v", err)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	if _, err := b.Allow(); err == nil {
		t.Fatal("second concurrent probe should be rejected")
	}
	// Probe fails: back to open.
	probe(true)
	if b.State() != BreakerOpen {
		t.Fatalf("failed probe left state %v, want open", b.State())
	}
	// Next cooldown, successful probe closes it.
	clock = clock.Add(2 * time.Minute)
	probe, err = b.Allow()
	if err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
	probe(false)
	if b.State() != BreakerClosed {
		t.Fatalf("successful probe left state %v, want closed", b.State())
	}
	if st := b.Stats(); st.Opens != 2 || st.Rejected != 2 {
		t.Fatalf("stats = %+v, want 2 opens, 2 rejections", st)
	}
}

func TestBreakerDisabledAndNil(t *testing.T) {
	var nilB *Breaker
	done, err := nilB.Allow()
	if err != nil {
		t.Fatal("nil breaker must admit")
	}
	done(true)
	b := NewBreaker("off", BreakerPolicy{Threshold: 0})
	for i := 0; i < 100; i++ {
		done, err := b.Allow()
		if err != nil {
			t.Fatal("disabled breaker must admit")
		}
		done(true)
	}
	if b.State() != BreakerClosed {
		t.Fatal("disabled breaker must stay closed")
	}
}

func TestBreakerConcurrent(t *testing.T) {
	b := NewBreaker("race", BreakerPolicy{Threshold: 5, Cooldown: time.Millisecond})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				done, err := b.Allow()
				if err != nil {
					continue
				}
				done(j%3 == 0)
			}
		}(i)
	}
	wg.Wait()
	b.Stats() // must not race
}

// TestBreakerThunderingProbes: when a herd of requests arrives the
// instant a cooldown expires, exactly one becomes the half-open probe —
// no matter how it ends, and no matter how stale probes from earlier
// half-open windows settle.
func TestBreakerThunderingProbes(t *testing.T) {
	b := NewBreaker("stage", BreakerPolicy{Threshold: 1, Cooldown: time.Second, Probes: 64})
	clock := time.Unix(0, 0)
	b.now = func() time.Time { return clock }

	trip := func() {
		done, err := b.Allow()
		if err != nil {
			t.Fatalf("breaker rejected while closed: %v", err)
		}
		done(true)
	}
	herd := func() (admitted []func(bool), rejected int) {
		for i := 0; i < 16; i++ {
			done, err := b.Allow()
			if err != nil {
				if !errors.Is(err, ErrCircuitOpen) {
					t.Fatalf("herd rejection = %v, want ErrCircuitOpen", err)
				}
				rejected++
				continue
			}
			admitted = append(admitted, done)
		}
		return admitted, rejected
	}

	trip() // open
	clock = clock.Add(2 * time.Second)
	admitted, rejected := herd()
	if len(admitted) != 1 || rejected != 15 {
		t.Fatalf("post-cooldown herd admitted %d, rejected %d; want exactly 1 probe (Probes is ignored)",
			len(admitted), rejected)
	}
	staleProbe := admitted[0]

	// While the probe is in flight, even after more wall time passes,
	// nothing else gets through.
	clock = clock.Add(2 * time.Second)
	if more, _ := herd(); len(more) != 0 {
		t.Fatalf("%d extra probes admitted while one is in flight", len(more))
	}

	// The probe fails: back to open, herd fully rejected.
	staleProbe(true)
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after failed probe, want open", b.State())
	}
	if more, _ := herd(); len(more) != 0 {
		t.Fatal("open breaker admitted requests")
	}

	// Next cooldown: again one probe. A stale settle of the previous
	// window's probe must not free this window's slot.
	clock = clock.Add(2 * time.Second)
	admitted, _ = herd()
	if len(admitted) != 1 {
		t.Fatalf("second window admitted %d probes, want 1", len(admitted))
	}
	staleProbe(false) // stale: from the first half-open window
	if b.State() != BreakerHalfOpen {
		t.Fatalf("stale probe settle moved state to %v", b.State())
	}
	if more, _ := herd(); len(more) != 0 {
		t.Fatal("stale probe settle released the in-flight probe slot")
	}

	// The real probe succeeds: closed, and traffic flows again.
	admitted[0](false)
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v after successful probe, want closed", b.State())
	}
	done, err := b.Allow()
	if err != nil {
		t.Fatalf("closed breaker rejected: %v", err)
	}
	done(false)
}

func TestFaultpoint(t *testing.T) {
	defer ClearFaults()
	ctx := context.Background()

	// Unarmed: free no-op.
	if err := Faultpoint(ctx, "nothing"); err != nil {
		t.Fatalf("unarmed faultpoint returned %v", err)
	}

	boom := errors.New("injected")
	InjectFault("p.err", Fault{Err: boom, Times: 2})
	if err := Faultpoint(ctx, "p.err"); err != boom {
		t.Fatalf("fire 1 = %v", err)
	}
	if err := Faultpoint(ctx, "other"); err != nil {
		t.Fatalf("unrelated faultpoint fired: %v", err)
	}
	if err := Faultpoint(ctx, "p.err"); err != boom {
		t.Fatalf("fire 2 = %v", err)
	}
	if err := Faultpoint(ctx, "p.err"); err != nil {
		t.Fatalf("Times=2 fault fired a third time: %v", err)
	}

	InjectFault("p.panic", Fault{Panic: "kapow"})
	err := Safely("p", func() error { return Faultpoint(ctx, "p.panic") })
	if !IsPanic(err) {
		t.Fatalf("injected panic not recovered: %v", err)
	}

	InjectFault("p.hang", Fault{Hang: true})
	hctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := Faultpoint(hctx, "p.hang"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hang returned %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("hang did not respect the context deadline")
	}

	ClearFaults()
	if err := Faultpoint(ctx, "p.panic"); err != nil {
		t.Fatalf("cleared faultpoint still armed: %v", err)
	}
}

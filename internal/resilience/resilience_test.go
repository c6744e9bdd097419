package resilience

import (
	"context"
	"errors"
	"fmt"
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
	if Invalid(nil) != nil {
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
		{&interp.Fault{Proc: "main", Msg: "division by zero"}, ErrInvalidInput},
		{fmt.Errorf("x: %w", &interp.Fault{Proc: "main"}), ErrInvalidInput},
		{errors.New("mystery"), ErrInternal},
		{Invalid(errors.New("bad")), ErrInvalidInput}, // already classified: untouched
	}
	for _, c := range cases {
		if got := KindOf(Classify(c.err)); got != c.kind {
			t.Errorf("Classify(%v) kind = %v, want %v", c.err, got, c.kind)
		}
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

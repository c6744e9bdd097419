package resilience

import (
	"errors"
	"fmt"
	"testing"
)

func TestQuotaRefinesOverload(t *testing.T) {
	cause := errors.New("tenant acme over rate limit")
	err := Quota(cause)
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Error("Quota error must match ErrQuotaExceeded")
	}
	if !errors.Is(err, ErrOverload) {
		t.Error("Quota error must also match ErrOverload — it is a refinement, not a sibling")
	}
	if !errors.Is(err, cause) {
		t.Error("Quota error lost its cause")
	}
	// The taxonomy contract: KindOf reports the base kind, so existing
	// overload handling (HTTP 429 mapping, shed accounting) is untouched.
	if got := KindOf(err); got != ErrOverload {
		t.Errorf("KindOf(Quota(...)) = %v, want ErrOverload", got)
	}
	// A plain overload is NOT a quota rejection.
	if errors.Is(Overloaded(cause), ErrQuotaExceeded) {
		t.Error("plain Overloaded must not match ErrQuotaExceeded")
	}
	if Quota(nil) != nil {
		t.Error("Quota(nil) must stay nil")
	}
}

// TestQuotaDoesNotTripOrRetry: a quota rejection keeps its refined kind
// through classification and wrapping, so callers (the HTTP 429
// mapping, the gateway's no-replay rule) can still tell it apart.
func TestQuotaDoesNotTripOrRetry(t *testing.T) {
	err := Quota(errors.New("over limit"))
	// Classify passes already-kinded errors through unchanged.
	if got := Classify(err); got != err {
		t.Errorf("Classify must pass quota errors through, got %v", got)
	}
	// Survives fmt.Errorf wrapping like the rest of the taxonomy.
	wrapped := fmt.Errorf("admit: %w", err)
	if !errors.Is(wrapped, ErrQuotaExceeded) || !errors.Is(wrapped, ErrOverload) {
		t.Errorf("wrapped quota classification broken: %v", wrapped)
	}
}

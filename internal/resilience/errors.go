// Package resilience is the fault-isolation layer of the prediction
// pipeline: a typed error taxonomy that classifies every failure into
// one of five client-meaningful kinds, panic isolation that converts
// escaped panics into errors with captured stacks, and a deterministic
// fault-injection hook used by the test matrix.
//
// Every pipeline stage is a pure function of its input, so a stage
// fails because of its request, never because a shared dependency is
// down. The package therefore holds no retry loop and no circuit
// breaker: a failure belongs to the request that caused it, and load
// is shed only by admission control (queue depth, tenant quotas).
//
// The taxonomy is the contract between the pipeline and its callers:
// every error leaving internal/service satisfies errors.Is against
// exactly one of ErrInvalidInput, ErrResourceExhausted, ErrOverload,
// ErrTimeout, or ErrInternal, while the original cause chain (e.g.
// interp.ErrBudget, context.DeadlineExceeded) stays reachable through
// errors.Is/errors.As as usual.
package resilience

import (
	"context"
	"errors"

	"ballarus/internal/interp"
)

// The five error kinds. Every classified error matches exactly one.
var (
	// ErrInvalidInput marks failures caused by the request itself:
	// malformed source, unknown benchmarks, programs that fault at
	// runtime. Retrying cannot help; the client must change the request.
	ErrInvalidInput = errors.New("invalid input")
	// ErrResourceExhausted marks requests that exceeded a per-request
	// resource cap, most prominently the interpreter instruction budget
	// (interp.ErrBudget). The request is well-formed but too expensive.
	ErrResourceExhausted = errors.New("resource exhausted")
	// ErrOverload marks load shedding: the queue is full, or a tenant
	// is over its quota or its fair share. The request was rejected
	// without being attempted and may succeed if retried later.
	ErrOverload = errors.New("overloaded")
	// ErrQuotaExceeded refines ErrOverload: the request was rejected
	// because its tenant is over a per-tenant quota, not because the
	// service as a whole is saturated. Errors built with Quota match
	// both ErrQuotaExceeded and ErrOverload under errors.Is, so generic
	// overload handling still applies, but quota-aware callers (the
	// gateway, clients honoring Retry-After) can tell "this tenant must
	// back off" from "everyone must back off". Quota rejections are
	// deterministic for the offending tenant — retrying immediately only
	// amplifies the overage — so hedge/retry layers must not replay them.
	ErrQuotaExceeded = errors.New("quota exceeded")
	// ErrTimeout marks deadline expiry and cancellation: the context's
	// deadline passed, the client went away, or the interpreter was
	// interrupted mid-run.
	ErrTimeout = errors.New("timed out")
	// ErrInternal marks everything else — bugs, escaped panics, injected
	// faults. These are the service's fault, never the client's.
	ErrInternal = errors.New("internal error")
)

// kinds in classification priority order.
var kinds = []error{ErrInvalidInput, ErrResourceExhausted, ErrOverload, ErrTimeout, ErrInternal}

// classified attaches a kind to a cause. errors.Is matches the kind
// directly and anything in the cause chain via Unwrap.
type classified struct {
	kind  error
	cause error
}

func (e *classified) Error() string        { return e.kind.Error() + ": " + e.cause.Error() }
func (e *classified) Unwrap() error        { return e.cause }
func (e *classified) Is(target error) bool { return target == e.kind }

func as(kind, cause error) error {
	if cause == nil {
		return nil
	}
	return &classified{kind: kind, cause: cause}
}

// Invalid classifies err as ErrInvalidInput. Nil stays nil.
func Invalid(err error) error { return as(ErrInvalidInput, err) }

// Exhausted classifies err as ErrResourceExhausted. Nil stays nil.
func Exhausted(err error) error { return as(ErrResourceExhausted, err) }

// Overloaded classifies err as ErrOverload. Nil stays nil.
func Overloaded(err error) error { return as(ErrOverload, err) }

// quota classifies a cause as a per-tenant quota rejection. It is a
// refinement of ErrOverload: errors.Is matches both ErrQuotaExceeded
// and ErrOverload, and KindOf still reports ErrOverload so the
// taxonomy's "exactly one kind" contract holds.
type quota struct{ cause error }

func (e *quota) Error() string { return "quota exceeded: " + e.cause.Error() }
func (e *quota) Unwrap() error { return e.cause }
func (e *quota) Is(target error) bool {
	return target == ErrQuotaExceeded || target == ErrOverload
}

// Quota classifies err as a per-tenant quota rejection: the result
// matches both ErrQuotaExceeded and ErrOverload. Nil stays nil.
func Quota(err error) error {
	if err == nil {
		return nil
	}
	return &quota{cause: err}
}

// Timeout classifies err as ErrTimeout. Nil stays nil.
func Timeout(err error) error { return as(ErrTimeout, err) }

// Internal classifies err as ErrInternal. Nil stays nil.
func Internal(err error) error { return as(ErrInternal, err) }

// KindOf returns the kind sentinel err is classified as, or nil if err
// is nil or unclassified.
func KindOf(err error) error {
	if err == nil {
		return nil
	}
	for _, k := range kinds {
		if errors.Is(err, k) {
			return k
		}
	}
	return nil
}

// Classify assigns a kind to err. Already-classified errors pass
// through unchanged; known causes map to their kind (a program's
// runtime *interp.Fault → ErrInvalidInput; interp.ErrBudget →
// ErrResourceExhausted; context cancellation, deadline expiry, and
// interp.ErrInterrupted → ErrTimeout); anything else is ErrInternal.
// Nil stays nil.
func Classify(err error) error {
	switch {
	case err == nil:
		return nil
	case KindOf(err) != nil:
		return err
	case errors.As(err, new(*interp.Fault)):
		return Invalid(err)
	case errors.Is(err, interp.ErrBudget):
		return Exhausted(err)
	case errors.Is(err, context.Canceled),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, interp.ErrInterrupted):
		return Timeout(err)
	default:
		return Internal(err)
	}
}

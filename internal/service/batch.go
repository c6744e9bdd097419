package service

import (
	"context"
	"errors"
	"sync"
	"time"

	"ballarus/internal/resilience"
	"ballarus/internal/tenant"
)

// BatchItem is one element of a batch: exactly one of Predict or
// Compare must be set.
type BatchItem struct {
	Predict *Request
	Compare *CompareRequest
}

// BatchItemResult is one element's outcome. Exactly one of Predict,
// Compare, or Err is set; Err carries the item's classified error
// (the resilience taxonomy holds per item).
type BatchItemResult struct {
	Predict *Result
	Compare *CompareResult
	Err     error
}

// BatchOutcome summarizes a whole batch alongside its per-item
// results.
type BatchOutcome struct {
	Items     []BatchItemResult
	Succeeded int
	Failed    int
	Elapsed   time.Duration
}

// Batch runs N predict/compare items as one admission unit. With
// tenancy enabled, the whole batch is charged against the tenant's
// rate quota and in-flight cap up front — all N tokens or none, so a
// burst of single requests and one N-item batch cost a tenant the
// same — and a quota rejection fails the batch as a unit with an
// ErrQuotaExceeded-classified error before any work starts.
//
// Past admission the semantics are per-item, never all-or-nothing: a
// malformed or failing item yields its own classified error in the
// matching BatchItemResult slot while the rest proceed. Items fan
// through the same single-flight caches as single requests (duplicate
// items in one batch share one computation), bounded by the worker
// pool. Batch never returns an error together with a non-nil outcome.
func (s *Service) Batch(ctx context.Context, items []BatchItem) (*BatchOutcome, error) {
	start := time.Now()
	if len(items) == 0 {
		return nil, resilience.Invalid(errors.New("service: empty batch"))
	}
	if s.cfg.tenants != nil {
		rel, err := s.charge(tenant.FromContext(ctx), len(items))
		if err != nil {
			s.met.shed.Add(1)
			return nil, err
		}
		defer rel()
		ctx = context.WithValue(ctx, preadmitKey{}, true)
	}

	// Fan bounded by the worker pool: spawning more would only stack
	// the excess in the admission queue against our own items (and,
	// under load, trip the fairness gate on ourselves).
	par := min(len(items), s.cfg.workers)
	out := &BatchOutcome{Items: make([]BatchItemResult, len(items))}
	var wg sync.WaitGroup
	slots := make(chan struct{}, par)
	for i := range items {
		slots <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-slots }()
			out.Items[i] = s.batchItem(ctx, items[i])
		}(i)
	}
	wg.Wait()
	for i := range out.Items {
		if out.Items[i].Err != nil {
			out.Failed++
		} else {
			out.Succeeded++
		}
	}
	out.Elapsed = time.Since(start)
	return out, nil
}

// batchItem dispatches one item, classifying shape errors per item.
func (s *Service) batchItem(ctx context.Context, it BatchItem) BatchItemResult {
	switch {
	case it.Predict != nil && it.Compare != nil:
		return BatchItemResult{Err: resilience.Invalid(errors.New("service: batch item sets both predict and compare"))}
	case it.Predict != nil:
		res, err := s.Predict(ctx, *it.Predict)
		return BatchItemResult{Predict: res, Err: err}
	case it.Compare != nil:
		res, err := s.Compare(ctx, *it.Compare)
		return BatchItemResult{Compare: res, Err: err}
	default:
		return BatchItemResult{Err: resilience.Invalid(errors.New("service: batch item sets neither predict nor compare"))}
	}
}

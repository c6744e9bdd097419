package service

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"ballarus/internal/obs"
	"ballarus/internal/resilience"
	"ballarus/internal/tenant"
)

// tenantInFlight scrapes the tenant's ballarus_tenant_inflight gauge.
func tenantInFlight(t *testing.T, s *Service, id string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp, err := obs.ParseExposition(&buf)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := exp.Value("ballarus_tenant_inflight", map[string]string{"tenant": id})
	if !ok {
		t.Fatalf("no ballarus_tenant_inflight series for tenant %q", id)
	}
	return v
}

func TestQuotaRejectionDistinctFromOverload(t *testing.T) {
	reg := tenant.NewRegistry(tenant.Config{
		Overrides: map[string]tenant.Limits{"metered": {Rate: 1, Burst: 1}},
	})
	s := New(WithTenants(reg))
	ctx := tenant.WithID(context.Background(), "metered")

	if _, err := s.Predict(ctx, Request{Source: testSrc}); err != nil {
		t.Fatalf("first request within burst failed: %v", err)
	}
	_, err := s.Predict(ctx, Request{Source: testSrc})
	if err == nil {
		t.Fatal("second immediate request should exceed the 1-token bucket")
	}
	if !errors.Is(err, resilience.ErrQuotaExceeded) {
		t.Errorf("quota rejection must match ErrQuotaExceeded: %v", err)
	}
	if !errors.Is(err, resilience.ErrOverload) {
		t.Errorf("quota rejection must still classify as ErrOverload: %v", err)
	}
	var qerr *tenant.QuotaError
	if !errors.As(err, &qerr) {
		t.Fatalf("quota rejection must carry *tenant.QuotaError: %v", err)
	}
	if qerr.Reason != "rate" || qerr.Tenant != "metered" || qerr.RetryAfter <= 0 {
		t.Errorf("QuotaError = %+v, want rate/metered with positive RetryAfter", qerr)
	}
	// The default tenant is unmetered: same service, no rejection.
	if _, err := s.Predict(context.Background(), Request{Source: testSrc}); err != nil {
		t.Fatalf("unmetered default tenant rejected: %v", err)
	}
}

// TestFairnessShedsHogNotPolite saturates a 1-worker service with one
// hog tenant — a hang holds the worker, the hog fills the queue past
// its depth — and asserts the fairness invariant directly: the hog's
// next request is shed as plain overload (not quota), a polite tenant
// still queues through the saturated gate, and once the wedge clears
// every queued request (the polite one included) completes.
func TestFairnessShedsHogNotPolite(t *testing.T) {
	defer resilience.ClearFaults()
	reg := tenant.NewRegistry(tenant.Config{})
	s := New(WithWorkers(1), WithQueueDepth(4), WithTenants(reg))
	hogCtx, cancelHog := context.WithCancel(tenant.WithID(context.Background(), "hog"))
	defer cancelHog()

	// One shot only: the hog's first request hangs in execute until its
	// context is canceled; everything admitted later runs normally.
	resilience.InjectFault("service.execute", resilience.Fault{Hang: true, Times: 1})

	var wg sync.WaitGroup
	launch := func(ctx context.Context, errs chan<- error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Predict(ctx, Request{Source: testSrc})
			errs <- err
		}()
	}

	hogErrs := make(chan error, 8)
	launch(hogCtx, hogErrs) // takes the worker slot and wedges
	waitFor(t, func() bool { return s.met.inFlight.Value() == 1 })

	// Fill the queue to depth, plus the one-slot fairness grace.
	queuedCtx := tenant.WithID(context.Background(), "hog")
	for i := 0; i < 5; i++ {
		launch(queuedCtx, hogErrs)
		want := int64(i + 1)
		waitFor(t, func() bool { return s.met.queued.Value() == want })
	}

	// The hog is now far over its fair share: shed, as overload, not quota.
	_, err := s.Predict(queuedCtx, Request{Source: testSrc})
	if err == nil {
		t.Fatal("over-share hog request should be shed")
	}
	if !errors.Is(err, resilience.ErrOverload) || !errors.Is(err, ErrBusy) {
		t.Errorf("fairness shed must classify as overload ErrBusy: %v", err)
	}
	if errors.Is(err, resilience.ErrQuotaExceeded) {
		t.Errorf("fairness shed must not masquerade as a quota rejection: %v", err)
	}

	// An under-share tenant queues straight through the saturated gate.
	politeErrs := make(chan error, 1)
	launch(tenant.WithID(context.Background(), "polite"), politeErrs)
	waitFor(t, func() bool { return s.met.queued.Value() == 6 })
	select {
	case err := <-politeErrs:
		t.Fatalf("polite request rejected under saturation: %v", err)
	default:
	}

	// Unwedge: the hang returns, the queue drains, and every survivor —
	// five hog requests and the polite one — completes.
	cancelHog()
	if err := <-politeErrs; err != nil {
		t.Errorf("polite request failed after drain: %v", err)
	}
	var hogOK, hogErr int
	for i := 0; i < 6; i++ {
		if err := <-hogErrs; err != nil {
			hogErr++
		} else {
			hogOK++
		}
	}
	// The wedged request fails (its context was canceled); the five
	// queued ones complete.
	if hogOK != 5 || hogErr != 1 {
		t.Errorf("hog outcomes = %d ok / %d err, want 5/1", hogOK, hogErr)
	}
	wg.Wait()
	if got := tenantInFlight(t, s, "hog"); got != 0 {
		t.Errorf("hog leaked %v in-flight units", got)
	}
	if got := tenantInFlight(t, s, "polite"); got != 0 {
		t.Errorf("polite leaked %v in-flight units", got)
	}
}

func TestBatchPartialFailure(t *testing.T) {
	s := New()
	out, err := s.Batch(context.Background(), []BatchItem{
		{Predict: &Request{Source: testSrc}},
		{Predict: &Request{}}, // invalid: neither source nor benchmark
		{Compare: &CompareRequest{Request: Request{Source: testSrc}}},
		{}, // invalid: empty item
	})
	if err != nil {
		t.Fatalf("batch with bad items must not fail as a whole: %v", err)
	}
	if out.Succeeded != 2 || out.Failed != 2 {
		t.Fatalf("outcome = %d ok / %d failed, want 2/2", out.Succeeded, out.Failed)
	}
	if out.Items[0].Predict == nil || out.Items[0].Err != nil {
		t.Errorf("item 0 should carry a predict result: %+v", out.Items[0])
	}
	if !errors.Is(out.Items[1].Err, resilience.ErrInvalidInput) {
		t.Errorf("item 1 error = %v, want invalid input", out.Items[1].Err)
	}
	if out.Items[2].Compare == nil || out.Items[2].Err != nil {
		t.Errorf("item 2 should carry a compare result: %+v", out.Items[2])
	}
	if !errors.Is(out.Items[3].Err, resilience.ErrInvalidInput) {
		t.Errorf("item 3 error = %v, want invalid input", out.Items[3].Err)
	}
	if _, err := s.Batch(context.Background(), nil); !errors.Is(err, resilience.ErrInvalidInput) {
		t.Errorf("empty batch = %v, want invalid input", err)
	}
}

func TestBatchQuotaAccounting(t *testing.T) {
	reg := tenant.NewRegistry(tenant.Config{
		Overrides: map[string]tenant.Limits{"metered": {Rate: 1, Burst: 5}},
	})
	s := New(WithTenants(reg))
	ctx := tenant.WithID(context.Background(), "metered")

	// A batch over the bucket fails as a unit, before any work.
	over := make([]BatchItem, 6)
	for i := range over {
		over[i] = BatchItem{Predict: &Request{Source: testSrc}}
	}
	_, err := s.Batch(ctx, over)
	if !errors.Is(err, resilience.ErrQuotaExceeded) {
		t.Fatalf("6-item batch against a 5-token bucket = %v, want quota rejection", err)
	}

	// A batch exactly at the bucket is admitted as a unit, and the
	// per-item calls must not double-charge: every item succeeds.
	fit := over[:5]
	out, err := s.Batch(ctx, fit)
	if err != nil {
		t.Fatalf("5-item batch rejected: %v", err)
	}
	if out.Succeeded != 5 || out.Failed != 0 {
		t.Fatalf("outcome = %d ok / %d failed, want 5/0 (double-charged items would be quota-shed)", out.Succeeded, out.Failed)
	}

	// The batch spent the whole bucket: a single follow-up is rejected.
	if _, err := s.Predict(ctx, Request{Source: testSrc}); !errors.Is(err, resilience.ErrQuotaExceeded) {
		t.Errorf("post-batch request = %v, want quota rejection (batch must have charged 5 tokens)", err)
	}
	if got := tenantInFlight(t, s, "metered"); got != 0 {
		t.Errorf("batch leaked %v in-flight units", got)
	}
}

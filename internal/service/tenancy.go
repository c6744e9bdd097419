package service

import (
	"context"
	"fmt"

	"ballarus/internal/resilience"
	"ballarus/internal/tenant"
)

// WithTenants enables multi-tenant admission: requests are attributed
// to the tenant carried by their context (tenant.FromContext), charged
// against that tenant's token-bucket rate and concurrency quotas in r,
// and — when the queue saturates — shed by weighted max-min fairness
// (the tenants furthest over their fair share of worker slots first,
// never the under-share ones) instead of strict arrival order.
//
// Quota rejections classify as resilience.ErrQuotaExceeded (a
// refinement of ErrOverload, carrying a *tenant.QuotaError for the
// HTTP edge's Retry-After / X-RateLimit-* headers); fairness sheds
// stay plain ErrOverload, exactly like the global queue-depth sheds
// they replace. nil disables tenancy.
func WithTenants(r *tenant.Registry) Option { return func(c *config) { c.tenants = r } }

// preadmitKey marks a context whose tenant rate tokens and in-flight
// units were already charged by a batch admission; per-item calls
// under it still take worker slots and answer to fairness, but must
// not double-charge the quota.
type preadmitKey struct{}

func preadmitted(ctx context.Context) bool {
	ok, _ := ctx.Value(preadmitKey{}).(bool)
	return ok
}

// charge takes n units of tenant id's rate and concurrency quotas: one
// for a request, n for a batch of n. It returns the release of the
// in-flight units, or a quota rejection.
func (s *Service) charge(id string, n int) (func(), error) {
	rel, qerr := s.cfg.tenants.Admit(id, n)
	if qerr != nil {
		s.met.tenantShed(id, qerr.Reason)
		return nil, resilience.Quota(qerr)
	}
	s.met.tenantInflight(id, int64(n))
	return func() {
		s.met.tenantInflight(id, -int64(n))
		rel()
	}, nil
}

// fairShed decides whether a request that found the queue saturated
// should be shed. Without tenancy every such request is shed (the
// original WithQueueDepth behavior). With tenancy, only tenants over
// their weighted max-min fair share of total capacity (worker slots
// plus queue) are shed; under-share tenants may keep queueing up to a
// hard cap of twice the configured depth, which bounds memory while
// the fairness gate drains the hogs.
func (s *Service) fairShed(id string, queued int64) bool {
	reg := s.cfg.tenants
	if reg == nil || queued > 2*int64(s.cfg.queueDepth) {
		return true
	}
	return reg.OverShare(id, s.cfg.workers+s.cfg.queueDepth)
}

// shedError builds the overload error for a fairness or queue-depth
// shed and records its per-tenant accounting.
func (s *Service) shedError(id string) error {
	if s.cfg.tenants != nil {
		s.met.tenantShed(id, "fairness")
		return resilience.Overloaded(fmt.Errorf("%w: tenant %q over fair share with queue depth %d exceeded", ErrBusy, id, s.cfg.queueDepth))
	}
	return resilience.Overloaded(fmt.Errorf("%w: queue depth %d exceeded", ErrBusy, s.cfg.queueDepth))
}

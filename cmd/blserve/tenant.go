package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"ballarus/internal/tenant"
)

// withTenant attaches the request's tenant identity (the X-Tenant-Id
// header) to the context so the service's per-tenant quotas and
// fairness accounting see it. Requests without the header belong to
// the default tenant; oversized identities are rejected at the edge
// before they can become metric labels or registry keys.
func (s *server) withTenant(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if id := r.Header.Get("X-Tenant-Id"); id != "" {
			if len(id) > tenant.MaxIDLen {
				httpError(w, http.StatusBadRequest, "invalid_input",
					fmt.Errorf("X-Tenant-Id longer than %d bytes", tenant.MaxIDLen))
				return
			}
			r = r.WithContext(tenant.WithID(r.Context(), id))
		}
		next.ServeHTTP(w, r)
	})
}

// setQuotaHeaders stamps the per-tenant rate-limit headers on a quota
// rejection and reports whether err was one. X-RateLimit-Limit is the
// gateway's discriminator between a per-tenant quota 429 (terminal —
// retrying or hedging it only amplifies a deterministic rejection) and
// a global-overload 429 (retryable), so it is set here and nowhere
// else.
func setQuotaHeaders(w http.ResponseWriter, err error) bool {
	var qe *tenant.QuotaError
	if !errors.As(err, &qe) {
		return false
	}
	secs := int(math.Ceil(qe.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	h := w.Header()
	h.Set("Retry-After", strconv.Itoa(secs))
	h.Set("X-RateLimit-Limit", strconv.Itoa(qe.Limit))
	h.Set("X-RateLimit-Remaining", strconv.Itoa(qe.Remaining))
	h.Set("X-RateLimit-Reset", strconv.Itoa(secs))
	return true
}

// parseTenantQuota parses one -tenant-quota override of the form
//
//	id=rate[,burst[,inflight[,weight]]]
//
// e.g. "hog=2", "gold=200,400,0,3". Omitted fields take the tenant
// defaults (burst = max(rate,1), inflight unlimited, weight 1).
func parseTenantQuota(v string) (string, tenant.Limits, error) {
	bad := func(why string) (string, tenant.Limits, error) {
		return "", tenant.Limits{}, fmt.Errorf(
			"bad -tenant-quota %q: %s (want id=rate[,burst[,inflight[,weight]]])", v, why)
	}
	id, spec, ok := strings.Cut(v, "=")
	id = strings.TrimSpace(id)
	if !ok || id == "" {
		return bad("missing tenant id")
	}
	if len(id) > tenant.MaxIDLen {
		return bad(fmt.Sprintf("id longer than %d bytes", tenant.MaxIDLen))
	}
	parts := strings.Split(spec, ",")
	if len(parts) > 4 {
		return bad("more than four fields")
	}
	var lim tenant.Limits
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		f, err := strconv.ParseFloat(p, 64)
		if err != nil || f < 0 {
			return bad(fmt.Sprintf("field %d is not a non-negative number", i+1))
		}
		switch i {
		case 0:
			lim.Rate = f
		case 1:
			lim.Burst = f
		case 2:
			lim.MaxInFlight = int(f)
		case 3:
			lim.Weight = f
		}
	}
	return id, lim, nil
}

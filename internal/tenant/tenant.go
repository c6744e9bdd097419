// Package tenant is the multi-tenant isolation layer of the prediction
// service: per-tenant token-bucket rate quotas, per-tenant in-flight
// (concurrency) caps, and weighted max-min fair shares of the worker
// pool, all behind one LRU-bounded registry so an open-world tenant
// population cannot grow state without bound.
//
// Tenants are identified by the X-Tenant-Id header at the HTTP edge;
// requests without one belong to DefaultID. The identity travels
// through the pipeline in the context (WithID/FromContext) rather than
// in request structs, so content-addressed cache keys and the durable
// journal format are unchanged by tenancy.
//
// Two distinct rejection modes come out of this package, and keeping
// them distinct is the point:
//
//   - Quota rejections (Registry.Admit) mean THIS tenant is over its
//     configured rate or concurrency limit. They carry a *QuotaError
//     with Retry-After and X-RateLimit-* material and classify as
//     resilience.ErrQuotaExceeded (a refinement of ErrOverload).
//     They are deterministic for the tenant; retrying amplifies.
//
//   - Fairness sheds (Registry.OverShare consulted by the service when
//     its queue saturates) mean the service as a whole is out of
//     capacity and this tenant is holding more than its weighted
//     max-min fair share of it. They classify as plain ErrOverload:
//     backing off briefly may well succeed.
package tenant

import (
	"container/list"
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// DefaultID is the tenant requests belong to when no X-Tenant-Id
// header is present.
const DefaultID = "default"

// MaxIDLen bounds tenant identifiers; longer IDs are rejected at the
// edge so hostile clients cannot bloat label values or LRU keys.
const MaxIDLen = 128

type ctxKey struct{}

// WithID returns a context carrying the tenant identity.
func WithID(ctx context.Context, id string) context.Context {
	if id == "" {
		id = DefaultID
	}
	return context.WithValue(ctx, ctxKey{}, id)
}

// FromContext returns the tenant identity carried by ctx, or DefaultID
// when none was attached.
func FromContext(ctx context.Context) string {
	if id, ok := ctx.Value(ctxKey{}).(string); ok && id != "" {
		return id
	}
	return DefaultID
}

// Limits is one tenant's quota configuration. Zero or negative values
// mean "unlimited" for Rate/MaxInFlight and "default" for Burst/Weight
// (Burst defaults to max(Rate, 1); Weight defaults to 1).
type Limits struct {
	// Rate is the sustained admission rate in requests per second
	// replenished into the tenant's token bucket.
	Rate float64
	// Burst is the bucket capacity: how far above the sustained rate a
	// tenant may burst before rejections start.
	Burst float64
	// MaxInFlight caps the tenant's concurrently admitted requests.
	MaxInFlight int
	// Weight scales the tenant's max-min fair share of worker slots
	// under saturation. A weight-2 tenant is entitled to twice the
	// share of a weight-1 tenant.
	Weight float64
}

func (l Limits) withDefaults() Limits {
	if l.Burst <= 0 {
		l.Burst = math.Max(l.Rate, 1)
	}
	if l.Weight <= 0 {
		l.Weight = 1
	}
	return l
}

// Config configures a Registry.
type Config struct {
	// Defaults applies to every tenant without an override.
	Defaults Limits
	// Overrides maps tenant IDs to their specific limits.
	Overrides map[string]Limits
	// MaxTenants bounds the registry's per-tenant state (LRU evicted).
	// Zero means 1024. Tenants with explicit overrides are never
	// evicted.
	MaxTenants int
	// Now is the clock, injectable for deterministic tests. Nil means
	// time.Now.
	Now func() time.Time
}

// QuotaError reports a per-tenant quota rejection with the material an
// HTTP edge needs for Retry-After and X-RateLimit-* headers. Wrap it
// with resilience.Quota before returning it from a pipeline.
type QuotaError struct {
	Tenant string
	// Reason is "rate" or "concurrency".
	Reason string
	// RetryAfter is how long until the bucket holds enough tokens for
	// one request (zero for concurrency rejections — retry when an
	// in-flight request finishes).
	RetryAfter time.Duration
	// Limit and Remaining describe the exceeded limit: the sustained
	// rate (requests/s, rounded) or the in-flight cap, and how much of
	// it is currently unused.
	Limit     int
	Remaining int
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("tenant %q over %s quota (limit %d)", e.Tenant, e.Reason, e.Limit)
}

// state is one tenant's live accounting. Guarded by Registry.mu.
type state struct {
	id       string
	limits   Limits
	pinned   bool // has an explicit override; never LRU-evicted
	tokens   float64
	last     time.Time
	inflight int
	elem     *list.Element
}

// Registry tracks per-tenant quota and occupancy state, LRU-bounded.
type Registry struct {
	mu      sync.Mutex
	cfg     Config
	now     func() time.Time
	tenants map[string]*state
	lru     *list.List // front = most recently used; pinned states excluded
	max     int
}

// NewRegistry builds a Registry from cfg.
func NewRegistry(cfg Config) *Registry {
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	max := cfg.MaxTenants
	if max <= 0 {
		max = 1024
	}
	return &Registry{
		cfg:     cfg,
		now:     now,
		tenants: make(map[string]*state),
		lru:     list.New(),
		max:     max,
	}
}

// get returns (creating if needed) the tenant's state and refreshes
// its LRU position. Caller holds r.mu.
func (r *Registry) get(id string) *state {
	if s, ok := r.tenants[id]; ok {
		if s.elem != nil {
			r.lru.MoveToFront(s.elem)
		}
		return s
	}
	lim, pinned := r.cfg.Overrides[id]
	if !pinned {
		lim = r.cfg.Defaults
	}
	lim = lim.withDefaults()
	s := &state{id: id, limits: lim, pinned: pinned, tokens: lim.Burst, last: r.now()}
	r.tenants[id] = s
	if !pinned {
		s.elem = r.lru.PushFront(s)
		// Evict the coldest unpinned idle tenant over the bound. A
		// tenant with requests in flight keeps its state — evicting it
		// would leak its in-flight accounting.
		for len(r.tenants) > r.max {
			victim := r.coldestIdle()
			if victim == nil {
				break
			}
			r.lru.Remove(victim.elem)
			delete(r.tenants, victim.id)
		}
	}
	return s
}

func (r *Registry) coldestIdle() *state {
	for e := r.lru.Back(); e != nil; e = e.Prev() {
		if s := e.Value.(*state); s.inflight == 0 {
			return s
		}
	}
	return nil
}

// refill advances the tenant's token bucket to now. Caller holds r.mu.
func (s *state) refill(now time.Time) {
	if s.limits.Rate <= 0 {
		return
	}
	if dt := now.Sub(s.last).Seconds(); dt > 0 {
		s.tokens = math.Min(s.limits.Burst, s.tokens+dt*s.limits.Rate)
	}
	s.last = now
}

// Admit charges n request tokens against the tenant's rate quota and
// takes n units of its in-flight cap. On success it returns a release
// function that MUST be called exactly once when the work completes
// (it returns the in-flight units, not the rate tokens — those are
// spent). On rejection it returns a *QuotaError and a nil release.
//
// Batches are admitted as a unit: all n tokens and slots or none.
func (r *Registry) Admit(id string, n int) (release func(), err *QuotaError) {
	if n <= 0 {
		n = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.get(id)
	now := r.now()
	s.refill(now)

	if s.limits.MaxInFlight > 0 && s.inflight+n > s.limits.MaxInFlight {
		return nil, &QuotaError{
			Tenant:    id,
			Reason:    "concurrency",
			Limit:     s.limits.MaxInFlight,
			Remaining: max(0, s.limits.MaxInFlight-s.inflight),
		}
	}
	if s.limits.Rate > 0 && s.tokens < float64(n) {
		need := float64(n) - s.tokens
		return nil, &QuotaError{
			Tenant:     id,
			Reason:     "rate",
			RetryAfter: time.Duration(math.Ceil(need/s.limits.Rate)) * time.Second,
			Limit:      int(math.Round(s.limits.Rate)),
			Remaining:  int(s.tokens),
		}
	}
	if s.limits.Rate > 0 {
		s.tokens -= float64(n)
	}
	s.inflight += n

	var once sync.Once
	return func() {
		once.Do(func() {
			r.mu.Lock()
			defer r.mu.Unlock()
			if cur, ok := r.tenants[id]; ok {
				cur.inflight -= n
				if cur.inflight < 0 {
					cur.inflight = 0
				}
			}
		})
	}, nil
}

// OverShare reports whether the tenant currently occupies more than
// its weighted max-min fair share of capacity slots, considering every
// tenant with work in flight. Under saturation the service sheds
// over-share tenants and spares under-share ones — that is the
// fairness invariant.
//
// The share is computed by water-filling: tenants needing less than
// their entitled share keep what they use, and the slack is
// redistributed to the rest by weight. A tenant alone on the service
// is therefore never over-share (it is entitled to everything), and a
// tenant at or under an equal split never is either.
func (r *Registry) OverShare(id string, capacity int) bool {
	if capacity <= 0 {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.tenants[id]
	if !ok || s.inflight == 0 {
		return false
	}
	active := make([]*claim, 0, 8)
	var mine *claim
	for _, t := range r.tenants {
		if t.inflight == 0 && t != s {
			continue
		}
		c := &claim{demand: float64(t.inflight), weight: t.limits.Weight}
		active = append(active, c)
		if t == s {
			mine = c
		}
	}
	waterFill(active, float64(capacity))
	// Strictly over its fair share, with a one-slot grace so a tenant
	// exactly at its integer share is not shed by rounding.
	return mine.demand > mine.share+1
}

// waterFill assigns each claim its weighted max-min fair share of the
// capacity: iteratively satisfy every claim demanding less than its
// entitled share, then redistribute the slack to the rest by weight.
func waterFill(claims []*claim, capacity float64) {
	remaining := capacity
	unsat := append([]*claim(nil), claims...)
	sort.Slice(unsat, func(i, j int) bool {
		return unsat[i].demand/unsat[i].weight < unsat[j].demand/unsat[j].weight
	})
	for len(unsat) > 0 {
		var wsum float64
		for _, c := range unsat {
			wsum += c.weight
		}
		fill := remaining / wsum // per unit weight
		// Smallest normalized demand first: if it fits under the fill
		// line, satisfy it exactly and redistribute its slack.
		c := unsat[0]
		if c.demand <= c.weight*fill {
			c.share = c.demand
			remaining -= c.demand
			unsat = unsat[1:]
			continue
		}
		// Nobody left fits: everyone remaining gets the line.
		for _, c := range unsat {
			c.share = c.weight * fill
		}
		return
	}
}

// claim is one tenant's demand in a water-filling round.
type claim struct {
	demand float64
	weight float64
	share  float64
}

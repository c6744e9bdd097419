package tenant

import (
	"context"
	"sync"
	"testing"
	"time"
)

// clock is a manually advanced test clock.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *clock { return &clock{t: time.Unix(1_700_000_000, 0)} }

func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func TestContextIdentity(t *testing.T) {
	ctx := context.Background()
	if got := FromContext(ctx); got != DefaultID {
		t.Errorf("bare context tenant = %q, want %q", got, DefaultID)
	}
	if got := FromContext(WithID(ctx, "acme")); got != "acme" {
		t.Errorf("tenant = %q, want acme", got)
	}
	if got := FromContext(WithID(ctx, "")); got != DefaultID {
		t.Errorf("empty tenant = %q, want %q", got, DefaultID)
	}
}

func TestRateBucket(t *testing.T) {
	clk := newClock()
	r := NewRegistry(Config{
		Defaults: Limits{Rate: 2, Burst: 4},
		Now:      clk.now,
	})
	// Burst capacity admits 4 straight away.
	var releases []func()
	for i := 0; i < 4; i++ {
		rel, qerr := r.Admit("acme", 1)
		if qerr != nil {
			t.Fatalf("admit %d rejected: %v", i, qerr)
		}
		releases = append(releases, rel)
	}
	// The 5th is over the bucket: rejected with rate reason and a
	// Retry-After long enough to mint one token.
	_, qerr := r.Admit("acme", 1)
	if qerr == nil {
		t.Fatal("5th admit should exceed the burst")
	}
	if qerr.Reason != "rate" || qerr.Tenant != "acme" {
		t.Errorf("rejection = %+v, want rate/acme", qerr)
	}
	if qerr.RetryAfter <= 0 {
		t.Errorf("rate rejection must carry a positive Retry-After, got %v", qerr.RetryAfter)
	}
	if qerr.Limit != 2 {
		t.Errorf("Limit = %d, want sustained rate 2", qerr.Limit)
	}
	// Refill at 2/s: after 1s, two more fit.
	clk.advance(time.Second)
	for i := 0; i < 2; i++ {
		if _, qerr := r.Admit("acme", 1); qerr != nil {
			t.Fatalf("post-refill admit %d rejected: %v", i, qerr)
		}
	}
	if _, qerr := r.Admit("acme", 1); qerr == nil {
		t.Fatal("bucket should be empty again")
	}
	for _, rel := range releases {
		rel()
	}
}

func TestConcurrencyCapAndRelease(t *testing.T) {
	r := NewRegistry(Config{Defaults: Limits{MaxInFlight: 2}, Now: newClock().now})
	rel1, qerr := r.Admit("acme", 1)
	if qerr != nil {
		t.Fatal(qerr)
	}
	rel2, qerr := r.Admit("acme", 1)
	if qerr != nil {
		t.Fatal(qerr)
	}
	_, qerr = r.Admit("acme", 1)
	if qerr == nil || qerr.Reason != "concurrency" {
		t.Fatalf("3rd admit = %v, want concurrency rejection", qerr)
	}
	if qerr.Remaining != 0 {
		t.Errorf("Remaining = %d, want 0", qerr.Remaining)
	}
	rel1()
	rel1() // double release must not double-credit
	if got := r.tenants["acme"].inflight; got != 1 {
		t.Fatalf("in-flight after release = %d, want 1", got)
	}
	if _, qerr := r.Admit("acme", 1); qerr != nil {
		t.Fatalf("slot freed but admit rejected: %v", qerr)
	}
	rel2()
}

func TestBatchAdmittedAsUnit(t *testing.T) {
	clk := newClock()
	r := NewRegistry(Config{Defaults: Limits{Rate: 1, Burst: 5}, Now: clk.now})
	// A 6-item batch exceeds the 5-token bucket: all-or-nothing reject,
	// and the bucket must be untouched by the failed attempt.
	if _, qerr := r.Admit("acme", 6); qerr == nil {
		t.Fatal("6-item batch should be rejected as a unit")
	}
	rel, qerr := r.Admit("acme", 5)
	if qerr != nil {
		t.Fatalf("5-item batch should fit the untouched bucket: %v", qerr)
	}
	if got := r.tenants["acme"].inflight; got != 5 {
		t.Errorf("batch in-flight = %d, want 5", got)
	}
	rel()
	if got := r.tenants["acme"].inflight; got != 0 {
		t.Errorf("in-flight after batch release = %d, want 0", got)
	}
}

func TestOverridesAndDefaults(t *testing.T) {
	clk := newClock()
	r := NewRegistry(Config{
		Defaults:  Limits{Rate: 100, Burst: 100},
		Overrides: map[string]Limits{"hog": {Rate: 1, Burst: 1}},
		Now:       clk.now,
	})
	if _, qerr := r.Admit("hog", 1); qerr != nil {
		t.Fatalf("first hog request fits its burst: %v", qerr)
	}
	if _, qerr := r.Admit("hog", 1); qerr == nil {
		t.Fatal("hog override (1 rps, burst 1) should reject the 2nd immediate request")
	}
	for i := 0; i < 50; i++ {
		if _, qerr := r.Admit("other", 1); qerr != nil {
			t.Fatalf("default-limit tenant rejected at %d: %v", i, qerr)
		}
	}
	if lim := r.tenants["hog"].limits; lim.Rate != 1 {
		t.Errorf("hog effective rate = %v, want 1", lim.Rate)
	}
	if lim := r.tenants["other"].limits; lim.Rate != 100 {
		t.Errorf("default effective rate = %v, want 100", lim.Rate)
	}
}

func TestLRUBoundSparesActiveAndPinned(t *testing.T) {
	clk := newClock()
	r := NewRegistry(Config{
		Defaults:   Limits{Rate: 1000, Burst: 1000},
		Overrides:  map[string]Limits{"pinned": {Rate: 5}},
		MaxTenants: 3,
		Now:        clk.now,
	})
	relA, _ := r.Admit("active", 1) // stays in flight
	r.Admit("pinned", 1)
	for i := 0; i < 10; i++ {
		id := string(rune('a' + i))
		rel, qerr := r.Admit(id, 1)
		if qerr != nil {
			t.Fatalf("admit %s: %v", id, qerr)
		}
		rel()
	}
	if _, ok := r.tenants["a"]; ok {
		t.Fatal("10 transient tenants over a 3-tenant bound must evict the coldest")
	}
	if s, ok := r.tenants["active"]; !ok || s.inflight != 1 {
		t.Errorf("active tenant must never be evicted while in flight; state = %+v", s)
	}
	if s, ok := r.tenants["pinned"]; !ok || s.limits.Rate != 5 {
		t.Errorf("pinned override lost: %+v", s)
	}
	relA()
}

func TestOverShareWaterFilling(t *testing.T) {
	clk := newClock()
	r := NewRegistry(Config{Defaults: Limits{}, Now: clk.now})
	admitN := func(id string, n int) []func() {
		t.Helper()
		var rels []func()
		for i := 0; i < n; i++ {
			rel, qerr := r.Admit(id, 1)
			if qerr != nil {
				t.Fatalf("admit %s: %v", id, qerr)
			}
			rels = append(rels, rel)
		}
		return rels
	}
	// Saturation: 14 units of demand against 10 slots. The hog holds
	// 12, two polite tenants hold 1 each — the polite pair are under
	// share, the hog is the one past the fill line.
	hogRels := admitN("hog", 12)
	admitN("t1", 1)
	admitN("t2", 1)
	const capacity = 10
	if !r.OverShare("hog", capacity) {
		t.Error("hog at 12/10 with two 1-slot tenants must be over share")
	}
	if r.OverShare("t1", capacity) || r.OverShare("t2", capacity) {
		t.Error("under-share tenants must never be flagged")
	}
	// Water-filling: t1/t2's slack flows to the hog, whose fair share
	// is everything they leave behind: 10 - 1 - 1 = 8. With the
	// one-slot grace it is over share at 10 and within it at 9; an
	// equal three-way split (3.3) would flag it at 9 as well.
	hogRels[0]()
	hogRels[1]()
	if !r.OverShare("hog", capacity) {
		t.Error("hog at 10 must be over its fair share of 8")
	}
	hogRels[2]()
	if r.OverShare("hog", capacity) {
		t.Error("hog at 9 must be within its fair share of 8 plus grace (slack redistributed)")
	}
	// A tenant alone on the service is entitled to all of it.
	for _, rel := range hogRels[3:] {
		rel()
	}
	if r.OverShare("t1", capacity) {
		t.Error("tenant within capacity alone must not be over share")
	}
}

func TestOverShareWeighted(t *testing.T) {
	clk := newClock()
	r := NewRegistry(Config{
		Defaults:  Limits{},
		Overrides: map[string]Limits{"gold": {Weight: 3}},
		Now:       clk.now,
	})
	admit := func(id string, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, qerr := r.Admit(id, 1); qerr != nil {
				t.Fatalf("admit %s: %v", id, qerr)
			}
		}
	}
	// 12 slots, weight 3 vs 1: gold is entitled to 9, bronze to 3.
	admit("gold", 9)
	admit("bronze", 3)
	if r.OverShare("gold", 12) {
		t.Error("gold at its weighted share must not be flagged")
	}
	admit("bronze", 4) // bronze now at 7 > 3 + slack
	if !r.OverShare("bronze", 12) {
		t.Error("bronze far over its weighted share must be flagged")
	}
}

func TestRegistryRace(t *testing.T) {
	clk := newClock()
	r := NewRegistry(Config{
		Defaults:   Limits{Rate: 1e6, Burst: 1e6, MaxInFlight: 64},
		MaxTenants: 8,
		Now:        clk.now,
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := string(rune('a' + g%4))
			for i := 0; i < 200; i++ {
				if rel, qerr := r.Admit(id, 1+i%3); qerr == nil {
					r.OverShare(id, 16)
					rel()
				}
			}
		}(g)
	}
	wg.Wait()
	for _, id := range []string{"a", "b", "c", "d"} {
		if got := r.tenants[id].inflight; got != 0 {
			t.Errorf("tenant %s leaked %d in-flight units", id, got)
		}
	}
}

package cluster

import (
	"fmt"
	"net/http"
	"testing"
	"time"
)

func TestLatencyTrackerDelay(t *testing.T) {
	lt := newLatencyTracker(0.9, 50*time.Millisecond, 5*time.Millisecond)
	if got := lt.delay(); got != 50*time.Millisecond {
		t.Fatalf("thin-data delay = %v, want the 50ms initial", got)
	}
	// 100 samples: 90 fast, 10 slow. The p90 sits at the boundary.
	for i := 0; i < 90; i++ {
		lt.observe(10 * time.Millisecond)
	}
	for i := 0; i < 10; i++ {
		lt.observe(200 * time.Millisecond)
	}
	if got := lt.delay(); got < 10*time.Millisecond || got > 200*time.Millisecond {
		t.Fatalf("p90 delay = %v, want within observed range", got)
	}
	// The floor clamps a uniformly fast fleet.
	lt2 := newLatencyTracker(0.9, 50*time.Millisecond, 5*time.Millisecond)
	for i := 0; i < 64; i++ {
		lt2.observe(time.Microsecond)
	}
	if got := lt2.delay(); got != 5*time.Millisecond {
		t.Fatalf("clamped delay = %v, want the 5ms floor", got)
	}
}

// TestHedgeBeatsStall: with one replica stalled, the hedge fires after
// the configured delay and the fast replica's answer wins — the
// client never waits out the stall.
func TestHedgeBeatsStall(t *testing.T) {
	const stall = 3 * time.Second
	slowRep := newFakeReplica(t, "slow")
	fastRep := newFakeReplica(t, "fast")
	slowRep.predict.Store(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(stall):
		}
		okPredict("slow")(w, r)
	})
	g, ts := newTestGateway(t, Config{
		MaxAttempts:  2,
		HedgeInitial: 30 * time.Millisecond,
		HedgeMin:     10 * time.Millisecond,
		RetryRatio:   1,
		RetryBurst:   100,
	}, slowRep, fastRep)

	// Least-inflight routing breaks ties at random, so keep sending, up
	// to a bound, until the stalled replica has been tried at least once.
	start := time.Now()
	n := 0
	for ; n < 8 || (slowRep.hits.Load() == 0 && n < 64); n++ {
		resp, data := postBody(t, ts.URL, fmt.Sprintf(`{"source":"req%d"}`, n), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d (body %s)", n, resp.StatusCode, data)
		}
		if id := resp.Header.Get("X-Instance-Id"); id != "fast" {
			t.Fatalf("request %d answered by %q, want fast (hedge should win)", n, id)
		}
	}
	if slowRep.hits.Load() == 0 {
		t.Fatal("64 requests never routed to the stalled replica")
	}
	if elapsed := time.Since(start); elapsed > time.Duration(n)*stall/2 {
		t.Fatalf("%d requests took %v; hedging is not cutting the stall tail", n, elapsed)
	}

	fires, wins := g.metrics.hedgeFires.Value(), g.metrics.hedgeWins.Value()
	if fires == 0 {
		t.Fatal("no hedges fired despite a stalled replica")
	}
	if wins == 0 {
		t.Fatal("no hedge wins recorded")
	}
	if wins > fires {
		t.Fatalf("hedge wins %d > fires %d", wins, fires)
	}
}

// TestHedgeRespectsBudget: with a zero-burst empty budget, hedges are
// suppressed rather than amplifying load.
func TestHedgeRespectsBudget(t *testing.T) {
	slowRep := newFakeReplica(t, "slow")
	fastRep := newFakeReplica(t, "fast")
	slowRep.predict.Store(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(200 * time.Millisecond):
		}
		okPredict("slow")(w, r)
	})
	fastRep.predict.Store(slowRep.predict.Load().(func(http.ResponseWriter, *http.Request)))
	g, ts := newTestGateway(t, Config{
		MaxAttempts:  3,
		HedgeInitial: 10 * time.Millisecond,
		RetryRatio:   0.0001, // effectively never banks a whole token
		RetryBurst:   1,
	}, slowRep, fastRep)
	g.budget.take() // drain the initial burst

	for i := 0; i < 4; i++ {
		resp, data := postBody(t, ts.URL, fmt.Sprintf(`{"source":"req%d"}`, i), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d (body %s)", i, resp.StatusCode, data)
		}
	}
	if fires := g.metrics.hedgeFires.Value(); fires != 0 {
		t.Fatalf("hedges fired %d times with an empty budget", fires)
	}
	if denied := g.metrics.retryDenied.Value(); denied == 0 {
		t.Fatal("budget denials not recorded")
	}
}

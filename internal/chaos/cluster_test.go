package chaos

import (
	"context"
	"testing"
	"time"
)

// TestClusterShortSoak is the replicated-serving acceptance test: three
// real blserve replicas behind a real blgate, one killed mid-load, one
// stalled, then all killed for the brownout drill. Every invariant
// violation fails the test.
func TestClusterShortSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster soak spawns processes; skipped with -short")
	}
	dir := t.TempDir()
	serveBin, err := BuildServe(dir)
	if err != nil {
		t.Fatal(err)
	}
	gateBin, err := BuildGate(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	rep, err := Run(ctx, Cluster, Config{
		ServeBin: serveBin,
		GateBin:  gateBin,
		Seed:     42,
		Duration: 4 * time.Second,
		Log:      testWriter{t},
	})
	if err != nil {
		t.Fatalf("harness failure: %v (report %+v)", err, rep)
	}
	for _, v := range rep.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if rep.Kills < rep.Replicas+1 {
		t.Fatalf("soak killed %d processes, want at least %d: %+v", rep.Kills, rep.Replicas+1, rep)
	}
	if rep.Restarts < 1 {
		t.Fatalf("killed replica was never restarted: %+v", rep)
	}
	if rep.Cluster.HedgeFires < 1 || rep.Cluster.HedgeWins < 1 {
		t.Fatalf("stall drill produced no winning hedges: %+v", rep)
	}
	if rep.Cluster.StaleServed < 1 || rep.Degraded < 1 {
		t.Fatalf("brownout drill never served a degraded stale answer: %+v", rep)
	}
	if !rep.MetricsScraped {
		t.Fatalf("gateway metrics were never cross-checked: %+v", rep)
	}
}

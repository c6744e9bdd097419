package chaos

import (
	"context"
	"testing"
	"time"
)

// TestTenantsDrill is the multi-tenant fairness acceptance test: three
// real blserve -tenants replicas behind a rendezvous-routing blgate, a
// hog flooding at 10x its quota next to two polite tenants, then a
// replica SIGKILL. Every invariant violation fails the test.
func TestTenantsDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("tenants drill spawns processes; skipped with -short")
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
	rep, err := Run(ctx, Tenants, Config{
		ServeBin: serveBin,
		GateBin:  gateBin,
		Seed:     42,
		Log:      testWriter{t},
	})
	if err != nil {
		t.Fatalf("harness failure: %v (report %+v)", err, rep)
	}
	for _, v := range rep.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if rep.Tenants.BaselineOK != rep.Tenants.BaselineSent || rep.Tenants.BaselineSent == 0 {
		t.Fatalf("baseline incomplete: %+v", rep)
	}
	if rep.Tenants.HogShed == 0 {
		t.Fatalf("hog was never shed: %+v", rep)
	}
	if rep.Kills != 1 || rep.Tenants.Remapped == 0 {
		t.Fatalf("kill drill did not remap anything: %+v", rep)
	}
	if !rep.MetricsScraped {
		t.Fatalf("replica /metrics never scraped and cross-checked: %+v", rep)
	}
}

package chaos

import (
	"context"
	"os"
	"testing"
	"time"
)

// TestShortSoak is the process-level kill-and-restart acceptance test:
// a real blserve is built, traffic flows, the process dies by SIGKILL
// mid-load, restarts warm from its snapshot and journal, and a
// deliberately corrupted snapshot entry is skipped without failing
// boot. Every invariant violation fails the test.
func TestShortSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak spawns processes; skipped with -short")
	}
	bin, err := BuildServe(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	rep, err := Run(ctx, Soak, Config{
		ServeBin: bin,
		Seed:     42,
		Duration: 6 * time.Second,
		Log:      testWriter{t},
	})
	if err != nil {
		t.Fatalf("harness failure: %v (report %+v)", err, rep)
	}
	for _, v := range rep.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if rep.Kills < 1 || rep.Restarts < 1 {
		t.Fatalf("soak never killed/restarted the server: %+v", rep)
	}
	if rep.Soak.Recovered < 1 {
		t.Fatalf("no state was ever recovered across restarts: %+v", rep)
	}
	if rep.Soak.Skipped < 1 {
		t.Fatalf("corruption drill did not count a skipped entry: %+v", rep)
	}
	if rep.Soak.WarmChecks >= 1 && rep.Soak.WarmHitRate < 0.5 {
		t.Fatalf("warm hit rate %.2f below floor: %+v", rep.Soak.WarmHitRate, rep)
	}
}

// testWriter narrates the schedule into the test log (visible with -v).
type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", p)
	return len(p), nil
}

// TestBuildServeFindsModule guards the zero-config path blchaos uses.
func TestBuildServeFindsModule(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary; skipped with -short")
	}
	dir := t.TempDir()
	bin, err := BuildServe(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(bin); err != nil || st.Mode()&0o111 == 0 {
		t.Fatalf("built binary unusable: %v %v", st, err)
	}
}

package chaos

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ballarus/internal/jobs"
)

// TestJobsDrill is the crash-resumable distributed-jobs acceptance
// test: a real coordinator dispatching the Section 5 experiments
// through a real blgate to two real replicas, with a replica SIGKILLed
// and the coordinator SIGKILLed and restarted mid-job. Every invariant
// violation fails the test.
func TestJobsDrill(t *testing.T) {
	if testing.Short() {
		t.Skip("jobs drill spawns processes; skipped with -short")
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
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()
	rep, err := Run(ctx, Jobs, Config{
		ServeBin: serveBin,
		GateBin:  gateBin,
		Seed:     1,
		Log:      testWriter{t},
	})
	if err != nil {
		t.Fatalf("harness failure: %v (report %+v)", err, rep)
	}
	for _, v := range rep.Violations {
		t.Errorf("invariant violated: %s", v)
	}
	if !rep.Jobs.SweepVerified || !rep.Jobs.SubsetsVerified {
		t.Fatalf("distributed results were not verified bit-identical: %+v", rep)
	}
	if rep.Jobs.ReplicaKills < 1 || rep.Jobs.CoordinatorKills < 1 || rep.Restarts < 1 {
		t.Fatalf("drill did not kill and restart as scripted: %+v", rep)
	}
	if rep.Jobs.RecoveredShards < 1 || rep.Jobs.RerunShards < 1 {
		t.Fatalf("resume recovered %d shards and re-ran %d; both must be nonzero: %+v",
			rep.Jobs.RecoveredShards, rep.Jobs.RerunShards, rep)
	}
	if !rep.MetricsScraped {
		t.Fatalf("coordinator metrics were never cross-checked: %+v", rep)
	}
}

// TestSweepWithoutStatus: a coordinator that accepts the sweep job but
// never answers a status poll must leave a violation, not a nil
// dereference.
func TestSweepWithoutStatus(t *testing.T) {
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(jobs.Status{ID: "j1", State: jobs.StateRunning, ShardsTotal: 4})
			return
		}
		http.Error(w, "unavailable", http.StatusServiceUnavailable)
	}))
	defer coord.Close()
	f := &fleet{
		log:    testWriter{t},
		client: coord.Client(),
		procs:  map[string]*proc{"coord": {name: "coord", addr: coord.Listener.Addr().String()}},
		rep:    &Report{Scenario: Jobs},
	}
	d := &jobsDrill{fleet: f, r: &JobsReport{}}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := d.sweep(ctx); err != nil {
		t.Fatal(err)
	}
	if len(f.rep.Violations) == 0 {
		t.Fatal("a job with no status recorded no violation")
	}
	t.Log(f.rep.Violations)
}

package service

import (
	"context"
	"os"
	"testing"
	"time"

	"ballarus/internal/durable"
	"ballarus/internal/resilience"
)

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never held")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// durableRequests are three distinct jobs (seed changes the run key).
func durableRequests() []Request {
	return []Request{
		{Source: testSrc},
		{Source: testSrc, Seed: 7},
		{Benchmark: "spice2g6"},
	}
}

// TestCrashRecoveryWarmStart is the headline durability scenario: a
// service snapshots its warm set, dies without Close (hard kill), and a
// fresh service over the same directory recovers a warm cache.
func TestCrashRecoveryWarmStart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	reqs := durableRequests()

	svc1 := New(WithDurableStore(dir), WithSnapshotInterval(time.Hour))
	for _, req := range reqs {
		if _, err := svc1.Predict(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc1.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	// No Close: the process "dies" here.

	svc2 := New(WithDurableStore(dir), WithSnapshotInterval(time.Hour))
	defer svc2.Close()
	rs, err := svc2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Warmed < int64(len(reqs)) || rs.SnapshotEntries < int64(len(reqs)) {
		t.Fatalf("recovery stats %+v, want >= %d warmed snapshot entries", rs, len(reqs))
	}

	// Every pre-crash request must now be a whole-pipeline cache hit, and
	// re-predicting warmed work must not journal it again.
	appendsBefore := svc2.Stats().Durability.JournalAppends
	for _, req := range reqs {
		res, err := svc2.Predict(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !res.RunCached {
			t.Fatalf("request %+v cold after recovery", req)
		}
	}
	st := svc2.Stats()
	if st.RunHits < int64(len(reqs)) {
		t.Fatalf("run hits = %d, want >= %d", st.RunHits, len(reqs))
	}
	if st.Durability.JournalAppends != appendsBefore {
		t.Fatalf("warmed requests re-journaled: %d -> %d appends",
			appendsBefore, st.Durability.JournalAppends)
	}
	if !st.Durability.Enabled || st.Durability.Warmed != rs.Warmed {
		t.Fatalf("durability stats not surfaced: %+v", st.Durability)
	}
}

// TestJournalOnlyRecovery: a crash before any snapshot still rewarms
// from the append-only journal.
func TestJournalOnlyRecovery(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	svc1 := New(WithDurableStore(dir), WithSnapshotInterval(time.Hour))
	if _, err := svc1.Predict(ctx, Request{Source: testSrc}); err != nil {
		t.Fatal(err)
	}
	if err := svc1.dur.journal.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash: no snapshot was ever written.

	svc2 := New(WithDurableStore(dir), WithSnapshotInterval(time.Hour))
	defer svc2.Close()
	rs, err := svc2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rs.JournalReplayed < 1 || rs.Warmed < 1 || rs.SnapshotEntries != 0 {
		t.Fatalf("recovery stats %+v, want journal-only rewarm", rs)
	}
	res, err := svc2.Predict(ctx, Request{Source: testSrc})
	if err != nil || !res.RunCached {
		t.Fatalf("journaled request cold after recovery: cached=%v err=%v",
			res != nil && res.RunCached, err)
	}
}

// TestSnapshotCorruptionSkipped is the acceptance criterion: a
// deliberately corrupted snapshot entry is skipped and counted, the
// rest recover, and boot never fails.
func TestSnapshotCorruptionSkipped(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	corrupted := Request{Source: testSrc}
	intact := Request{Source: testSrc, Seed: 7}

	svc1 := New(WithDurableStore(dir), WithSnapshotInterval(time.Hour))
	for _, req := range []Request{corrupted, intact} {
		if _, err := svc1.Predict(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc1.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	// Drop the journal so recovery depends on the snapshot alone, then
	// flip one byte inside the first entry (its section bytes): the CRC
	// must reject exactly that entry.
	if err := svc1.dur.journal.Reset(); err != nil {
		t.Fatal(err)
	}
	path := svc1.dur.store.SnapshotPath()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[8+15+2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	svc2 := New(WithDurableStore(dir), WithSnapshotInterval(time.Hour))
	defer svc2.Close()
	rs, err := svc2.Recover(ctx)
	if err != nil {
		t.Fatalf("corrupted entry must not fail boot: %v", err)
	}
	if rs.SnapshotSkipped < 1 || rs.SnapshotEntries < 1 {
		t.Fatalf("recovery stats %+v, want 1 skipped + 1 recovered", rs)
	}
	if res, err := svc2.Predict(ctx, intact); err != nil || !res.RunCached {
		t.Fatalf("intact entry cold after recovery: err=%v", err)
	}
	if res, err := svc2.Predict(ctx, corrupted); err != nil || res.RunCached {
		t.Fatalf("corrupted entry served warm (cached=%v err=%v), want recompute",
			res != nil && res.RunCached, err)
	}
	if got := svc2.Stats().Durability.SnapshotSkipped; got < 1 {
		t.Fatalf("snapshot_skipped = %d not surfaced in Stats", got)
	}
}

// TestRecoverRegisteredSection: an external section (the shape blserve's
// trace archive uses) round-trips through the snapshot, and entries of
// an unregistered section are skipped, not fatal — which is how a state
// dir holding the "stale" section older blserve builds wrote still
// boots.
func TestRecoverRegisteredSection(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	svc1 := New(WithDurableStore(dir), WithSnapshotInterval(time.Hour))
	svc1.RegisterDurableSection("stale", DurableSection{
		Collect: func() []durable.Entry {
			return []durable.Entry{
				{Key: "k1", Payload: []byte(`{"name":"x"}`)},
				{Key: "k2", Payload: []byte(`{"name":"y"}`)},
			}
		},
	})
	if err := svc1.SnapshotNow(); err != nil {
		t.Fatal(err)
	}

	// svc2 registers the section: both entries restore, and its Collect
	// carries them into the baseline snapshot Recover rewrites.
	restored := map[string]string{}
	svc2 := New(WithDurableStore(dir), WithSnapshotInterval(time.Hour))
	svc2.RegisterDurableSection("stale", DurableSection{
		Collect: func() []durable.Entry {
			out := make([]durable.Entry, 0, len(restored))
			for k, v := range restored {
				out = append(out, durable.Entry{Key: k, Payload: []byte(v)})
			}
			return out
		},
		Restore: func(e durable.Entry) error {
			restored[e.Key] = string(e.Payload)
			return nil
		},
	})
	rs, err := svc2.Recover(ctx)
	if err != nil || rs.SnapshotEntries != 2 || len(restored) != 2 {
		t.Fatalf("section restore: stats %+v, restored %v, err %v", rs, restored, err)
	}
	svc2.Close()

	// svc3 does not register it: entries are skipped, boot succeeds.
	svc3 := New(WithDurableStore(dir), WithSnapshotInterval(time.Hour))
	defer svc3.Close()
	rs, err = svc3.Recover(ctx)
	if err != nil || rs.SnapshotSkipped != 2 {
		t.Fatalf("unregistered section: stats %+v, err %v", rs, err)
	}
}

// TestCloseWritesFinalSnapshot: graceful shutdown persists the warm set
// and is idempotent.
func TestCloseWritesFinalSnapshot(t *testing.T) {
	dir := t.TempDir()
	svc := New(WithDurableStore(dir), WithSnapshotInterval(time.Hour))
	if _, err := svc.Predict(context.Background(), Request{Source: testSrc}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	entries, st, err := durable.ReadSnapshotFile(dir + "/" + durable.SnapshotName)
	if err != nil || len(entries) != 1 || st.Skipped != 0 {
		t.Fatalf("final snapshot: %d entries, stats %+v, err %v", len(entries), st, err)
	}
}

// TestRecoverWithoutStore: Recover on an undurable service is a
// configuration error, not a panic.
func TestRecoverWithoutStore(t *testing.T) {
	svc := New()
	defer svc.Close()
	if _, err := svc.Recover(context.Background()); err == nil {
		t.Fatal("Recover without WithDurableStore must error")
	}
	if st := svc.Stats(); st.Durability.Enabled || st.Watchdog.Enabled {
		t.Fatalf("undurable service reports %+v", st)
	}
}

// TestWatchdogRestartsWedgedPool: with one worker wedged on a hung
// computation and work queued behind it, the watchdog swaps in a fresh
// pool and the queued request completes.
func TestWatchdogRestartsWedgedPool(t *testing.T) {
	defer resilience.ClearFaults()
	svc := New(WithWorkers(1), WithQueueDepth(8), WithWatchdog(60*time.Millisecond))
	defer svc.Close()

	resilience.InjectFault("service.execute", resilience.Fault{Hang: true, Times: 1})
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	wedged := make(chan error, 1)
	go func() {
		_, err := svc.Predict(ctx1, Request{Source: testSrc})
		wedged <- err
	}()
	waitUntil(t, 5*time.Second, func() bool { return svc.Stats().InFlight >= 1 })

	done := make(chan error, 1)
	go func() {
		_, err := svc.Predict(context.Background(), Request{Source: testSrc, Seed: 99})
		done <- err
	}()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("queued request failed after pool restart: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("queued request never ran: watchdog did not restart the pool")
	}
	if st := svc.Stats().Watchdog; !st.Enabled || st.Restarts < 1 {
		t.Fatalf("watchdog stats = %+v, want >= 1 restart", st)
	}

	cancel1()
	if err := <-wedged; err == nil {
		t.Fatal("wedged request reported success")
	}
}

package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ballarus/internal/durable"
	"ballarus/internal/obs"
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
// service snapshots its run cache, dies without Close (hard kill), and a
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
	// The snapshot emptied the journal, so recovery depends on the
	// snapshot alone. Flip one byte inside the first entry (its section
	// bytes): the CRC must reject exactly that entry.
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

// TestRecoverArchivedTraces: the tracer's archive round-trips through
// the snapshot's "traces" section, and entries of an unknown section are
// skipped and counted, not fatal — which is how a state dir holding the
// "stale" section older blserve builds wrote still boots.
func TestRecoverArchivedTraces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, durable.SnapshotName)
	ids := []string{"00000000000000a1", "00000000000000b2"}
	var entries []durable.Entry
	for i, id := range ids {
		payload, _ := json.Marshal(obs.Trace{ID: id, SpanID: id, Name: "predict"})
		entries = append(entries, durable.Entry{Section: SectionTraces, Key: fmt.Sprintf("t%06d", i), Payload: payload})
	}
	entries = append(entries, durable.Entry{Section: "stale", Key: "k1", Payload: []byte(`{"name":"x"}`)})
	if err := durable.WriteSnapshotFile(path, entries); err != nil {
		t.Fatal(err)
	}

	svc := New(WithDurableStore(dir), WithSnapshotInterval(time.Hour))
	rs, err := svc.Recover(context.Background())
	if err != nil || rs.SnapshotEntries != 2 || rs.SnapshotSkipped != 1 || svc.Tracer().Archived() != 2 {
		t.Fatalf("recover: stats %+v, archived %d, err %v; want 2 entries, 1 skipped, 2 archived",
			rs, svc.Tracer().Archived(), err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	got, _, err := durable.ReadSnapshotFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ids) {
		t.Fatalf("snapshot after Close holds %d entries, want the %d traces", len(got), len(ids))
	}
	for i, e := range got {
		var tr obs.Trace
		if e.Section != SectionTraces || json.Unmarshal(e.Payload, &tr) != nil || tr.ID != ids[i] {
			t.Fatalf("entry %d = %s/%s %s, want trace %s", i, e.Section, e.Key, e.Payload, ids[i])
		}
	}
}

// TestCloseWritesFinalSnapshot: graceful shutdown persists the run cache
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

// TestSnapshotHoldsRunCache: a snapshot persists exactly the run
// cache's entries, least recently used first, each keyed by its run key
// with the recipe that computed it as payload.
func TestSnapshotHoldsRunCache(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	svc := New(WithDurableStore(dir), WithSnapshotInterval(time.Hour), WithCacheSize(2))
	defer svc.Close()
	reqs := durableRequests()
	// The repeat of reqs[1] makes it the most recently used; reqs[0]
	// is evicted by reqs[2].
	for _, req := range append(reqs, reqs[1]) {
		if _, err := svc.Predict(ctx, req); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	entries, _, err := durable.ReadSnapshotFile(svc.dur.store.SnapshotPath())
	if err != nil {
		t.Fatal(err)
	}
	var got []durable.Entry
	for _, e := range entries {
		if e.Section == SectionRequests {
			got = append(got, e)
		}
	}
	want := []Request{reqs[2], reqs[1]}
	if len(got) != len(want) {
		t.Fatalf("snapshot holds %d request entries, want %d", len(got), len(want))
	}
	for i, req := range want {
		if err := svc.resolve(&req); err != nil {
			t.Fatal(err)
		}
		if _, _, runKey := req.keys(); got[i].Key != runKey {
			t.Errorf("entry %d key = %.12s…, want run key %.12s… of %+v", i, got[i].Key, runKey, want[i])
		}
		var r recipe
		if err := json.Unmarshal(got[i].Payload, &r); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r, recipeOf(&req)) {
			t.Errorf("entry %d recipe = %+v, want %+v", i, r, recipeOf(&req))
		}
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
	if st := svc.Stats(); st.Durability.Enabled {
		t.Fatalf("undurable service reports %+v", st)
	}
}

// endlessLoop runs 10^9 iterations: under a 2^40 budget it ends only at
// its deadline.
const endlessLoop = `int main() { int i; int s = 0; for (i = 0; i < 1000000000; i++) { s += i % 7; } printi(s); return 0; }`

// recoverWithin runs svc.Recover and fails the test if it has not
// returned within 5 s, canceling it so a stuck replay ends with the
// test. It returns the stats and how long Recover took.
func recoverWithin(t *testing.T, svc *Service) (RecoveryStats, time.Duration) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type outcome struct {
		rs  RecoveryStats
		err error
	}
	done := make(chan outcome, 1)
	start := time.Now()
	go func() {
		rs, err := svc.Recover(ctx)
		done <- outcome{rs, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		return o.rs, time.Since(start)
	case <-time.After(5 * time.Second):
		cancel()
		<-done
		t.Fatal("Recover still running after 5 s")
		return RecoveryStats{}, 0
	}
}

// TestTimedOutRequestNotReplayed: a request that timed out computed no
// run, so nothing is journaled and a restart replays nothing.
func TestTimedOutRequestNotReplayed(t *testing.T) {
	dir := t.TempDir()
	opts := []Option{WithDurableStore(dir), WithSnapshotInterval(time.Hour), WithRequestTimeout(50 * time.Millisecond)}
	svc1 := New(opts...)
	_, err := svc1.Predict(context.Background(), Request{Source: endlessLoop, Budget: 1 << 40})
	if !errors.Is(err, resilience.ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if err := svc1.dur.journal.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close.

	svc2 := New(opts...)
	defer svc2.Close()
	rs, took := recoverWithin(t, svc2)
	if took > time.Second || rs.Warmed != 0 {
		t.Fatalf("Recover took %v with stats %+v, want under 1 s and nothing warmed", took, rs)
	}
}

// TestJournaledTimeoutSkipped: a journal record whose replay outlasts
// the request timeout is skipped and counted, not run without a
// deadline.
func TestJournaledTimeoutSkipped(t *testing.T) {
	dir := t.TempDir()
	payload, err := json.Marshal(recipeOf(&Request{Source: endlessLoop, Budget: 1 << 40}))
	if err != nil {
		t.Fatal(err)
	}
	j, err := durable.OpenJournal(filepath.Join(dir, durable.JournalName), durable.JournalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(payload); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	svc := New(WithDurableStore(dir), WithSnapshotInterval(time.Hour), WithRequestTimeout(50*time.Millisecond))
	defer svc.Close()
	rs, took := recoverWithin(t, svc)
	if took > time.Second || rs.JournalSkipped != 1 || rs.Warmed != 0 {
		t.Fatalf("Recover took %v with stats %+v, want under 1 s and the record skipped", took, rs)
	}
}

// TestSnapshotTrimsJournal: a snapshot drops the journal records it
// covers, so a crash after it replays only the run computed since.
func TestSnapshotTrimsJournal(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	svc1 := New(WithDurableStore(dir), WithSnapshotInterval(time.Hour))
	for i := int64(0); i < 6; i++ {
		if i == 5 {
			if err := svc1.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := svc1.Predict(ctx, Request{Source: testSrc, Seed: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc1.dur.journal.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close.

	svc2 := New(WithDurableStore(dir), WithSnapshotInterval(time.Hour))
	defer svc2.Close()
	rs, _ := recoverWithin(t, svc2)
	if rs.SnapshotEntries != 5 || rs.JournalReplayed != 1 || rs.Warmed != 6 {
		t.Fatalf("recovery stats %+v, want 5 snapshot entries, 1 journal record, 6 warmed", rs)
	}
}

// TestPeriodicSnapshotWaitsForRecover: a periodic snapshot must wait
// for Recover. One that ticks before it would replace the snapshot on
// disk with the empty run cache and trim the whole journal; one that
// ticks while Recover replays the snapshot would trim the journal
// records Recover has yet to replay.
func TestPeriodicSnapshotWaitsForRecover(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	svc1 := New(WithDurableStore(dir), WithSnapshotInterval(time.Hour))
	for i := int64(0); i < 6; i++ {
		if i == 4 {
			if err := svc1.SnapshotNow(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := svc1.Predict(ctx, Request{Benchmark: "xlisp", Seed: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc1.dur.journal.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close.

	svc2 := New(WithDurableStore(dir), WithSnapshotInterval(time.Millisecond))
	defer svc2.Close()
	time.Sleep(20 * time.Millisecond) // twenty ticks before Recover
	rs, _ := recoverWithin(t, svc2)
	if rs.SnapshotEntries != 4 || rs.JournalReplayed != 2 || rs.Warmed != 6 {
		t.Fatalf("recovery stats %+v, want 4 snapshot entries, 2 journal records, 6 warmed", rs)
	}
}

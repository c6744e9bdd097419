package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestJournalAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalName)
	j, err := OpenJournal(path, JournalOptions{SyncEvery: time.Hour}) // sync manually
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 20; i++ {
		p := []byte(fmt.Sprintf(`{"req":%d}`, i))
		want = append(want, p)
		if err := j.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Sync(); err != nil {
		t.Fatal(err)
	}
	var got [][]byte
	st, err := ReplayJournal(path, func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil || st.Records != 20 || st.Skipped != 0 || st.Truncated {
		t.Fatalf("replay: stats %+v, err %v", st, err)
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: got %q, want %q", i, got[i], want[i])
		}
	}

	// Reset empties the journal; subsequent appends land at offset 0.
	if err := j.Reset(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append([]byte("after-reset")); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got = nil
	st, err = ReplayJournal(path, func(p []byte) error { got = append(got, p); return nil })
	if err != nil || st.Records != 1 || string(got[0]) != "after-reset" {
		t.Fatalf("after reset: stats %+v, records %q, err %v", st, got, err)
	}
}

// TestJournalTornTail: a crash mid-append leaves a torn tail that replay
// drops without error — the signature failure mode of an append log.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalName)
	j, err := OpenJournal(path, JournalOptions{SyncEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		j.Append([]byte(fmt.Sprintf("record-%d", i)))
	}
	j.Close()

	data, _ := os.ReadFile(path)
	// Tear mid-way through the last record.
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	var n int
	st, err := ReplayJournal(path, func([]byte) error { n++; return nil })
	if err != nil || n != 4 || st.Records != 4 || !st.Truncated {
		t.Fatalf("torn replay: n=%d stats %+v err %v", n, st, err)
	}

	// A bit flip inside a record skips just that record.
	data, _ = os.ReadFile(path)
	data[journalHeaderLen+2] ^= 0x10 // inside record 0's payload
	os.WriteFile(path, data, 0o644)
	n = 0
	st, err = ReplayJournal(path, func([]byte) error { n++; return nil })
	if err != nil || n != 3 || st.Skipped != 1 {
		t.Fatalf("bit-flip replay: n=%d stats %+v err %v", n, st, err)
	}
}

func TestJournalBatchedSyncAndConcurrency(t *testing.T) {
	path := filepath.Join(t.TempDir(), JournalName)
	j, err := OpenJournal(path, JournalOptions{SyncEvery: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				j.Append([]byte(fmt.Sprintf("g%d-%d", g, i)))
			}
		}(g)
	}
	wg.Wait()
	// The background batcher must make everything durable without an
	// explicit Sync.
	deadline := time.Now().Add(2 * time.Second)
	for {
		var n int
		ReplayJournal(path, func([]byte) error { n++; return nil })
		if n == 200 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("batched sync never flushed all records (saw %d/200)", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	j.Close()
}

func TestWatchdog(t *testing.T) {
	var progress atomic.Int64
	var wedged atomic.Bool
	restarts := make(chan struct{}, 16)
	w := NewWatchdog(40*time.Millisecond, 5*time.Millisecond,
		func() (int64, bool) { return progress.Load(), wedged.Load() },
		func() { restarts <- struct{}{} })
	w.Start()
	defer w.Stop()

	// Healthy (not wedgeable): no restarts even with static progress.
	time.Sleep(100 * time.Millisecond)
	select {
	case <-restarts:
		t.Fatal("watchdog fired while pool was not saturated")
	default:
	}

	// Saturated but progressing: still no restart.
	wedged.Store(true)
	for i := 0; i < 10; i++ {
		progress.Add(1)
		time.Sleep(10 * time.Millisecond)
	}
	select {
	case <-restarts:
		t.Fatal("watchdog fired while progress was advancing")
	default:
	}

	// Saturated and stuck: restart fires within a few deadlines.
	select {
	case <-restarts:
	case <-time.After(2 * time.Second):
		t.Fatal("watchdog never fired on a wedged pool")
	}
}

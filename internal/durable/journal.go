package durable

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"sync"
	"time"
)

// Journal record layout: crc32(payload) uint32 | len(payload) uint32 |
// payload. Each append is written to the file before Append returns, so
// a killed process loses no record, and fsynced in batches — either
// when the pending bytes pass SyncBytes or when the background flusher
// ticks — so sustained traffic amortizes the fsync cost while bounding
// how much a machine crash can lose.
const journalHeaderLen = 8

// JournalOptions configure append batching.
type JournalOptions struct {
	// SyncEvery is the background fsync interval; <= 0 means 100ms.
	SyncEvery time.Duration
	// SyncBytes forces an fsync once this many bytes are pending;
	// <= 0 means 64 KiB.
	SyncBytes int
}

// Journal is an append-only, CRC-framed record log. Safe for concurrent
// use.
type Journal struct {
	mu      sync.Mutex
	path    string
	f       *os.File
	size    int64 // bytes in the journal
	pending int
	dirty   bool
	syncs   int64
	opts    JournalOptions
	stopc   chan struct{}
	donec   chan struct{}
}

// OpenJournal opens (creating if needed) the journal at path for
// appending and starts the background fsync batcher.
func OpenJournal(path string, opts JournalOptions) (*Journal, error) {
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = 100 * time.Millisecond
	}
	if opts.SyncBytes <= 0 {
		opts.SyncBytes = 64 << 10
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	j := &Journal{
		path:  path,
		f:     f,
		size:  fi.Size(),
		opts:  opts,
		stopc: make(chan struct{}),
		donec: make(chan struct{}),
	}
	go j.flushLoop()
	return j, nil
}

func (j *Journal) flushLoop() {
	defer close(j.donec)
	t := time.NewTicker(j.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			j.Sync()
		case <-j.stopc:
			return
		}
	}
}

// Append adds one record. The record is in the file when Append
// returns, and durable against a machine crash after the next batch
// fsync (at most SyncEvery later).
func (j *Journal) Append(payload []byte) error {
	rec := make([]byte, journalHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(rec[0:4], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(rec[4:8], uint32(len(payload)))
	copy(rec[journalHeaderLen:], payload)
	j.mu.Lock()
	if _, err := j.f.Write(rec); err != nil {
		j.mu.Unlock()
		return err
	}
	j.dirty = true
	j.size += int64(len(rec))
	j.pending += len(rec)
	force := j.pending >= j.opts.SyncBytes
	j.mu.Unlock()
	if force {
		return j.Sync()
	}
	return nil
}

// Syncs reports how many fsync batches have been written since open.
func (j *Journal) Syncs() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncs
}

// Sync fsyncs the records appended since the last sync.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if !j.dirty {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.dirty = false
	j.pending = 0
	j.syncs++
	return nil
}

// Mark returns the journal's end, for a later Trim.
func (j *Journal) Mark() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Trim drops the records appended before mark and keeps the ones
// appended since. Call it once a snapshot holds what the dropped
// records cover. The kept records replace the journal atomically, so a
// crash inside Trim leaves the old journal or the trimmed one.
func (j *Journal) Trim(mark int64) error {
	if mark <= 0 {
		return nil // nothing to drop
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	kept := make([]byte, j.size-min(mark, j.size))
	if _, err := j.f.ReadAt(kept, j.size-int64(len(kept))); err != nil {
		return err
	}
	f, err := replaceFile(j.path, kept)
	if err != nil {
		return err
	}
	j.f.Close()
	j.f = f
	j.size = int64(len(kept))
	j.dirty, j.pending = false, 0
	return nil
}

// Close stops the batcher, syncs, and closes the file.
func (j *Journal) Close() error {
	close(j.stopc)
	<-j.donec
	err := j.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// JournalStats reports what a replay found.
type JournalStats struct {
	// Records is the number of records replayed cleanly.
	Records int
	// Skipped counts records dropped for CRC mismatch.
	Skipped int
	// Truncated is set when the file ends mid-record — the expected
	// signature of a crash between append and fsync.
	Truncated bool
}

// ReplayJournal reads the journal at path, calling fn for each intact
// record in append order. Corrupt records are skipped and counted; a
// torn tail stops replay without error. A missing file is an
// os.IsNotExist error.
func ReplayJournal(path string, fn func(payload []byte) error) (JournalStats, error) {
	var st JournalStats
	data, err := os.ReadFile(path)
	if err != nil {
		return st, err
	}
	off := 0
	for off < len(data) {
		if off+journalHeaderLen > len(data) {
			st.Truncated = true
			break
		}
		crc := binary.LittleEndian.Uint32(data[off : off+4])
		n := int(binary.LittleEndian.Uint32(data[off+4 : off+8]))
		body := off + journalHeaderLen
		if n < 0 || n > len(data) || body+n > len(data) {
			st.Truncated = true
			break
		}
		payload := data[body : body+n]
		off = body + n
		if crc32.ChecksumIEEE(payload) != crc {
			st.Skipped++
			continue
		}
		if err := fn(payload); err != nil {
			return st, err
		}
		st.Records++
	}
	return st, nil
}

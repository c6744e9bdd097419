package durable

import (
	"bufio"
	"encoding/binary"
	"hash/crc32"
	"os"
	"sync"
	"time"
)

// Journal record layout: crc32(payload) uint32 | len(payload) uint32 |
// payload. Appends go through a buffered writer and are fsynced in
// batches — either when the pending bytes pass SyncBytes or when the
// background flusher ticks — so sustained traffic amortizes the fsync
// cost while bounding how much a crash can lose.
const journalHeaderLen = 8

// JournalOptions configure append batching.
type JournalOptions struct {
	// SyncEvery is the background fsync interval; <= 0 means 100ms.
	SyncEvery time.Duration
	// SyncBytes forces a flush+fsync once this many bytes are pending;
	// <= 0 means 64 KiB.
	SyncBytes int
}

// Journal is an append-only, CRC-framed record log. Safe for concurrent
// use.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	w       *bufio.Writer
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
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{
		f:     f,
		w:     bufio.NewWriter(f),
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

// Append adds one record. The record is durable after the next batch
// fsync (at most SyncEvery later), not on return.
func (j *Journal) Append(payload []byte) error {
	var hdr [journalHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:4], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	j.mu.Lock()
	if _, err := j.w.Write(hdr[:]); err != nil {
		j.mu.Unlock()
		return err
	}
	if _, err := j.w.Write(payload); err != nil {
		j.mu.Unlock()
		return err
	}
	j.dirty = true
	j.pending += journalHeaderLen + len(payload)
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

// Sync flushes buffered records and fsyncs the file.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if !j.dirty {
		return nil
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.dirty = false
	j.pending = 0
	j.syncs++
	return nil
}

// Reset truncates the journal to empty. Call after the state it covers
// has been captured in a snapshot.
func (j *Journal) Reset() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.w.Reset(j.f) // drop anything buffered; it is covered by the snapshot
	j.dirty = false
	j.pending = 0
	return j.f.Truncate(0)
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

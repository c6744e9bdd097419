package service

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"ballarus/internal/core"
	"ballarus/internal/durable"
	"ballarus/internal/minic"
)

// SectionRequests is the snapshot section holding the service's own
// warm-set recipes. External layers (e.g. blserve's trace archive)
// register their own sections via RegisterDurableSection.
const SectionRequests = "request"

// recipe is the durable form of a resolved request: everything needed
// to recompute a cached result deterministically. The pipeline is
// content-addressed and deterministic, so persisting inputs instead of
// artifacts keeps the snapshot format independent of every internal
// representation (programs, analyses, profiles) while rewarming all
// three caches on replay.
type recipe struct {
	Source       string     `json:"src"`
	SpillLocals  bool       `json:"spill,omitempty"`
	NoJumpTables bool       `json:"nojt,omitempty"`
	Optimize     bool       `json:"opt,omitempty"`
	Order        core.Order `json:"order"`
	Input        []int64    `json:"input,omitempty"`
	Budget       int64      `json:"budget,omitempty"`
	Seed         int64      `json:"seed,omitempty"`
}

func recipeOf(req *Request) recipe {
	return recipe{
		Source:       req.Source,
		SpillLocals:  req.CompileOpts.SpillLocals,
		NoJumpTables: req.CompileOpts.NoJumpTables,
		Optimize:     req.Optimize,
		Order:        req.Order,
		Input:        req.Input,
		Budget:       req.Budget,
		Seed:         req.Seed,
	}
}

func (r recipe) request() Request {
	return Request{
		Source:      r.Source,
		CompileOpts: minic.Options{SpillLocals: r.SpillLocals, NoJumpTables: r.NoJumpTables},
		Optimize:    r.Optimize,
		Order:       r.Order,
		Input:       r.Input,
		Budget:      r.Budget,
		Seed:        r.Seed,
	}
}

// warmSet is the bounded LRU of completed-request recipes, keyed by run
// key. It is what a snapshot persists for the service's caches.
type warmSet struct {
	mu    sync.Mutex
	max   int
	m     map[string]*list.Element
	order *list.List // of warmEntry, front = most recently used
}

type warmEntry struct {
	key     string
	payload []byte
}

func newWarmSet(max int) *warmSet {
	if max <= 0 {
		max = 4096
	}
	return &warmSet{max: max, m: map[string]*list.Element{}, order: list.New()}
}

func (w *warmSet) contains(key string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	_, ok := w.m[key]
	return ok
}

func (w *warmSet) add(key string, payload []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if e, ok := w.m[key]; ok {
		e.Value.(*warmEntry).payload = payload
		w.order.MoveToFront(e)
		return
	}
	w.m[key] = w.order.PushFront(&warmEntry{key: key, payload: payload})
	for w.order.Len() > w.max {
		back := w.order.Back()
		w.order.Remove(back)
		delete(w.m, back.Value.(*warmEntry).key)
	}
}

func (w *warmSet) len() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.order.Len()
}

// entries snapshots the warm set oldest-first, so replay warms in
// rough insertion order and the most recent work wins LRU position.
func (w *warmSet) entries() []durable.Entry {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]durable.Entry, 0, w.order.Len())
	for e := w.order.Back(); e != nil; e = e.Prev() {
		we := e.Value.(*warmEntry)
		out = append(out, durable.Entry{Section: SectionRequests, Key: we.key, Payload: we.payload})
	}
	return out
}

// DurableSection lets a layer above the service persist its own state
// inside the service snapshot (e.g. blserve's trace archive). Collect
// is called at snapshot time; Restore once per entry of the section
// during Recover. Restore errors skip the entry (counted), never fail
// recovery.
type DurableSection struct {
	Collect func() []durable.Entry
	Restore func(e durable.Entry) error
}

// durability is the service's durable-state machinery; nil when
// disabled.
type durability struct {
	store     *durable.Store
	journal   *durable.Journal
	warm      *warmSet
	snapEvery time.Duration

	mu       sync.Mutex
	sections map[string]DurableSection

	stopc chan struct{}
	donec chan struct{}
}

// WithDurableStore persists service state under dir: a periodic (and
// shutdown-time) snapshot of the warm request set plus registered
// sections, and an append-only journal of accepted requests. Call
// Recover at boot to load it, and Close at shutdown to write the final
// snapshot. An unusable directory surfaces from Recover.
func WithDurableStore(dir string) Option { return func(c *config) { c.durableDir = dir } }

// WithSnapshotInterval sets the periodic snapshot cadence; <= 0 means
// the 30s default. Only meaningful with WithDurableStore.
func WithSnapshotInterval(d time.Duration) Option { return func(c *config) { c.snapEvery = d } }

// WithJournalSyncInterval sets the journal's fsync batching interval;
// <= 0 means the 100ms default. Only meaningful with WithDurableStore.
func WithJournalSyncInterval(d time.Duration) Option { return func(c *config) { c.journalSync = d } }

// WithWatchdog arms a watchdog that restarts the worker pool when it is
// saturated, has waiters, and makes no progress for a full deadline —
// the signature of every worker wedged on an unkillable computation.
// d <= 0 disables it (the default).
func WithWatchdog(d time.Duration) Option { return func(c *config) { c.watchdog = d } }

// initDurability opens the store and journal; called from New when a
// durable directory is configured. Failure disables durability and is
// reported by Recover.
func (s *Service) initDurability() error {
	store, err := durable.NewStore(s.cfg.durableDir)
	if err != nil {
		return err
	}
	journal, err := durable.OpenJournal(store.JournalPath(), durable.JournalOptions{SyncEvery: s.cfg.journalSync})
	if err != nil {
		return err
	}
	warmCap := s.cfg.cacheSize
	d := &durability{
		store:     store,
		journal:   journal,
		warm:      newWarmSet(warmCap),
		snapEvery: s.cfg.snapEvery,
		sections:  map[string]DurableSection{},
		stopc:     make(chan struct{}),
		donec:     make(chan struct{}),
	}
	if d.snapEvery <= 0 {
		d.snapEvery = 30 * time.Second
	}
	s.dur = d
	go s.snapshotLoop()
	return nil
}

func (s *Service) snapshotLoop() {
	defer close(s.dur.donec)
	t := time.NewTicker(s.dur.snapEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.SnapshotNow()
		case <-s.dur.stopc:
			return
		}
	}
}

// RegisterDurableSection registers an external snapshot section. Call
// before Recover so snapshots of the section can be restored.
func (s *Service) RegisterDurableSection(name string, sec DurableSection) {
	if s.dur == nil {
		return
	}
	s.dur.mu.Lock()
	defer s.dur.mu.Unlock()
	s.dur.sections[name] = sec
}

// observeAccepted journals a newly accepted piece of work so a crash
// mid-request can still rewarm it on restart. Requests already in the
// warm set are skipped — their recipes live in the snapshot.
func (s *Service) observeAccepted(req *Request, runKey string) {
	if s.dur == nil || s.dur.warm.contains(runKey) {
		return
	}
	payload, err := json.Marshal(recipeOf(req))
	if err != nil {
		return
	}
	if s.dur.journal.Append(payload) == nil {
		s.met.journalAppends.Add(1)
	}
}

// observeCompleted admits a successful request into the warm set.
func (s *Service) observeCompleted(req *Request, runKey string) {
	if s.dur == nil {
		return
	}
	payload, err := json.Marshal(recipeOf(req))
	if err != nil {
		return
	}
	s.dur.warm.add(runKey, payload)
}

// RecoveryStats reports what Recover found and rewarmed.
type RecoveryStats struct {
	// SnapshotEntries / SnapshotSkipped are intact / dropped snapshot
	// entries (dropped = CRC or decode failure, torn tail, unknown
	// section, or failed replay).
	SnapshotEntries int64 `json:"snapshot_entries"`
	SnapshotSkipped int64 `json:"snapshot_skipped"`
	// JournalReplayed / JournalSkipped are the same for journal records.
	JournalReplayed int64 `json:"journal_replayed"`
	JournalSkipped  int64 `json:"journal_skipped"`
	// Warmed counts requests replayed through the pipeline into the
	// caches.
	Warmed int64 `json:"warmed"`
}

// Recover loads durable state at boot: the snapshot (per-entry
// corruption tolerant), then the journal (requests in flight when the
// last process died), replaying every recipe through the pipeline to
// rewarm the caches. It finishes by writing a fresh snapshot and
// resetting the journal. Corruption is never fatal — it only increments
// the skip counters. The only errors are configuration-level: no
// durable store, or an unusable state directory.
func (s *Service) Recover(ctx context.Context) (RecoveryStats, error) {
	var rs RecoveryStats
	if s.dur == nil {
		if s.durInitErr != nil {
			return rs, fmt.Errorf("service: durable store unavailable: %w", s.durInitErr)
		}
		return rs, errors.New("service: no durable store configured (WithDurableStore)")
	}
	// Replayed work must not be re-journaled; completion still admits it
	// into the warm set.
	s.recovering.Store(true)
	defer s.recovering.Store(false)

	entries, snapStats, err := durable.ReadSnapshotFile(s.dur.store.SnapshotPath())
	if err != nil && !os.IsNotExist(err) {
		return rs, fmt.Errorf("service: read snapshot: %w", err)
	}
	rs.SnapshotSkipped = int64(snapStats.Skipped)
	if snapStats.BadMagic || snapStats.VersionSkew {
		// The whole file is unreadable; count it as one skipped unit so
		// the loss is visible, then boot cold.
		if err == nil {
			rs.SnapshotSkipped++
		}
		entries = nil
	}
	for _, e := range entries {
		if ctx.Err() != nil {
			break
		}
		if e.Section == SectionRequests {
			if s.replayRecipe(ctx, e.Payload) {
				rs.SnapshotEntries++
				rs.Warmed++
			} else {
				rs.SnapshotSkipped++
			}
			continue
		}
		s.dur.mu.Lock()
		sec, ok := s.dur.sections[e.Section]
		s.dur.mu.Unlock()
		if !ok || sec.Restore == nil || sec.Restore(e) != nil {
			rs.SnapshotSkipped++
			continue
		}
		rs.SnapshotEntries++
	}

	jStats, err := durable.ReplayJournal(s.dur.store.JournalPath(), func(payload []byte) error {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if s.replayRecipe(ctx, payload) {
			rs.JournalReplayed++
			rs.Warmed++
		} else {
			rs.JournalSkipped++
		}
		return nil
	})
	if err != nil && !os.IsNotExist(err) && !errors.Is(err, ctx.Err()) {
		return rs, fmt.Errorf("service: replay journal: %w", err)
	}
	rs.JournalSkipped += int64(jStats.Skipped)

	s.met.recordRecovery(rs)
	// The rewarmed state is now the baseline: persist it and drop the
	// journal it subsumes.
	if err := s.SnapshotNow(); err != nil {
		return rs, err
	}
	if err := s.dur.journal.Reset(); err != nil {
		return rs, fmt.Errorf("service: reset journal: %w", err)
	}
	return rs, nil
}

// replayRecipe reruns one persisted recipe through the pipeline,
// bypassing admission control (recovery happens before traffic). A
// successful replay lands in the warm set via the normal completion
// hook. Returns false when the recipe is unusable or the pipeline
// rejects it — a recipe that no longer computes is data loss, not an
// outage.
func (s *Service) replayRecipe(ctx context.Context, payload []byte) bool {
	var r recipe
	if err := json.Unmarshal(payload, &r); err != nil || r.Source == "" {
		return false
	}
	res, err := s.predict(ctx, r.request())
	return err == nil && res != nil
}

// SnapshotNow writes a snapshot of the warm set and every registered
// section, atomically replacing the previous snapshot.
func (s *Service) SnapshotNow() error {
	if s.dur == nil {
		return errors.New("service: no durable store configured")
	}
	entries := s.dur.warm.entries()
	s.dur.mu.Lock()
	for name, sec := range s.dur.sections {
		if sec.Collect == nil {
			continue
		}
		for _, e := range sec.Collect() {
			e.Section = name
			entries = append(entries, e)
		}
	}
	s.dur.mu.Unlock()
	if err := durable.WriteSnapshotFile(s.dur.store.SnapshotPath(), entries); err != nil {
		s.met.snapshotErrors.Add(1)
		return fmt.Errorf("service: write snapshot: %w", err)
	}
	s.met.snapshotWrites.Add(1)
	return nil
}

// Close shuts the service's background machinery down: the watchdog,
// the snapshot loop, and — after a final snapshot — the journal. Safe
// to call on a service without durability, and idempotent.
func (s *Service) Close() error {
	var err error
	s.closeOnce.Do(func() {
		if s.watchdog != nil {
			s.watchdog.Stop()
		}
		if s.dur == nil {
			return
		}
		close(s.dur.stopc)
		<-s.dur.donec
		err = s.SnapshotNow()
		if err == nil {
			// The snapshot covers everything; the journal is obsolete.
			err = s.dur.journal.Reset()
		}
		if cerr := s.dur.journal.Close(); err == nil {
			err = cerr
		}
	})
	return err
}

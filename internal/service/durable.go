package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"ballarus/internal/core"
	"ballarus/internal/durable"
	"ballarus/internal/interp"
	"ballarus/internal/minic"
)

// Snapshot sections: the recipes of the run cache's entries, and the
// tracer's archive, one Trace JSON per entry. Recover skips and counts
// entries of any other section.
const (
	SectionRequests = "request"
	SectionTraces   = "traces"
)

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

// cachedRun is one run-cache entry: the interpreter's result and the
// recipe that computed it, which a snapshot persists.
type cachedRun struct {
	*interp.Result
	recipe recipe
}

// durability is the service's durable-state machinery; nil when
// disabled.
type durability struct {
	store     *durable.Store
	journal   *durable.Journal
	snapEvery time.Duration

	mu sync.Mutex // serializes snapshots

	// recovered is closed when Recover returns. The snapshot loop waits
	// for it: until Recover has rewarmed the run cache, a snapshot of
	// the cache would replace the state on disk with nothing.
	recovered     chan struct{}
	recoveredOnce sync.Once

	stopc chan struct{}
	donec chan struct{}
}

// WithDurableStore persists service state under dir: a periodic (and
// shutdown-time) snapshot of the recipes behind the run cache and of
// the tracer's archive, and an append-only journal of the runs computed
// since the last snapshot. Call Recover at boot to load it; periodic
// snapshots start once it returns. Call Close at shutdown to write the
// final snapshot. An unusable directory surfaces from Recover.
func WithDurableStore(dir string) Option { return func(c *config) { c.durableDir = dir } }

// WithSnapshotInterval sets the periodic snapshot cadence; <= 0 means
// the 30s default. Only meaningful with WithDurableStore.
func WithSnapshotInterval(d time.Duration) Option { return func(c *config) { c.snapEvery = d } }

// WithJournalSyncInterval sets the journal's fsync batching interval;
// <= 0 means the 100ms default. Only meaningful with WithDurableStore.
func WithJournalSyncInterval(d time.Duration) Option { return func(c *config) { c.journalSync = d } }

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
	d := &durability{
		store:     store,
		journal:   journal,
		snapEvery: s.cfg.snapEvery,
		recovered: make(chan struct{}),
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
	select {
	case <-s.dur.recovered:
	case <-s.dur.stopc:
		return
	}
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

// journalRun journals the recipe of a run the run cache just computed,
// so a crash before the next snapshot can still rewarm it. A request
// that never finishes is never journaled, and Recover's own replays are
// not: the snapshot it ends with holds them.
func (s *Service) journalRun(run *cachedRun) {
	if s.dur == nil || s.recovering.Load() {
		return
	}
	payload, err := json.Marshal(run.recipe)
	if err != nil {
		return
	}
	if s.dur.journal.Append(payload) == nil {
		s.met.journalAppends.Add(1)
	}
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
// corruption tolerant), then the journal (the runs computed after that
// snapshot), replaying every recipe through the pipeline, each under
// the request timeout, to rewarm the caches. It finishes by writing a
// fresh snapshot, which empties the journal. Corruption is never fatal
// — it only increments the skip counters, as does a replay that fails
// or times out. The only errors are configuration-level: no durable
// store, or an unusable state directory.
func (s *Service) Recover(ctx context.Context) (RecoveryStats, error) {
	var rs RecoveryStats
	if s.dur == nil {
		if s.durInitErr != nil {
			return rs, fmt.Errorf("service: durable store unavailable: %w", s.durInitErr)
		}
		return rs, errors.New("service: no durable store configured (WithDurableStore)")
	}
	// Hold the snapshot lock throughout: a periodic snapshot taken
	// mid-recovery would trim journal records not yet replayed.
	s.dur.mu.Lock()
	defer s.dur.mu.Unlock()
	defer s.dur.recoveredOnce.Do(func() { close(s.dur.recovered) })
	// Replayed runs are not journaled; they land in the run cache, which
	// the snapshot persists.
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
		var ok bool
		switch e.Section {
		case SectionRequests:
			if ok = s.replayRecipe(ctx, e.Payload); ok {
				rs.Warmed++
			}
		case SectionTraces:
			ok = s.tracer.Load(e.Payload) == nil
		}
		if ok {
			rs.SnapshotEntries++
		} else {
			rs.SnapshotSkipped++
		}
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
	// The rewarmed state is now the baseline: persist it, which drops the
	// journal it subsumes.
	return rs, s.snapshot()
}

// replayRecipe reruns one persisted recipe through the pipeline under
// the request timeout, bypassing admission control (recovery happens
// before traffic). A successful replay lands in the run cache. Returns
// false when the recipe is unusable, the pipeline rejects it or it
// times out — a recipe that no longer computes is data loss, not an
// outage.
func (s *Service) replayRecipe(ctx context.Context, payload []byte) bool {
	var r recipe
	if err := json.Unmarshal(payload, &r); err != nil || r.Source == "" {
		return false
	}
	ctx, cancel := s.withTimeout(ctx)
	defer cancel()
	res, err := s.predict(ctx, r.request())
	return err == nil && res != nil
}

// SnapshotNow writes a snapshot of the run cache's recipes, least
// recently used first so replay leaves the most recent work at the
// front of the LRU, and of the tracer's archive, oldest first,
// atomically replacing the previous snapshot. Once it is on disk, the
// journal drops the records appended before the run cache was read.
func (s *Service) SnapshotNow() error {
	if s.dur == nil {
		return errors.New("service: no durable store configured")
	}
	s.dur.mu.Lock()
	defer s.dur.mu.Unlock()
	return s.snapshot()
}

// snapshot is SnapshotNow with s.dur.mu held.
func (s *Service) snapshot() error {
	// A run is journaled after it enters the run cache, so every record
	// before this mark is of a run the cache read below holds (or has
	// evicted).
	mark := s.dur.journal.Mark()
	keys, runs := s.runs.completed()
	entries := make([]durable.Entry, 0, len(keys))
	for i, run := range runs {
		payload, err := json.Marshal(run.recipe)
		if err != nil {
			continue
		}
		entries = append(entries, durable.Entry{Section: SectionRequests, Key: keys[i], Payload: payload})
	}
	for i, b := range s.tracer.Snapshot() {
		entries = append(entries, durable.Entry{Section: SectionTraces, Key: fmt.Sprintf("t%06d", i), Payload: b})
	}
	if err := durable.WriteSnapshotFile(s.dur.store.SnapshotPath(), entries); err != nil {
		s.met.snapshotErrors.Add(1)
		return fmt.Errorf("service: write snapshot: %w", err)
	}
	s.met.snapshotWrites.Add(1)
	if err := s.dur.journal.Trim(mark); err != nil {
		return fmt.Errorf("service: trim journal: %w", err)
	}
	return nil
}

// Close shuts the service's background machinery down: the snapshot
// loop and — after a final snapshot — the journal. Safe to call on a
// service without durability, and idempotent.
func (s *Service) Close() error {
	var err error
	s.closeOnce.Do(func() {
		if s.dur == nil {
			return
		}
		close(s.dur.stopc)
		<-s.dur.donec
		err = s.SnapshotNow()
		if cerr := s.dur.journal.Close(); err == nil {
			err = cerr
		}
	})
	return err
}

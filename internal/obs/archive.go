package obs

import (
	"encoding/json"
	"errors"
	"hash/fnv"
	"sort"
	"sync"
	"time"
)

// Archive keep reasons, exported as the `reason` label on
// ballarus_trace_archive_kept_total.
const (
	KeepError   = "error"
	KeepHedge   = "hedge"
	KeepSlow    = "slow"
	KeepSampled = "sampled"
)

var archiveReasons = []string{KeepError, KeepHedge, KeepSlow, KeepSampled}

// ArchivePolicy configures tail-sampling for an Archive.
type ArchivePolicy struct {
	// Capacity bounds the number of retained traces (<= 0 means 512).
	Capacity int
	// SlowThreshold marks traces at or above this duration as
	// always-keep (<= 0 means 250ms).
	SlowThreshold time.Duration
	// SampleRate is the probability in [0,1] of keeping an otherwise
	// uninteresting trace. The decision hashes the trace ID with Seed,
	// so it is deterministic per trace and reproducible per seed.
	SampleRate float64
	// Seed perturbs the sampling hash.
	Seed uint64
}

func (p ArchivePolicy) withDefaults() ArchivePolicy {
	if p.Capacity <= 0 {
		p.Capacity = 512
	}
	if p.SlowThreshold <= 0 {
		p.SlowThreshold = 250 * time.Millisecond
	}
	if p.SampleRate < 0 {
		p.SampleRate = 0
	}
	if p.SampleRate > 1 {
		p.SampleRate = 1
	}
	return p
}

// Archive is a durable, size-bounded store of completed traces with a
// tail-sampling admission policy: traces that errored, were hedged, or
// ran slow are always kept; the rest are kept with a deterministic
// seeded probability. It rides the service's durable snapshot machinery
// via Snapshot/Load so interesting traces survive a crash. A nil
// Archive drops everything.
type Archive struct {
	policy ArchivePolicy

	mu   sync.Mutex
	ring []*Trace
	next int

	kept    map[string]*Counter // reason -> counter (nil until Register)
	dropped *Counter
}

// NewArchive creates an archive with the given policy.
func NewArchive(policy ArchivePolicy) *Archive {
	return &Archive{policy: policy.withDefaults()}
}

// Register wires the archive's admission counters and size gauge into
// reg under the ballarus_trace_archive_* families.
func (a *Archive) Register(reg *Registry) {
	if a == nil || reg == nil {
		return
	}
	kept := map[string]*Counter{}
	for _, reason := range archiveReasons {
		kept[reason] = reg.Counter("ballarus_trace_archive_kept_total",
			"Traces admitted to the tail-sampled archive by keep reason.",
			"reason", reason)
	}
	dropped := reg.Counter("ballarus_trace_archive_dropped_total",
		"Traces rejected by the archive's tail-sampling policy.")
	reg.GaugeFunc("ballarus_trace_archive_entries",
		"Traces currently retained in the archive.",
		func() float64 { return float64(a.Len()) })
	a.mu.Lock()
	a.kept = kept
	a.dropped = dropped
	a.mu.Unlock()
}

// keepReason classifies a trace under the tail-sampling policy,
// returning "" for traces that should only be kept probabilistically.
func (a *Archive) keepReason(tr *Trace) string {
	if tr.Err != "" {
		return KeepError
	}
	if tr.Attrs["hedged"] == "true" || tr.Attrs["attempt"] == "hedge" {
		return KeepHedge
	}
	for _, sp := range tr.Spans {
		if sp.Status == StatusError {
			return KeepError
		}
	}
	if tr.Duration >= a.policy.SlowThreshold {
		return KeepSlow
	}
	return ""
}

// sampled is the probabilistic branch of the admission decision: a
// 64-bit FNV-1a hash of the trace ID mixed with the seed, compared
// against SampleRate. Deterministic for a given (trace ID, seed), so
// replays archive the same traces.
func (a *Archive) sampled(id string) bool {
	if a.policy.SampleRate <= 0 {
		return false
	}
	if a.policy.SampleRate >= 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	// Finalize with a splitmix64-style mix so the seed perturbs every
	// bit, then map the top 53 bits onto [0,1) (exact in float64).
	v := h.Sum64() ^ a.policy.Seed
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return float64(v>>11)/float64(1<<53) < a.policy.SampleRate
}

// Offer submits a completed trace to the admission policy. Safe on a
// nil Archive.
func (a *Archive) Offer(tr *Trace) {
	if a == nil || tr == nil {
		return
	}
	reason := a.keepReason(tr)
	if reason == "" && a.sampled(tr.ID) {
		reason = KeepSampled
	}
	a.mu.Lock()
	if reason == "" {
		d := a.dropped
		a.mu.Unlock()
		d.Inc()
		return
	}
	a.insertLocked(tr)
	c := a.kept[reason]
	a.mu.Unlock()
	c.Inc()
}

func (a *Archive) insertLocked(tr *Trace) {
	if len(a.ring) < a.policy.Capacity {
		a.ring = append(a.ring, tr)
	} else {
		a.ring[a.next] = tr
	}
	a.next = (a.next + 1) % a.policy.Capacity
}

// Len returns the number of retained traces.
func (a *Archive) Len() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.ring)
}

// Find returns archived traces with the given trace ID, most recent
// first.
func (a *Archive) Find(id string) []*Trace {
	if a == nil || id == "" {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []*Trace
	for i := 1; i <= len(a.ring); i++ {
		if tr := a.ring[(a.next-i+len(a.ring))%len(a.ring)]; tr.ID == id {
			out = append(out, tr)
		}
	}
	return out
}

// Slowest returns up to n retained traces ordered by descending
// duration.
func (a *Archive) Slowest(n int) []*Trace {
	if a == nil || n <= 0 {
		return nil
	}
	a.mu.Lock()
	out := make([]*Trace, len(a.ring))
	copy(out, a.ring)
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Duration > out[j].Duration })
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// Snapshot serializes each retained trace, oldest first, for the
// durable snapshot machinery. Entries round-trip through Load.
func (a *Archive) Snapshot() [][]byte {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([][]byte, 0, len(a.ring))
	for i := 0; i < len(a.ring); i++ {
		tr := a.ring[(a.next+i)%len(a.ring)]
		b, err := json.Marshal(tr)
		if err != nil {
			continue
		}
		out = append(out, b)
	}
	return out
}

// Load restores one Snapshot entry, bypassing the admission policy
// (the trace already earned its slot before the restart).
func (a *Archive) Load(b []byte) error {
	if a == nil {
		return errors.New("obs: nil archive")
	}
	var tr Trace
	if err := json.Unmarshal(b, &tr); err != nil {
		return err
	}
	if tr.ID == "" {
		return errors.New("obs: archived trace missing id")
	}
	a.mu.Lock()
	a.insertLocked(&tr)
	a.mu.Unlock()
	return nil
}

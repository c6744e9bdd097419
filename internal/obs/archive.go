package obs

import (
	"encoding/json"
	"errors"
	"hash/fnv"
	"slices"
	"sort"
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

// ArchivePolicy configures a tracer's tail-sampled archive: traces that
// errored, were hedged, or ran slow are always kept; the rest are kept
// with a deterministic probability. The archive outlives the recent
// ring, and a durable process persists it through Snapshot and Load so
// the interesting traces survive a crash.
type ArchivePolicy struct {
	// Capacity bounds the number of retained traces (<= 0 means 512).
	Capacity int
	// SlowThreshold marks traces at or above this duration as
	// always-keep (<= 0 means 250ms).
	SlowThreshold time.Duration
	// SampleRate is the probability in [0,1] of keeping an otherwise
	// uninteresting trace. The decision hashes the trace ID, so every
	// process that sees a trace makes the same one.
	SampleRate float64
}

func (p ArchivePolicy) withDefaults() ArchivePolicy {
	if p.Capacity <= 0 {
		p.Capacity = 512
	}
	if p.SlowThreshold <= 0 {
		p.SlowThreshold = 250 * time.Millisecond
	}
	p.SampleRate = min(max(p.SampleRate, 0), 1)
	return p
}

// Register wires the archive's admission counters and size gauge into
// reg under the ballarus_trace_archive_* families.
func (t *Tracer) Register(reg *Registry) {
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
		func() float64 { return float64(t.Archived()) })
	t.mu.Lock()
	t.kept = kept
	t.dropped = dropped
	t.mu.Unlock()
}

// keepReason classifies a finished trace under the archive policy,
// returning "" for a trace the archive drops.
func (t *Tracer) keepReason(tr *Trace) string {
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
	if tr.Duration >= t.policy.SlowThreshold {
		return KeepSlow
	}
	if t.sampled(tr.ID) {
		return KeepSampled
	}
	return ""
}

// sampled is the probabilistic branch of the admission decision: a
// 64-bit FNV-1a hash of the trace ID, compared against SampleRate.
// Deterministic for a given trace ID, so replicas and replays archive
// the same traces.
func (t *Tracer) sampled(id string) bool {
	if t.policy.SampleRate <= 0 {
		return false
	}
	if t.policy.SampleRate >= 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(id))
	// Finalize with a splitmix64-style mix so every bit of the hash
	// moves the result, then map the top 53 bits onto [0,1) (exact in
	// float64).
	v := h.Sum64()
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return float64(v>>11)/float64(1<<53) < t.policy.SampleRate
}

// Archived returns the number of traces the archive holds.
func (t *Tracer) Archived() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.archive.buf)
}

// Slowest returns up to n archived traces ordered by descending
// duration.
func (t *Tracer) Slowest(n int) []*Trace {
	if n <= 0 {
		return nil
	}
	t.mu.Lock()
	out := slices.Clone(t.archive.buf)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Duration > out[j].Duration })
	return out[:min(n, len(out))]
}

// Snapshot serializes each archived trace, oldest first. Entries
// round-trip through Load.
func (t *Tracer) Snapshot() [][]byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([][]byte, 0, len(t.archive.buf))
	for i := len(t.archive.buf) - 1; i >= 0; i-- {
		b, err := json.Marshal(t.archive.newest(i))
		if err != nil {
			continue
		}
		out = append(out, b)
	}
	return out
}

// Load restores one Snapshot entry into the archive, bypassing the
// admission policy (the trace already earned its slot before the
// restart).
func (t *Tracer) Load(b []byte) error {
	var tr Trace
	if err := json.Unmarshal(b, &tr); err != nil {
		return err
	}
	if tr.ID == "" {
		return errors.New("obs: archived trace missing id")
	}
	t.mu.Lock()
	t.archive.push(&tr)
	t.mu.Unlock()
	return nil
}

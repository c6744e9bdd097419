package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// DurationBuckets are the default latency buckets, in seconds: 10µs to
// 10s, roughly logarithmic. They cover everything from a cached hit to
// a budget-bound interpreter run.
var DurationBuckets = []float64{
	.00001, .000025, .0001, .00025, .001, .0025, .01, .025, .1, .25, 1, 2.5, 10,
}

// Histogram is a fixed-bucket histogram. Observations are lock-free —
// two uncontended atomic adds, cheap enough for every pipeline stage
// of every request — and a nil Histogram ignores them. Bucket counts
// are stored per-bucket (non-cumulative); the total count and the
// cumulative buckets are derived at exposition time. The sum is kept
// in nanounit fixed point (1e-9 of the observed unit), which bounds
// it to ~292 observation-unit-years — far beyond any scrape horizon —
// in exchange for making it a single atomic add.
type Histogram struct {
	bounds    []float64                  // ascending upper bounds; +Inf implicit
	counts    []atomic.Int64             // len(bounds)+1, last is the +Inf bucket
	sum       atomic.Int64               // nanounits
	exemplars []atomic.Pointer[exemplar] // len(bounds)+1, latest trace per bucket
}

// exemplar links one bucket to the most recent traced observation that
// landed in it, so a bad latency bucket points at a concrete trace.
type exemplar struct {
	traceID string
	value   float64
}

// sumScale converts observed values to the fixed-point sum unit.
const sumScale = 1e9

func newHistogram(buckets []float64) *Histogram {
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return &Histogram{
		bounds:    bounds,
		counts:    make([]atomic.Int64, len(bounds)+1),
		exemplars: make([]atomic.Pointer[exemplar], len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(v * sumScale))
}

// ObserveDuration records a latency in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if h == nil {
		return
	}
	v := d.Seconds()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d)) // sumScale == nanoseconds exactly
}

// ObserveDurationExemplar records a latency in seconds with an optional
// trace-ID exemplar.
func (h *Histogram) ObserveDurationExemplar(d time.Duration, traceID string) {
	if h == nil {
		return
	}
	v := d.Seconds()
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d)) // sumScale == nanoseconds exactly
	if traceID != "" {
		h.exemplars[i].Store(&exemplar{traceID: traceID, value: v})
	}
}

// Count returns how many values have been observed.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Duration returns the sum of the observed durations, exact to the
// nanosecond.
func (h *Histogram) Duration() time.Duration { return time.Duration(h.sum.Load()) }

// hasExemplars reports whether any bucket has recorded an exemplar.
func (h *Histogram) hasExemplars() bool {
	for i := range h.exemplars {
		if h.exemplars[i].Load() != nil {
			return true
		}
	}
	return false
}

// writeExemplars renders one gauge sample per bucket exemplar under a
// separate <name>_exemplar family: the sample value is the observed
// value and the trace_id label links it to a trace.
func (h *Histogram) writeExemplars(b *strings.Builder, name string, keys, vals []string) {
	for i := range h.exemplars {
		e := h.exemplars[i].Load()
		if e == nil {
			continue
		}
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatValue(h.bounds[i])
		}
		fmt.Fprintf(b, "%s%s %s\n", name,
			labelString(keys, vals, "le", le, "trace_id", e.traceID), formatValue(e.value))
	}
}

// write renders the histogram's cumulative buckets, sum, and count.
func (h *Histogram) write(b *strings.Builder, name string, keys, vals []string) {
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, labelString(keys, vals, "le", formatValue(bound)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, labelString(keys, vals, "le", "+Inf"), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, labelString(keys, vals), formatValue(float64(h.sum.Load())/sumScale))
	fmt.Fprintf(b, "%s_count%s %d\n", name, labelString(keys, vals), cum)
}

// Package trace implements Section 6 of the paper: measuring branch
// prediction by the sequences of instructions it yields between breaks in
// control. A break in control is a mispredicted conditional branch, an
// indirect jump other than a procedure return, or an indirect call.
//
// The input is the compact event stream package interp emits: one record
// per executed conditional branch / indirect transfer with the instruction
// count since the previous event, taken live from a run or from a
// materialized trace. From the events and a static prediction vector the
// package computes the sequence-length distribution (1000 buckets of
// width 10, as the paper does), the profile-style IPBC average, the
// dividing length, and the closed-form model f(m,s) = 1-(1-m)^s.
package trace

import (
	"math"

	"ballarus/internal/core"
	"ballarus/internal/interp"
	"ballarus/internal/profile"
)

// Bucket granularity, matching the paper: sequences of length [10j,10j+9]
// land in bucket j; bucket 999 holds everything >= 9990.
const (
	BucketWidth = 10
	NumBuckets  = 1000
)

// Dist is the sequence-length distribution induced by one predictor over
// one trace. NewDist starts one; Event and End feed it a run's events as
// they stream, so no trace need be held.
type Dist struct {
	Count [NumBuckets]int64 // sequences per bucket
	Instr [NumBuckets]int64 // total instructions in those sequences

	TotalInstr int64 // instructions executed
	Breaks     int64 // breaks in control
	Branches   int64 // conditional branches executed
	Mispred    int64 // of which mispredicted

	v   Vector // the predictor
	seq int64  // instructions in the open sequence
}

// Vector is a static prediction for every branch ID: true = predict taken.
type Vector []bool

// PredictionVector converts core predictions to a taken/fall vector.
func PredictionVector(preds []core.Prediction) Vector {
	v := make(Vector, len(preds))
	for i, p := range preds {
		v[i] = p.Taken()
	}
	return v
}

// PerfectVector builds the perfect static predictor's vector from an edge
// profile of the same run.
func PerfectVector(p *profile.Profile) Vector {
	v := make(Vector, p.Set.Len())
	for i := range v {
		v[i] = p.PerfectTaken(i)
	}
	return v
}

// NewDist starts an empty distribution under the prediction vector v.
func NewDist(v Vector) *Dist { return &Dist{v: v} }

// Event extends the open sequence by one trace event, closing it at a
// break in control: an indirect transfer or a mispredicted branch.
func (d *Dist) Event(ev interp.Event) {
	d.seq += int64(ev.Delta)
	d.TotalInstr += int64(ev.Delta)
	if ev.Kind == interp.EvBranch {
		d.Branches++
		if d.v[ev.Branch] == ev.Taken {
			return
		}
		d.Mispred++
	}
	d.record(d.seq)
	d.Breaks++
	d.seq = 0
}

// End closes the run. tailLen is the instruction count after the last
// event (interp.Result.TailLen); the trailing partial sequence is
// included in the histogram but is not a break.
func (d *Dist) End(tailLen int64) {
	d.seq += tailLen
	d.TotalInstr += tailLen
	if d.seq > 0 {
		d.record(d.seq)
	}
	d.seq = 0
}

// Sequences partitions a materialized trace into sequences at each break
// in control under the given prediction vector and returns the
// distribution: NewDist, then Event for each event, then End(tailLen).
func Sequences(events []interp.Event, tailLen int64, v Vector) *Dist {
	d := NewDist(v)
	for _, ev := range events {
		d.Event(ev)
	}
	d.End(tailLen)
	return d
}

func (d *Dist) record(seq int64) {
	j := seq / BucketWidth
	if j >= NumBuckets {
		j = NumBuckets - 1
	}
	d.Count[j]++
	d.Instr[j] += seq
}

// IPBC returns the profile-style average: total instructions per break in
// control. With no breaks it returns the total instruction count.
func (d *Dist) IPBC() float64 {
	if d.Breaks == 0 {
		return float64(d.TotalInstr)
	}
	return float64(d.TotalInstr) / float64(d.Breaks)
}

// MissRate returns the percentage of executed conditional branches the
// predictor mispredicted.
func (d *Dist) MissRate() float64 {
	if d.Branches == 0 {
		return 0
	}
	return 100 * float64(d.Mispred) / float64(d.Branches)
}

// Point is one (x, y) sample of a cumulative distribution.
type Point struct {
	X int64
	Y float64 // percent
}

// CumulativeInstr returns, for each bucket boundary x, the percentage of
// executed instructions accounted for by sequences of length < x — the
// quantity Graphs 4 and 6-11 plot.
func (d *Dist) CumulativeInstr() []Point {
	return d.cumulative(d.Instr[:], d.TotalInstr)
}

// CumulativeBreaks returns the percentage of sequences (breaks in control)
// of length < x — the Graph 5 view.
func (d *Dist) CumulativeBreaks() []Point {
	var total int64
	for _, c := range d.Count {
		total += c
	}
	counts := make([]int64, NumBuckets)
	for i, c := range d.Count {
		counts[i] = c
	}
	return d.cumulative(counts, total)
}

func (d *Dist) cumulative(per []int64, total int64) []Point {
	pts := make([]Point, 0, NumBuckets)
	var acc int64
	for j := 0; j < NumBuckets; j++ {
		acc += per[j]
		y := 0.0
		if total > 0 {
			y = 100 * float64(acc) / float64(total)
		}
		pts = append(pts, Point{X: int64((j + 1) * BucketWidth), Y: y})
	}
	return pts
}

// DividingLength returns the sequence length at which 50% of the executed
// instructions are accounted for — the paper's preferred summary where the
// IPBC average misleads.
func (d *Dist) DividingLength() int64 {
	var acc int64
	for j := 0; j < NumBuckets; j++ {
		acc += d.Instr[j]
		if 2*acc >= d.TotalInstr {
			return int64((j + 1) * BucketWidth)
		}
	}
	return int64(NumBuckets * BucketWidth)
}

// Model evaluates the paper's closed-form model: with unit basic blocks
// and independent branches of miss rate m, the fraction of executed
// instructions in sequences of length <= s is f(m,s) = 1-(1-m)^s.
func Model(m float64, s int64) float64 {
	return 1 - math.Pow(1-m, float64(s))
}

// ModelSeries samples the model as percentages for s = 1..maxS, the
// Graph 12 curves.
func ModelSeries(m float64, maxS int64) []Point {
	pts := make([]Point, 0, maxS)
	for s := int64(1); s <= maxS; s++ {
		pts = append(pts, Point{X: s, Y: 100 * Model(m, s)})
	}
	return pts
}

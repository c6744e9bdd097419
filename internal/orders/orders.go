// Package orders implements Section 5's ordering experiments: evaluating
// all 7! = 5040 priority orders of the non-loop heuristics over a set of
// benchmarks (Graph 1), and the C(22,11) = 705,432-trial generalization
// experiment in which the best order for each half of the benchmarks is
// scored on all of them (Table 4, Graphs 2 and 3).
//
// Evaluating an order is made cheap by collapsing each benchmark's
// non-loop branches by heuristic-applicability mask: for a 7-bit mask m
// and heuristic h, the collapsed data records the dynamic misses h incurs
// on all branches whose applicable set is exactly m. An order's miss count
// is then a sum over at most 127 masks instead of all branches.
//
// Both experiments run in-process, parallel over GOMAXPROCS goroutines:
// the sweep over contiguous order-index ranges, the subset experiment
// over low masks. Every matrix cell and trial outcome is a deterministic
// function of its inputs alone, so the results do not depend on how the
// work is split.
package orders

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"ballarus/internal/core"
	"ballarus/internal/profile"
)

// NumOrders is 7! — every total priority order of the seven heuristics.
const NumOrders = 5040

// checkEvery is how many trials the hot loops run between context
// cancellation checks.
const checkEvery = 64

// BenchData is one benchmark's non-loop branch population collapsed by
// heuristic-applicability mask.
type BenchData struct {
	Name string

	Dyn  [128]int64                     // dynamic branches per mask
	Miss [128][core.NumHeuristics]int64 // misses if heuristic h predicts mask-m branches

	DefaultDyn  int64 // dynamic branches covered by no heuristic
	DefaultMiss int64 // misses of the Default (random) prediction on them

	TotalNonLoop int64 // all dynamic non-loop branches
}

// Collapse reduces an analysis + profile to mask-indexed counts.
func Collapse(a *core.Analysis, p *profile.Profile, name string) *BenchData {
	d := &BenchData{Name: name}
	for i := range a.Branches {
		b := &a.Branches[i]
		if b.Class != core.NonLoop {
			continue
		}
		dyn := p.Executed(b.ID)
		if dyn == 0 {
			continue
		}
		d.TotalNonLoop += dyn
		mask := 0
		for h := 0; h < core.NumHeuristics; h++ {
			if b.Heur[h] != core.PredNone {
				mask |= 1 << h
			}
		}
		if mask == 0 {
			d.DefaultDyn += dyn
			d.DefaultMiss += p.Misses(b.ID, b.DefaultPred.Taken())
			continue
		}
		d.Dyn[mask] += dyn
		for h := 0; h < core.NumHeuristics; h++ {
			if b.Heur[h] != core.PredNone {
				d.Miss[mask][h] += p.Misses(b.ID, b.Heur[h].Taken())
			}
		}
	}
	return d
}

// MissRate returns the benchmark's non-loop miss percentage under the
// order (first applicable heuristic wins; Default covers the rest).
func (d *BenchData) MissRate(order core.Order) float64 {
	if d.TotalNonLoop == 0 {
		return 0
	}
	miss := d.DefaultMiss
	for mask := 1; mask < 128; mask++ {
		if d.Dyn[mask] == 0 {
			continue
		}
		for _, h := range order {
			if mask&(1<<h) != 0 {
				miss += d.Miss[mask][h]
				break
			}
		}
	}
	return 100 * float64(miss) / float64(d.TotalNonLoop)
}

var (
	allOnce  sync.Once
	allPerms []core.Order
)

// All enumerates every order, lexicographically over heuristic IDs, so
// an order index names the same order in every run and every table. The
// returned slice is a fresh copy each call.
func All() []core.Order {
	allOnce.Do(func() {
		perms := make([]core.Order, 0, NumOrders)
		var h [core.NumHeuristics]core.Heuristic
		for i := range h {
			h[i] = core.Heuristic(i)
		}
		var rec func(k int)
		rec = func(k int) {
			if k == len(h) {
				perms = append(perms, core.Order(h))
				return
			}
			for i := k; i < len(h); i++ {
				h[k], h[i] = h[i], h[k]
				rec(k + 1)
				h[k], h[i] = h[i], h[k]
			}
		}
		rec(0)
		// The recursive swap enumeration is not lexicographic; sort to make
		// the index order canonical.
		sort.Slice(perms, func(a, b int) bool {
			for i := 0; i < core.NumHeuristics; i++ {
				if perms[a][i] != perms[b][i] {
					return perms[a][i] < perms[b][i]
				}
			}
			return false
		})
		allPerms = perms
	})
	out := make([]core.Order, NumOrders)
	copy(out, allPerms)
	return out
}

// Binomial returns C(n, k), or 0 when k is out of range.
func Binomial(n, k int) int64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	v := int64(1)
	for i := 1; i <= k; i++ {
		v = v * int64(n-k+i) / int64(i)
	}
	return v
}

// Sweep holds the per-order, per-benchmark miss-rate matrix.
type Sweep struct {
	Orders  []core.Order
	Benches []*BenchData
	M       [][]float64 // [order][bench], percent
}

// NewSweepCtx evaluates every order on every benchmark, parallel over
// contiguous order ranges. Each cell is the benchmark's MissRate under
// the order, whichever goroutine computes it. Cancellation is checked
// every checkEvery orders.
func NewSweepCtx(ctx context.Context, benches []*BenchData) (*Sweep, error) {
	s := &Sweep{Orders: All(), Benches: benches}
	s.M = make([][]float64, len(s.Orders))
	nw := runtime.GOMAXPROCS(0)
	chunk := (len(s.Orders) + nw - 1) / nw
	var wg sync.WaitGroup
	errs := make([]error, nw)
	for w := 0; w < nw; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(s.Orders))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			for o := lo; o < hi; o++ {
				if (o-lo)%checkEvery == 0 {
					if err := ctx.Err(); err != nil {
						errs[w] = err
						return
					}
				}
				row := make([]float64, len(benches))
				for b, bd := range benches {
					row[b] = bd.MissRate(s.Orders[o])
				}
				s.M[o] = row
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// Avg returns each order's average miss rate over the benchmarks whose
// indices are not excluded.
func (s *Sweep) Avg(exclude map[int]bool) []float64 {
	out := make([]float64, len(s.Orders))
	n := 0
	for b := range s.Benches {
		if !exclude[b] {
			n++
		}
	}
	if n == 0 {
		return out
	}
	for o := range s.Orders {
		sum := 0.0
		for b := range s.Benches {
			if !exclude[b] {
				sum += s.M[o][b]
			}
		}
		out[o] = sum / float64(n)
	}
	return out
}

// SortedAvg returns Avg sorted ascending — the Graph 1 series.
func (s *Sweep) SortedAvg(exclude map[int]bool) []float64 {
	avg := s.Avg(exclude)
	sort.Float64s(avg)
	return avg
}

// BestOrder returns the order index minimizing the average miss rate over
// the included benchmarks (ties go to the lower index).
func (s *Sweep) BestOrder(exclude map[int]bool) int {
	avg := s.Avg(exclude)
	best := 0
	for o := 1; o < len(avg); o++ {
		if avg[o] < avg[best] {
			best = o
		}
	}
	return best
}

// SubsetResult aggregates the generalization experiment: for every k-subset
// of the benchmarks, the order minimizing the subset's average miss rate
// is recorded.
type SubsetResult struct {
	Trials    int
	BestCount []int // per order index: trials in which it was chosen best
}

// DistinctOrders returns how many orders were ever chosen.
func (r *SubsetResult) DistinctOrders() int {
	n := 0
	for _, c := range r.BestCount {
		if c > 0 {
			n++
		}
	}
	return n
}

// Ranked returns order indices sorted by descending frequency (ties by
// index), keeping only chosen orders.
func (r *SubsetResult) Ranked() []int {
	var idx []int
	for o, c := range r.BestCount {
		if c > 0 {
			idx = append(idx, o)
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		if r.BestCount[idx[a]] != r.BestCount[idx[b]] {
			return r.BestCount[idx[a]] > r.BestCount[idx[b]]
		}
		return idx[a] < idx[b]
	})
	return idx
}

// subsetScorer scores k-subset trials by meeting in the middle: per-order
// partial sums over every subset of each benchmark half are precomputed,
// so scoring one subset is a vector add + argmin. A trial's outcome
// depends only on the sweep and its two half-masks, so low masks can be
// scored in any order on any goroutine.
type subsetScorer struct {
	k      int
	loBits int
	hiBits int
	loSum  [][]float64
	hiSum  [][]float64
}

// newSubsetScorer precomputes the half-mask partial sums for k-subsets of
// the sweep's benchmarks.
func (s *Sweep) newSubsetScorer(k int) (*subsetScorer, error) {
	n := len(s.Benches)
	if k < 0 || k > n {
		return nil, fmt.Errorf("orders: subset size %d outside [0,%d]", k, n)
	}
	sc := &subsetScorer{k: k, loBits: n / 2}
	sc.hiBits = n - sc.loBits
	sc.loSum = buildHalf(s, 0, sc.loBits)
	sc.hiSum = buildHalf(s, sc.loBits, sc.hiBits)
	return sc, nil
}

// scoreLowMask scores every k-subset whose low half is lm, accumulating
// into counts. It returns the number of trials scored.
func (sc *subsetScorer) scoreLowMask(lm int, counts []int) int {
	need := sc.k - bits.OnesCount(uint(lm))
	if need < 0 || need > sc.hiBits {
		return 0
	}
	lrow := sc.loSum[lm]
	trials := 0
	for _, hm := range masksWithPopcount(sc.hiBits, need) {
		hrow := sc.hiSum[hm]
		best := 0
		bv := lrow[0] + hrow[0]
		for o := 1; o < len(lrow); o++ {
			v := lrow[o] + hrow[o]
			if v < bv {
				bv = v
				best = o
			}
		}
		counts[best]++
		trials++
	}
	return trials
}

// SubsetOpts tunes the exact and sampled experiment drivers.
type SubsetOpts struct {
	// Progress, when set, is called with the cumulative and total trial
	// counts as the experiment advances. It may be called concurrently
	// and must be cheap.
	Progress func(done, total int64)
}

// SubsetsOpts runs the experiment exactly over every k-subset of the
// sweep's benchmarks, parallel over low masks. Per-order counts are
// integers, so summing the goroutines' tallies is exact in any order.
func (s *Sweep) SubsetsOpts(ctx context.Context, k int, opts SubsetOpts) (*SubsetResult, error) {
	sc, err := s.newSubsetScorer(k)
	if err != nil {
		return nil, err
	}
	total := Binomial(len(s.Benches), k)
	nw := runtime.GOMAXPROCS(0)
	counts := make([][]int, nw)
	trials := make([]int, nw)
	errs := make([]error, nw)
	var done atomic.Int64
	var wg sync.WaitGroup
	work := make(chan int, 64)
	for w := 0; w < nw; w++ {
		counts[w] = make([]int, len(s.Orders))
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for lm := range work {
				if err := ctx.Err(); err != nil {
					errs[w] = err
					continue // drain the channel
				}
				t := sc.scoreLowMask(lm, counts[w])
				trials[w] += t
				if t > 0 && opts.Progress != nil {
					opts.Progress(done.Add(int64(t)), total)
				}
			}
		}(w)
	}
	for lm := 0; lm < 1<<sc.loBits; lm++ {
		work <- lm
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res := &SubsetResult{BestCount: make([]int, len(s.Orders))}
	for w := 0; w < nw; w++ {
		res.Trials += trials[w]
		for o, c := range counts[w] {
			res.BestCount[o] += c
		}
	}
	return res, nil
}

// SubsetsCtx runs the exact experiment with default options.
func (s *Sweep) SubsetsCtx(ctx context.Context, k int) (*SubsetResult, error) {
	return s.SubsetsOpts(ctx, k, SubsetOpts{})
}

// buildHalf precomputes, for every subset mask of benches
// [base, base+width), the per-order sum of miss rates.
func buildHalf(s *Sweep, base, width int) [][]float64 {
	out := make([][]float64, 1<<width)
	out[0] = make([]float64, len(s.Orders))
	for m := 1; m < 1<<width; m++ {
		low := m & (-m)
		rest := m ^ low
		b := base + bits.TrailingZeros(uint(low))
		row := make([]float64, len(s.Orders))
		prev := out[rest]
		for o := range row {
			row[o] = prev[o] + s.M[o][b]
		}
		out[m] = row
	}
	return out
}

// SubsetsSampledOpts runs the experiment over `trials` random k-subsets —
// the quick mode used in tests and short benchmark runs. The trial stream
// is a deterministic function of (sweep, k, trials, seed): the single rng
// stream is inherently serial, so the sampled mode runs on one goroutine.
// Cancellation is checked every checkEvery trials.
func (s *Sweep) SubsetsSampledOpts(ctx context.Context, k, trials int, seed int64, opts SubsetOpts) (*SubsetResult, error) {
	n := len(s.Benches)
	rng := rand.New(rand.NewSource(seed))
	res := &SubsetResult{BestCount: make([]int, len(s.Orders))}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for t := 0; t < trials; t++ {
		if t%checkEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		chosen := idx[:k]
		best, bv := 0, math.Inf(1)
		for o := range s.Orders {
			row := s.M[o]
			sum := 0.0
			for _, b := range chosen {
				sum += row[b]
			}
			if sum < bv {
				bv = sum
				best = o
			}
		}
		res.BestCount[best]++
		res.Trials++
		if opts.Progress != nil {
			opts.Progress(int64(res.Trials), int64(trials))
		}
	}
	return res, nil
}

// SubsetsSampledCtx runs the sampled experiment with default options.
func (s *Sweep) SubsetsSampledCtx(ctx context.Context, k, trials int, seed int64) (*SubsetResult, error) {
	return s.SubsetsSampledOpts(ctx, k, trials, seed, SubsetOpts{})
}

// masksWithPopcount enumerates all masks over `width` bits with exactly
// `count` set bits, in Gosper order. Results are cached per (width,count).
var maskCache sync.Map

func masksWithPopcount(width, count int) []int {
	key := width<<8 | count
	if v, ok := maskCache.Load(key); ok {
		return v.([]int)
	}
	var out []int
	if count == 0 {
		out = []int{0}
	} else if count <= width {
		m := (1 << count) - 1
		limit := 1 << width
		for m < limit {
			out = append(out, m)
			// Gosper's hack: next mask with the same popcount.
			c := m & (-m)
			r := m + c
			m = (((r ^ m) >> 2) / c) | r
		}
	}
	maskCache.Store(key, out)
	return out
}

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
// The sweep runs in-process, parallel over GOMAXPROCS goroutines on
// contiguous order-index ranges; every matrix cell is a deterministic
// function of its inputs alone, so the matrix does not depend on how the
// work is split. The subset experiment first drops every order that a
// lower-index order dominates on every benchmark (49 of the 5040 survive
// on the suite): such an order never wins a trial, so the exact 705,432
// trials then take a fraction of a second on one goroutine.
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

// undominated returns, ascending, the indices of the orders that no
// lower-index order dominates. Order p dominates order o when p < o and
// p's miss rate is at most o's on every benchmark. Rounded float addition
// is monotone, so p's sum over any subset, added in any one sequence, is
// then at most o's, and the argmin's ties go to the lower index: o never
// wins a trial. Scoring only these orders, ascending, therefore gives
// every order the same trial count as scoring all of them. Dominance is
// transitive, so checking each order against the survivors so far is
// enough.
func (s *Sweep) undominated() []int {
	var keep []int
	for o, row := range s.M {
		dominated := false
		for _, p := range keep {
			if rowLE(s.M[p], row) {
				dominated = true
				break
			}
		}
		if !dominated {
			keep = append(keep, o)
		}
	}
	return keep
}

// rowLE reports whether a[b] <= c[b] for every benchmark b.
func rowLE(a, c []float64) bool {
	for b, v := range a {
		if v > c[b] {
			return false
		}
	}
	return true
}

// SubsetsCtx runs the experiment exactly over every k-subset of the
// sweep's benchmarks, scoring only the undominated orders.
func (s *Sweep) SubsetsCtx(ctx context.Context, k int) (*SubsetResult, error) {
	return s.subsets(ctx, k, s.undominated())
}

// subsets scores every k-subset over the candidate orders cand, ascending,
// by meeting in the middle: the per-order sums over every subset of each
// benchmark half are precomputed, so scoring one subset is a vector add
// and an argmin. Cancellation is checked once per low-half mask.
func (s *Sweep) subsets(ctx context.Context, k int, cand []int) (*SubsetResult, error) {
	if err := s.checkSubsetSize(k); err != nil {
		return nil, err
	}
	n := len(s.Benches)
	nc := len(cand)
	loBits := n / 2
	hiBits := n - loBits
	lo := halfSums(s, cand, 0, loBits)
	hi := halfSums(s, cand, loBits, hiBits)
	hiMasks := make([][]int, hiBits+1)
	for c := range hiMasks {
		hiMasks[c] = masksWithPopcount(hiBits, c)
	}
	res := &SubsetResult{BestCount: make([]int, len(s.Orders))}
	for lm := 0; lm < 1<<loBits; lm++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		need := k - bits.OnesCount(uint(lm))
		if need < 0 || need > hiBits {
			continue
		}
		lrow := lo[lm*nc : (lm+1)*nc]
		for _, hm := range hiMasks[need] {
			hrow := hi[hm*nc : (hm+1)*nc]
			best, bv := 0, lrow[0]+hrow[0]
			for c := 1; c < nc; c++ {
				if v := lrow[c] + hrow[c]; v < bv {
					best, bv = c, v
				}
			}
			res.BestCount[cand[best]]++
			res.Trials++
		}
	}
	return res, nil
}

// halfSums precomputes, for every subset mask m of benches
// [base, base+width), the sum of each candidate order's miss rates, as
// row m of a flat matrix with one column per candidate.
func halfSums(s *Sweep, cand []int, base, width int) []float64 {
	nc := len(cand)
	out := make([]float64, (1<<width)*nc)
	for m := 1; m < 1<<width; m++ {
		low := m & (-m)
		b := base + bits.TrailingZeros(uint(low))
		prev := out[(m^low)*nc:]
		row := out[m*nc : (m+1)*nc]
		for c, o := range cand {
			row[c] = prev[c] + s.M[o][b]
		}
	}
	return out
}

// SubsetsSampledCtx runs the experiment over `trials` random k-subsets.
// The trial stream is a deterministic function of (sweep, k, trials,
// seed), and only undominated orders are scored. Cancellation is checked
// every checkEvery trials.
func (s *Sweep) SubsetsSampledCtx(ctx context.Context, k, trials int, seed int64) (*SubsetResult, error) {
	if err := s.checkSubsetSize(k); err != nil {
		return nil, err
	}
	n := len(s.Benches)
	cand := s.undominated()
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
		for _, o := range cand {
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
	}
	return res, nil
}

// checkSubsetSize rejects a subset size the sweep's benchmarks cannot
// fill.
func (s *Sweep) checkSubsetSize(k int) error {
	if n := len(s.Benches); k < 0 || k > n {
		return fmt.Errorf("orders: subset size %d outside [0,%d]", k, n)
	}
	return nil
}

// masksWithPopcount enumerates all masks over `width` bits with exactly
// `count` set bits, in Gosper order.
func masksWithPopcount(width, count int) []int {
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
	return out
}

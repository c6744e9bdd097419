package orders

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"ballarus/internal/core"
	"ballarus/internal/minic"
	"ballarus/internal/profile"

	"ballarus/internal/interp"
)

func TestAllOrders(t *testing.T) {
	all := All()
	if len(all) != NumOrders {
		t.Fatalf("got %d orders, want %d", len(all), NumOrders)
	}
	seen := map[core.Order]bool{}
	for _, o := range all {
		if !o.Valid() {
			t.Fatalf("invalid order %v", o)
		}
		if seen[o] {
			t.Fatalf("duplicate order %v", o)
		}
		seen[o] = true
	}
	// Lexicographic: the first order is the identity permutation.
	if all[0] != core.SectionOrder {
		t.Errorf("first order %v, want definition order", all[0])
	}
	// And the enumeration is sorted.
	for i := 1; i < len(all); i++ {
		if !orderLess(all[i-1], all[i]) {
			t.Fatalf("orders not sorted at %d", i)
		}
	}
}

func orderLess(a, b core.Order) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// newSweep runs NewSweepCtx under a background context.
func newSweep(t *testing.T, benches []*BenchData) *Sweep {
	t.Helper()
	s, err := NewSweepCtx(context.Background(), benches)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// realBench compiles and runs a small program, returning its analysis and
// profile for collapse testing.
func realBench(t *testing.T) (*core.Analysis, *profile.Profile) {
	t.Helper()
	src := `
struct node { int v; struct node *next; };
int g;
int work(struct node *p, int x) {
	int s = 0;
	while (p != 0) {
		if (p->v < 0) { s--; } else { s += p->v; }
		if (x > 0) { g = s; }
		p = p->next;
	}
	if (s == 0) { return -1; }
	return s;
}
int main() {
	struct node *l = 0;
	int i;
	for (i = 0; i < 50; i++) {
		struct node *n = (struct node*)alloc(sizeof(struct node));
		n->v = i - 5;
		n->next = l;
		l = n;
	}
	printi(work(l, 1) + work(l, 0));
	return 0;
}`
	prog, err := minic.Compile(src, minic.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(prog, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(prog, interp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return a, res.Profile
}

// bruteMissRate computes the non-loop miss rate for an order directly per
// branch, the oracle Collapse must agree with.
func bruteMissRate(a *core.Analysis, p *profile.Profile, order core.Order) float64 {
	var miss, dyn int64
	for i := range a.Branches {
		b := &a.Branches[i]
		if b.Class != core.NonLoop {
			continue
		}
		d := p.Executed(b.ID)
		if d == 0 {
			continue
		}
		dyn += d
		pred, _, _ := b.PredictWith(order)
		miss += p.Misses(b.ID, pred.Taken())
	}
	if dyn == 0 {
		return 0
	}
	return 100 * float64(miss) / float64(dyn)
}

func TestCollapseMatchesBruteForce(t *testing.T) {
	a, p := realBench(t)
	bd := Collapse(a, p, "test")
	for _, o := range []core.Order{core.DefaultOrder, core.SectionOrder} {
		got := bd.MissRate(o)
		want := bruteMissRate(a, p, o)
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("order %v: collapse %f, brute %f", o, got, want)
		}
	}
	// And over a random sample of orders.
	all := All()
	f := func(idx uint16) bool {
		o := all[int(idx)%len(all)]
		return math.Abs(bd.MissRate(o)-bruteMissRate(a, p, o)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// syntheticBench builds a BenchData where heuristic h alone covers one
// branch with a chosen miss count, for controlled sweep tests.
func syntheticBench(name string, perHeurMiss [core.NumHeuristics]int64) *BenchData {
	d := &BenchData{Name: name}
	for h := 0; h < core.NumHeuristics; h++ {
		mask := 1 << h
		d.Dyn[mask] = 100
		d.Miss[mask][h] = perHeurMiss[h]
		d.TotalNonLoop += 100
	}
	return d
}

func TestSweepAndBestOrder(t *testing.T) {
	// Benchmark where every heuristic has its own branch population; the
	// miss rate is the same under every order (no overlap), so the sweep
	// must be flat.
	flat := syntheticBench("flat", [core.NumHeuristics]int64{10, 10, 10, 10, 10, 10, 10})
	s := newSweep(t, []*BenchData{flat})
	avg := s.Avg(nil)
	for _, v := range avg {
		if math.Abs(v-10) > 1e-9 {
			t.Fatalf("flat sweep should be 10%% everywhere, got %f", v)
		}
	}
	// Overlapping population: mask with two heuristics where one is right
	// and the other wrong; orders placing the right one earlier win.
	d := &BenchData{Name: "overlap", TotalNonLoop: 100}
	mask := (1 << core.Opcode) | (1 << core.Guard)
	d.Dyn[mask] = 100
	d.Miss[mask][core.Opcode] = 0
	d.Miss[mask][core.Guard] = 100
	s2 := newSweep(t, []*BenchData{d})
	best := s2.BestOrder(nil)
	o := s2.Orders[best]
	for _, h := range o {
		if h == core.Opcode {
			break
		}
		if h == core.Guard {
			t.Fatalf("best order %v places Guard before Opcode", o)
		}
	}
	sorted := s2.SortedAvg(nil)
	if sorted[0] != 0 || sorted[len(sorted)-1] != 100 {
		t.Errorf("sorted extremes %f..%f, want 0..100", sorted[0], sorted[len(sorted)-1])
	}
}

// workerCounts are the GOMAXPROCS settings under which the parallel
// sweep is checked against serial evaluation. Each one cuts the orders
// into a different set of ranges, whose rows the sweep merges.
var workerCounts = []int{1, 3, 4}

// withWorkers runs f with GOMAXPROCS set to n, restoring it afterwards.
func withWorkers(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}

// TestSweepRangeMergeBitIdentical pins the sweep's merge invariant: the
// matrix NewSweepCtx assembles from its per-goroutine order ranges is bit
// for bit a serial MissRate evaluation, cell by cell, however the range
// [0, NumOrders) is cut.
func TestSweepRangeMergeBitIdentical(t *testing.T) {
	benches := mixedBenches(5)
	orders := All()
	for _, nw := range workerCounts {
		withWorkers(nw, func() {
			s := newSweep(t, benches)
			if len(s.M) != NumOrders {
				t.Fatalf("workers=%d: sweep has %d rows, want %d", nw, len(s.M), NumOrders)
			}
			for o, ord := range orders {
				if s.Orders[o] != ord {
					t.Fatalf("workers=%d order %d: sweep has %v, All has %v", nw, o, s.Orders[o], ord)
				}
				for b, bd := range benches {
					if want := bd.MissRate(ord); s.M[o][b] != want { // exact, not approximate
						t.Fatalf("workers=%d cell [%d][%d]: sweep %v, serial MissRate %v", nw, o, b, s.M[o][b], want)
					}
				}
			}
		})
	}
}

func TestSubsetsExactSmall(t *testing.T) {
	// 4 synthetic benchmarks, subsets of size 2: C(4,2)=6 trials; verify
	// against direct enumeration.
	var benches []*BenchData
	misses := [][core.NumHeuristics]int64{
		{0, 50, 50, 50, 50, 50, 50},
		{50, 0, 50, 50, 50, 50, 50},
		{0, 50, 50, 50, 50, 50, 50},
		{50, 50, 50, 50, 50, 50, 0},
	}
	for i, m := range misses {
		benches = append(benches, syntheticBench(string(rune('a'+i)), m))
	}
	s := newSweep(t, benches)
	res, err := s.SubsetsCtx(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != 6 {
		t.Fatalf("trials %d, want 6", res.Trials)
	}
	checkBruteSubsets(t, s, 2, res)
}

// TestSubsetsExactMatchesBrute checks the exact experiment against
// brute-force enumeration over 8 benchmarks, whose meet-in-the-middle
// halves hold 4 each: C(8,4) = 70 trials.
func TestSubsetsExactMatchesBrute(t *testing.T) {
	s := newSweep(t, mixedBenches(8))
	const k = 4
	res, err := s.SubsetsCtx(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trials != int(Binomial(8, k)) {
		t.Fatalf("exact trials %d, want %d", res.Trials, Binomial(8, k))
	}
	checkBruteSubsets(t, s, k, res)
}

// checkBruteSubsets enumerates every k-subset of the sweep's benchmarks,
// takes the argmin order of each (lowest index wins ties), and requires
// res to hold exactly those counts.
func checkBruteSubsets(t *testing.T, s *Sweep, k int, res *SubsetResult) {
	t.Helper()
	want := make([]int, len(s.Orders))
	n := len(s.Benches)
	for m := 0; m < 1<<n; m++ {
		if bits.OnesCount(uint(m)) != k {
			continue
		}
		best, bv := 0, math.Inf(1)
		for o := range s.Orders {
			v := 0.0
			for b := 0; b < n; b++ {
				if m&(1<<b) != 0 {
					v += s.M[o][b]
				}
			}
			if v < bv {
				bv = v
				best = o
			}
		}
		want[best]++
	}
	for o := range want {
		if want[o] != res.BestCount[o] {
			t.Fatalf("k=%d order %d: count %d, want %d", k, o, res.BestCount[o], want[o])
		}
	}
}

func TestSubsetsSampledDeterministic(t *testing.T) {
	benches := []*BenchData{
		syntheticBench("a", [core.NumHeuristics]int64{0, 10, 20, 30, 40, 50, 60}),
		syntheticBench("b", [core.NumHeuristics]int64{60, 50, 40, 30, 20, 10, 0}),
		syntheticBench("c", [core.NumHeuristics]int64{5, 5, 5, 5, 5, 5, 5}),
	}
	s := newSweep(t, benches)
	r1, err := s.SubsetsSampledCtx(context.Background(), 2, 100, 42)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.SubsetsSampledCtx(context.Background(), 2, 100, 42)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Trials != 100 || r2.Trials != 100 {
		t.Fatal("wrong trial count")
	}
	for o := range r1.BestCount {
		if r1.BestCount[o] != r2.BestCount[o] {
			t.Fatal("sampled experiment not deterministic for a fixed seed")
		}
	}
}

func TestRankedAndDistinct(t *testing.T) {
	r := &SubsetResult{Trials: 10, BestCount: make([]int, 10)}
	r.BestCount[3] = 5
	r.BestCount[7] = 4
	r.BestCount[1] = 1
	if r.DistinctOrders() != 3 {
		t.Errorf("distinct %d", r.DistinctOrders())
	}
	ranked := r.Ranked()
	if len(ranked) != 3 || ranked[0] != 3 || ranked[1] != 7 || ranked[2] != 1 {
		t.Errorf("ranked %v", ranked)
	}
}

func TestMasksWithPopcount(t *testing.T) {
	binom := func(n, k int) int {
		if k < 0 || k > n {
			return 0
		}
		r := 1
		for i := 0; i < k; i++ {
			r = r * (n - i) / (i + 1)
		}
		return r
	}
	for n := 0; n <= 12; n++ {
		for k := 0; k <= n; k++ {
			masks := masksWithPopcount(n, k)
			if len(masks) != binom(n, k) {
				t.Errorf("C(%d,%d): got %d masks, want %d", n, k, len(masks), binom(n, k))
			}
			for _, m := range masks {
				if bits.OnesCount(uint(m)) != k {
					t.Errorf("mask %b has popcount %d, want %d", m, bits.OnesCount(uint(m)), k)
				}
			}
		}
	}
}

// mixedBenches returns a small deterministic benchmark set exercising
// distinct per-order behavior.
func mixedBenches(n int) []*BenchData {
	benches := make([]*BenchData, n)
	for i := range benches {
		var m [core.NumHeuristics]int64
		for h := range m {
			m[h] = int64((i*13 + h*29 + 7) % 83)
		}
		benches[i] = syntheticBench(string(rune('a'+i)), m)
	}
	// An overlapping mask so orderings actually matter.
	for i, d := range benches {
		mask := (1 << core.Opcode) | (1 << core.Guard)
		d.Dyn[mask] = 100
		d.Miss[mask][core.Opcode] = int64(i * 10 % 70)
		d.Miss[mask][core.Guard] = int64((i*10 + 35) % 70)
		d.TotalNonLoop += 100
	}
	return benches
}

func TestBinomial(t *testing.T) {
	cases := map[[2]int]int64{
		{0, 0}: 1, {5, 0}: 1, {5, 5}: 1, {5, 2}: 10,
		{22, 11}: 705432, {7, 3}: 35, {4, 5}: 0, {4, -1}: 0,
	}
	for in, want := range cases {
		if got := Binomial(in[0], in[1]); got != want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", in[0], in[1], got, want)
		}
	}
}

// TestSubsetsSampledAgreesWithExact checks the sampled mode against the
// exact experiment on a small k: every order the sample ranks must also
// be chosen by some exact trial (sampled subsets are drawn from the same
// space), and with this fixed seed the top-ranked orders agree.
func TestSubsetsSampledAgreesWithExact(t *testing.T) {
	benches := mixedBenches(8)
	s := newSweep(t, benches)
	const k = 4
	exact, err := s.SubsetsCtx(context.Background(), k)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := s.SubsetsSampledCtx(context.Background(), k, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	exactChosen := map[int]bool{}
	for _, o := range exact.Ranked() {
		exactChosen[o] = true
	}
	for _, o := range sampled.Ranked() {
		if !exactChosen[o] {
			t.Errorf("sampled chose order %d that no exact trial chooses", o)
		}
	}
	if sampled.Ranked()[0] != exact.Ranked()[0] {
		t.Errorf("top order: sampled %d, exact %d", sampled.Ranked()[0], exact.Ranked()[0])
	}

	// A subset size the benchmarks cannot fill is the same error in
	// both modes.
	small := newSweep(t, mixedBenches(4))
	for _, k := range []int{5, -1} {
		want := fmt.Sprintf("orders: subset size %d outside [0,4]", k)
		if _, err := small.SubsetsCtx(context.Background(), k); err == nil || err.Error() != want {
			t.Errorf("SubsetsCtx(k=%d) err = %v, want %q", k, err, want)
		}
		if _, err := small.SubsetsSampledCtx(context.Background(), k, 10, 7); err == nil || err.Error() != want {
			t.Errorf("SubsetsSampledCtx(k=%d) err = %v, want %q", k, err, want)
		}
	}
}

func TestSubsetsSampledCrossSeedDeterminism(t *testing.T) {
	benches := mixedBenches(6)
	s := newSweep(t, benches)
	for _, seed := range []int64{1, 42, 1993} {
		a, err := s.SubsetsSampledCtx(context.Background(), 3, 200, seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.SubsetsSampledCtx(context.Background(), 3, 200, seed)
		if err != nil {
			t.Fatal(err)
		}
		if a.Trials != 200 || !reflect.DeepEqual(a.BestCount, b.BestCount) {
			t.Fatalf("seed %d: sampled run not reproducible", seed)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	benches := mixedBenches(6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewSweepCtx(ctx, benches); err == nil {
		t.Error("NewSweepCtx ignored cancelled context")
	}
	s := newSweep(t, benches)
	if _, err := s.SubsetsCtx(ctx, 3); err == nil {
		t.Error("SubsetsCtx ignored cancelled context")
	}
	if _, err := s.SubsetsSampledCtx(ctx, 3, 1000, 1); err == nil {
		t.Error("SubsetsSampledCtx ignored cancelled context")
	}
}

// SampledReference is sampledReference, exported to the package's
// external tests.
var SampledReference = sampledReference

// sampledReference is SubsetsSampledCtx without the dominance pruning: the
// same trial stream, every order scored. It is the reference the pruned
// sampled experiment must equal count for count.
func sampledReference(s *Sweep, k, trials int, seed int64) *SubsetResult {
	n := len(s.Benches)
	rng := rand.New(rand.NewSource(seed))
	res := &SubsetResult{BestCount: make([]int, len(s.Orders))}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for t := 0; t < trials; t++ {
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		best, bv := 0, math.Inf(1)
		for o, row := range s.M {
			sum := 0.0
			for _, b := range idx[:k] {
				sum += row[b]
			}
			if sum < bv {
				best, bv = o, sum
			}
		}
		res.BestCount[best]++
		res.Trials++
	}
	return res
}

// Rate pools for randomSweep. Any sum of up to 22 exactRates is exact in
// float64, so every summation order gives the same sums and the same
// ties. roundingRates' sums round, so different summation orders can
// break near-ties differently.
var (
	exactRates    = []float64{0, 0.125, 12.5, 25, 37.5, 50, 62.5, 100}
	roundingRates = []float64{0, 0.1, 0.2, 0.3, 100.0 / 3, 200.0 / 3, 40.58, 100}
)

// randomSweep returns a sweep over n benchmarks whose miss rates are drawn
// from `levels` values of pool, so that dominance and exact ties are
// common.
func randomSweep(rng *rand.Rand, pool []float64, n, levels int) *Sweep {
	vals := append([]float64(nil), pool...)
	rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	s := &Sweep{Orders: All(), M: make([][]float64, NumOrders)}
	for b := 0; b < n; b++ {
		s.Benches = append(s.Benches, &BenchData{Name: string(rune('a' + b))})
	}
	for o := range s.M {
		s.M[o] = make([]float64, n)
		for b := range s.M[o] {
			s.M[o][b] = vals[rng.Intn(levels)]
		}
	}
	return s
}

// TestSubsetsPruningProperty checks, over seeded random sweeps, that
// scoring only the undominated orders changes no order's count. With
// exact rates the pruned exact experiment equals brute-force enumeration;
// with rounding rates, which the brute force sums in another order, it
// equals the same meet-in-the-middle over every order. Either way the
// pruned sampled experiment equals the unpruned sampled loop.
func TestSubsetsPruningProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ctx := context.Background()
	all := make([]int, NumOrders)
	for o := range all {
		all[o] = o
	}
	for i := 0; i < 36; i++ {
		n := 2 + i%9
		rounding := i/9%2 == 1
		pool := exactRates
		if rounding {
			pool = roundingRates
		}
		k := rng.Intn(n + 1)
		s := randomSweep(rng, pool, n, 2+rng.Intn(4))
		if kept := len(s.undominated()); kept == 0 || kept >= NumOrders {
			t.Fatalf("sweep %d: %d undominated orders, want some pruned", i, kept)
		}
		exact, err := s.SubsetsCtx(ctx, k)
		if err != nil {
			t.Fatal(err)
		}
		if exact.Trials != int(Binomial(n, k)) {
			t.Fatalf("sweep %d: exact trials %d, want C(%d,%d)", i, exact.Trials, n, k)
		}
		if rounding {
			want, err := s.subsets(ctx, k, all)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(exact, want) {
				t.Fatalf("sweep %d (n=%d k=%d): pruned exact counts differ from scoring every order", i, n, k)
			}
		} else {
			checkBruteSubsets(t, s, k, exact)
		}
		seed := rng.Int63()
		sampled, err := s.SubsetsSampledCtx(ctx, k, 300, seed)
		if err != nil {
			t.Fatal(err)
		}
		if want := sampledReference(s, k, 300, seed); !reflect.DeepEqual(sampled, want) {
			t.Fatalf("sweep %d (n=%d k=%d): pruned sampled counts differ from the unpruned loop", i, n, k)
		}
	}
}

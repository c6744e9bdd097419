package dynpred

import (
	"reflect"
	"testing"

	"ballarus/internal/interp"
	"ballarus/internal/profile"
)

func TestRegistryNames(t *testing.T) {
	want := []string{NameBimodal, NameGshare, NameOneBit, NameTAGE, NameTwoBit}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	if _, err := New("oracle", 4); err == nil {
		t.Fatal("New(oracle) should error for an unregistered name")
	}
	for _, name := range Names() {
		p, err := New(name, 8)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p == nil {
			t.Fatalf("New(%q) returned nil predictor", name)
		}
	}
}

func TestConstructorsMatchRegistry(t *testing.T) {
	events := seq(true, true, false, true, false, false, true, true, true, false)
	for _, tc := range []struct {
		name string
		old  Result
	}{
		{NameOneBit, Replay(events, 1, NewOneBit(1))},
		{NameTwoBit, Replay(events, 1, NewTwoBit(1))},
	} {
		p, err := New(tc.name, 1)
		if err != nil {
			t.Fatal(err)
		}
		got := Replay(events, 1, p)
		if got.Branches != tc.old.Branches || got.Miss != tc.old.Miss {
			t.Errorf("%s: constructor replay %+v != registry replay %+v", tc.name, tc.old, got)
		}
	}
}

func TestMissRateZeroBranches(t *testing.T) {
	var r Result
	if rate := r.MissRate(); rate != 0 {
		t.Fatalf("zero-branch MissRate = %v, want 0 (documented, not NaN)", rate)
	}
	r = Result{Branches: 4, Miss: 1}
	if rate := r.MissRate(); rate != 25 {
		t.Fatalf("MissRate = %v, want 25", rate)
	}
}

func TestPerBranchCounts(t *testing.T) {
	events := []interp.Event{
		ev(0, true), ev(1, false), ev(0, true), ev(1, false), ev(0, false),
	}
	r := Replay(events, 2, NewOneBit(2))
	if len(r.PerBranch) != 2 {
		t.Fatalf("PerBranch len = %d, want 2", len(r.PerBranch))
	}
	if r.PerBranch[0].Executed != 3 || r.PerBranch[1].Executed != 2 {
		t.Errorf("executed counts %+v, want 3 and 2", r.PerBranch)
	}
	sumMiss := r.PerBranch[0].Miss + r.PerBranch[1].Miss
	sumExec := r.PerBranch[0].Executed + r.PerBranch[1].Executed
	if sumMiss != r.Miss || sumExec != r.Branches {
		t.Errorf("per-branch tallies (%d exec, %d miss) disagree with totals (%d, %d)",
			sumExec, sumMiss, r.Branches, r.Miss)
	}
}

// Alternating TNTN defeats every per-branch counter scheme but is a
// trivial pattern for global history: gshare and TAGE should learn it
// nearly perfectly after warmup.
func TestAdversarialAlternating(t *testing.T) {
	const n = 2000
	var events []interp.Event
	for i := 0; i < n; i++ {
		events = append(events, ev(0, i%2 == 0))
	}
	oneBit := Replay(events, 1, NewOneBit(1))
	if oneBit.Miss < n-1 {
		t.Errorf("one-bit on TNTN missed %d/%d, expected near-total failure", oneBit.Miss, n)
	}
	gs := Replay(events, 1, NewGshare(DefaultGshareBits, DefaultGshareHistory))
	if gs.MissRate() > 5 {
		t.Errorf("gshare on TNTN miss rate %.1f%%, want < 5%% after warmup", gs.MissRate())
	}
	tg := Replay(events, 1, NewTAGE(DefaultTAGEConfig()))
	if tg.MissRate() > 5 {
		t.Errorf("tage on TNTN miss rate %.1f%%, want < 5%% after warmup", tg.MissRate())
	}
}

// Loop-exit pattern: taken k-1 times then one not-taken exit, repeated.
// Two-bit counters pay exactly one miss per exit; one-bit pays two (the
// exit and the re-entry).
func TestAdversarialLoopExit(t *testing.T) {
	const k, iters = 8, 200
	var events []interp.Event
	for i := 0; i < iters; i++ {
		for j := 0; j < k-1; j++ {
			events = append(events, ev(0, true))
		}
		events = append(events, ev(0, false))
	}
	one := Replay(events, 1, NewOneBit(1))
	two := Replay(events, 1, NewTwoBit(1))
	if two.Miss >= one.Miss {
		t.Errorf("two-bit (%d misses) should beat one-bit (%d) on loop exits", two.Miss, one.Miss)
	}
	// ~1 miss per exit for two-bit, plus warmup.
	if two.Miss > iters+4 {
		t.Errorf("two-bit misses = %d, want about one per exit (%d)", two.Miss, iters)
	}
}

// Correlated pair: branch 1's direction equals branch 0's previous
// outcome, while branch 0 itself looks random to a per-branch counter.
// Global history hands gshare branch 1 for free; bimodal, blind to
// context, stays near 50% on it.
func TestAdversarialCorrelatedPair(t *testing.T) {
	// Deterministic pseudo-random direction stream for branch 0.
	rng := uint64(0x1234567)
	next := func() bool {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng>>33&1 == 1
	}
	var events []interp.Event
	for i := 0; i < 4000; i++ {
		d := next()
		events = append(events, ev(0, d), ev(1, d))
	}
	perBranchRate := func(r Result, id int) float64 {
		s := r.PerBranch[id]
		return 100 * float64(s.Miss) / float64(s.Executed)
	}
	bm := Replay(events, 2, NewBimodal(DefaultBimodalBits))
	gs := Replay(events, 2, NewGshare(DefaultGshareBits, DefaultGshareHistory))
	if got := perBranchRate(bm, 1); got < 25 {
		t.Errorf("bimodal on correlated branch missed only %.1f%%, expected near-random", got)
	}
	if got := perBranchRate(gs, 1); got > 5 {
		t.Errorf("gshare on correlated branch missed %.1f%%, want < 5%%", got)
	}
}

// Same trace + same predictor config must yield identical miss counts
// across runs — the determinism the compare stage's cache and the H2P
// classification depend on.
func TestDeterminism(t *testing.T) {
	rng := uint64(42)
	next := func() bool {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng>>33&1 == 1
	}
	var events []interp.Event
	for i := 0; i < 5000; i++ {
		events = append(events, ev(int32(i%7), next()))
	}
	for _, name := range Names() {
		var first Result
		for run := 0; run < 3; run++ {
			p, err := New(name, 7)
			if err != nil {
				t.Fatal(err)
			}
			r := Replay(events, 7, p)
			if run == 0 {
				first = r
			} else if !reflect.DeepEqual(first, r) {
				t.Errorf("%s: run %d diverged: %+v vs %+v", name, run, first, r)
			}
		}
	}
}

func TestTournamentMatchesReplay(t *testing.T) {
	rng := uint64(99)
	next := func() bool {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng>>33&1 == 1
	}
	var events []interp.Event
	for i := 0; i < 3000; i++ {
		events = append(events, ev(int32(i%5), next()))
	}
	// Interleave an indirect event; tournaments must skip it.
	events = append(events, interp.Event{Kind: interp.EvIndirect, Branch: -1})

	backends := Names()
	tour, err := NewTournament(5, backends)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		tour.Observe(e)
	}
	scores := tour.Results()
	for i, name := range backends {
		p, err := New(name, 5)
		if err != nil {
			t.Fatal(err)
		}
		want := Replay(events, 5, p)
		if !reflect.DeepEqual(scores[i].Result, want) {
			t.Errorf("%s: tournament %+v != replay %+v", name, scores[i].Result, want)
		}
	}

	if _, err := NewTournament(5, []string{"nope"}); err == nil {
		t.Fatal("NewTournament with unknown backend should error")
	}
}

func TestClassifyH2P(t *testing.T) {
	// Branch 0: static fails (40% miss), dynamic solves it (5%).
	// Branch 1: dynamic fails (50%), static solves it (2%).
	// Branch 2: both fine. Branch 3: too cold to classify.
	static := Result{PerBranch: []BranchStat{
		{Executed: 100, Miss: 40},
		{Executed: 100, Miss: 2},
		{Executed: 100, Miss: 1},
		{Executed: 10, Miss: 10},
	}}
	dyn := []Score{{Name: "gshare", Result: Result{PerBranch: []BranchStat{
		{Executed: 100, Miss: 5},
		{Executed: 100, Miss: 50},
		{Executed: 100, Miss: 1},
		{Executed: 10, Miss: 0},
	}}}}
	got, err := ClassifyH2P(static, dyn, H2POptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.StaticBeaten) != 1 || got.StaticBeaten[0].Branch != 0 {
		t.Errorf("StaticBeaten = %+v, want branch 0", got.StaticBeaten)
	}
	if len(got.HistoryBeaten) != 1 || got.HistoryBeaten[0].Branch != 1 {
		t.Errorf("HistoryBeaten = %+v, want branch 1", got.HistoryBeaten)
	}
	if got.StaticBeaten[0].BestDynamic != "gshare" {
		t.Errorf("BestDynamic = %q", got.StaticBeaten[0].BestDynamic)
	}

	// Mismatched per-branch spaces error instead of misclassifying.
	short := []Score{{Name: "short", Result: Result{PerBranch: []BranchStat{{Executed: 100}}}}}
	if _, err := ClassifyH2P(static, short, H2POptions{}); err == nil {
		t.Fatal("ClassifyH2P with short entrant should error")
	}
}

func TestStaticResultMatchesReplay(t *testing.T) {
	// Build a trace and its profile; StaticResult from the profile must
	// equal the static vector's hits and misses counted over the trace
	// event by event.
	rng := uint64(7)
	next := func() bool {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng>>33&1 == 1
	}
	var events []interp.Event
	for i := 0; i < 2000; i++ {
		events = append(events, ev(int32(i%3), next()))
	}
	prof := &profile.Profile{Taken: make([]int64, 3), Fall: make([]int64, 3)}
	for _, e := range events {
		prof.Count(e.Branch, e.Taken)
	}
	vec := []bool{true, false, true}
	direct := StaticResult(prof, vec)
	replayed := Result{PerBranch: make([]BranchStat, 3)}
	for _, e := range events {
		replayed.Branches++
		replayed.PerBranch[e.Branch].Executed++
		if vec[e.Branch] != e.Taken {
			replayed.Miss++
			replayed.PerBranch[e.Branch].Miss++
		}
	}
	if !reflect.DeepEqual(direct, replayed) {
		t.Errorf("StaticResult %+v != event-by-event count %+v", direct, replayed)
	}
}

package dynpred

import (
	"testing"

	"ballarus/internal/interp"
	"ballarus/internal/profile"
)

func ev(branch int32, taken bool) interp.Event {
	return interp.Event{Delta: 1, Branch: branch, Kind: interp.EvBranch, Taken: taken}
}

func seq(dirs ...bool) []interp.Event {
	var out []interp.Event
	for _, d := range dirs {
		out = append(out, ev(0, d))
	}
	return out
}

// replay runs the named registry predictor over a one-branch trace.
func replay(t *testing.T, name string, events []interp.Event) Result {
	t.Helper()
	p, err := New(name, 1)
	if err != nil {
		t.Fatal(err)
	}
	return Replay(events, 1, p)
}

func TestOneBit(t *testing.T) {
	// T T T F T: first T misses (reset state F), then hits until F, which
	// misses, then the following T misses again.
	r := replay(t, NameOneBit, seq(true, true, true, false, true))
	if r.Branches != 5 || r.Miss != 3 {
		t.Errorf("one-bit: %+v, want 5 branches 3 misses", r)
	}
	// Alternating T F T F always misses after the first F prediction hit.
	r = replay(t, NameOneBit, seq(true, false, true, false, true, false))
	if r.Miss != 6 {
		t.Errorf("alternating one-bit misses = %d, want 6 (pathological flip-flop)", r.Miss)
	}
}

func TestTwoBit(t *testing.T) {
	// From weakly-not-taken (1): T(miss,->2) T(hit,->3) T(hit) F(miss,->2)
	// T(hit,->3).
	r := replay(t, NameTwoBit, seq(true, true, true, false, true))
	if r.Branches != 5 || r.Miss != 2 {
		t.Errorf("two-bit: %+v, want 5 branches 2 misses", r)
	}
	// Hysteresis: a single F inside a taken run costs one miss, not two —
	// the advantage over one-bit.
	one := replay(t, NameOneBit, seq(true, true, false, true, true))
	two := replay(t, NameTwoBit, seq(true, true, false, true, true))
	if two.Miss >= one.Miss {
		t.Errorf("two-bit (%d) should beat one-bit (%d) on loop-like runs", two.Miss, one.Miss)
	}
}

func TestStaticMatchesDirectCount(t *testing.T) {
	// A branch taken 3 times and not taken once: predicting taken misses
	// once.
	prof := &profile.Profile{Taken: []int64{3}, Fall: []int64{1}}
	r := StaticResult(prof, []bool{true})
	if r.Branches != 4 || r.Miss != 1 || r.PerBranch[0] != (BranchStat{Executed: 4, Miss: 1}) {
		t.Errorf("static: %+v", r)
	}
}

func TestIndirectEventsIgnored(t *testing.T) {
	events := []interp.Event{
		{Kind: interp.EvIndirect, Branch: -1},
		ev(0, true),
		{Kind: interp.EvIndirect, Branch: -1},
	}
	if r := replay(t, NameTwoBit, events); r.Branches != 1 {
		t.Errorf("indirect events counted as branches: %+v", r)
	}
}

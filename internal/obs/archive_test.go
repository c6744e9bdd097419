package obs

import (
	"strings"
	"testing"
	"time"
)

func mkTrace(id string, d time.Duration) *Trace {
	return &Trace{ID: id, SpanID: id, Name: "req", Start: time.Now(), Duration: d}
}

func TestArchiveKeepsInterestingTraces(t *testing.T) {
	a := NewTracer(0, nil, ArchivePolicy{SlowThreshold: 100 * time.Millisecond})

	cases := []struct {
		name string
		tr   *Trace
		keep bool
	}{
		{"error", &Trace{ID: "aaaaaaaaaaaaaaa1", SpanID: "1", Err: "boom", Duration: time.Millisecond}, true},
		{"stage-error", &Trace{ID: "aaaaaaaaaaaaaaa2", SpanID: "2", Err: "service: compile: internal error: injected", Duration: time.Millisecond}, true},
		{"hedged-attr", &Trace{ID: "aaaaaaaaaaaaaaa3", SpanID: "3", Attrs: map[string]string{"hedged": "true"}, Duration: time.Millisecond}, true},
		{"hedge-attempt", &Trace{ID: "aaaaaaaaaaaaaaa4", SpanID: "4", Attrs: map[string]string{"attempt": "hedge"}, Duration: time.Millisecond}, true},
		{"span-error", &Trace{ID: "aaaaaaaaaaaaaaa5", SpanID: "5", Spans: []SpanRecord{{Name: "x", Status: StatusError, Err: "bad"}}, Duration: time.Millisecond}, true},
		{"slow", &Trace{ID: "aaaaaaaaaaaaaaa6", SpanID: "6", Duration: 150 * time.Millisecond}, true},
		{"boring", &Trace{ID: "aaaaaaaaaaaaaaa7", SpanID: "7", Duration: time.Millisecond}, false},
		{"canceled-span", &Trace{ID: "aaaaaaaaaaaaaaa8", SpanID: "8", Spans: []SpanRecord{{Name: "x", Status: StatusCanceled}}, Duration: time.Millisecond}, false},
	}
	for _, c := range cases {
		before := a.Archived()
		a.push(c.tr)
		if got := a.Archived() > before; got != c.keep {
			t.Errorf("%s: kept=%v, want %v", c.name, got, c.keep)
		}
	}
}

func TestArchiveSamplingDeterministic(t *testing.T) {
	mk := func() *Tracer { return NewTracer(0, nil, ArchivePolicy{SampleRate: 0.5}) }
	a1, a2 := mk(), mk()
	ids := []string{"00000000000000a1", "00000000000000b2", "00000000000000c3", "00000000000000d4",
		"00000000000000e5", "00000000000000f6", "00000000000000a7", "00000000000000b8"}
	for _, id := range ids {
		a1.push(mkTrace(id, time.Millisecond))
		a2.push(mkTrace(id, time.Millisecond))
		if a1.Archived() != a2.Archived() {
			t.Fatalf("id %s sampled differently across identically configured tracers", id)
		}
	}
	if kept := a1.Archived(); kept == 0 || kept == len(ids) {
		t.Fatalf("sample rate 0.5 kept %d/%d — degenerate", kept, len(ids))
	}

	off := NewTracer(0, nil, ArchivePolicy{SampleRate: 0})
	off.push(mkTrace("00000000000000a1", time.Millisecond))
	if off.Archived() != 0 {
		t.Fatal("rate 0 kept a boring trace")
	}
	all := NewTracer(0, nil, ArchivePolicy{SampleRate: 1})
	all.push(mkTrace("00000000000000a1", time.Millisecond))
	if all.Archived() != 1 {
		t.Fatal("rate 1 dropped a trace")
	}
}

func TestArchiveCapacityBound(t *testing.T) {
	a := NewTracer(0, nil, ArchivePolicy{Capacity: 4, SampleRate: 1})
	for i := 0; i < 10; i++ {
		a.push(mkTrace(string(rune('a'+i))+"000000000000000", time.Duration(i)*time.Millisecond))
	}
	if a.Archived() != 4 {
		t.Fatalf("archived = %d, want capacity 4", a.Archived())
	}
}

func TestArchiveSlowest(t *testing.T) {
	a := NewTracer(0, nil, ArchivePolicy{SampleRate: 1})
	a.push(mkTrace("00000000000000a1", 5*time.Millisecond))
	a.push(mkTrace("00000000000000b2", 50*time.Millisecond))
	a.push(mkTrace("00000000000000c3", time.Millisecond))
	got := a.Slowest(2)
	if len(got) != 2 || got[0].ID != "00000000000000b2" || got[1].ID != "00000000000000a1" {
		t.Fatalf("Slowest = %v", got)
	}
}

func TestArchiveSnapshotLoadRoundTrip(t *testing.T) {
	a := NewTracer(0, nil, ArchivePolicy{SampleRate: 1})
	tr := mkTrace("00000000000000a1", 7*time.Millisecond)
	tr.Spans = []SpanRecord{{Name: "stage.execute", SpanID: "00000000000000e1", ParentID: tr.SpanID, Duration: time.Millisecond}}
	a.push(tr)
	a.push(mkTrace("00000000000000b2", time.Millisecond))

	entries := a.Snapshot()
	if len(entries) != 2 || !strings.Contains(string(entries[0]), tr.ID) {
		t.Fatalf("snapshot entries = %q, want 2, oldest first", entries)
	}
	b := NewTracer(0, nil, ArchivePolicy{})
	for _, e := range entries {
		if err := b.Load(e); err != nil {
			t.Fatal(err)
		}
	}
	if b.Archived() != 2 {
		t.Fatalf("restored archive holds %d", b.Archived())
	}
	got := b.Find("00000000000000a1")
	if len(got) != 1 || len(got[0].Spans) != 1 || got[0].Spans[0].ParentID != tr.SpanID {
		t.Fatalf("restored trace lost spans: %+v", got)
	}
	if err := b.Load([]byte("{not json")); err == nil {
		t.Fatal("corrupt payload accepted")
	}
	if err := b.Load([]byte("{}")); err == nil {
		t.Fatal("id-less payload accepted")
	}
}

func TestArchiveMetrics(t *testing.T) {
	reg := NewRegistry()
	a := NewTracer(0, nil, ArchivePolicy{SlowThreshold: time.Hour})
	a.Register(reg)
	a.push(&Trace{ID: "00000000000000a1", SpanID: "1", Err: "boom"})
	a.push(mkTrace("00000000000000b2", time.Millisecond)) // dropped

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`ballarus_trace_archive_kept_total{reason="error"} 1`,
		`ballarus_trace_archive_dropped_total 1`,
		`ballarus_trace_archive_entries 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if errs := Lint(strings.NewReader(out)); len(errs) != 0 {
		t.Fatalf("lint: %v", errs)
	}
}

package obs

import (
	"context"
	"errors"
	"regexp"
	"strings"
	"testing"
	"time"
)

var idRe = regexp.MustCompile(`^[0-9a-f]{16}$`)

func TestTraceHeaderRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: "0123456789abcdef", SpanID: "fedcba9876543210", Flags: FlagSampled}
	h := sc.Header()
	if h != "00-0123456789abcdef-fedcba9876543210-01" {
		t.Fatalf("header = %q", h)
	}
	got, ok := ParseTraceHeader(h)
	if !ok || got != sc {
		t.Fatalf("round trip = %+v ok=%v", got, ok)
	}
}

func TestParseTraceHeaderRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00-0123456789abcdef-fedcba9876543210", // missing flags
		"01-0123456789abcdef-fedcba9876543210-01",    // unknown version
		"00-0123456789abcdeg-fedcba9876543210-01",    // non-hex trace id
		"00-0123456789abcdef-fedcba987654321-01",     // short span id
		"00-0000000000000000-fedcba9876543210-01",    // all-zero trace id
		"00-0123456789abcdef-0000000000000000-01",    // all-zero span id
		"00-0123456789abcdef-fedcba9876543210-0x",    // bad flags
		"00-0123456789abcdef-fedcba9876543210-01-99", // trailing part
	}
	for _, s := range bad {
		if _, ok := ParseTraceHeader(s); ok {
			t.Errorf("ParseTraceHeader(%q) accepted", s)
		}
	}
}

func TestStartAdoptsRemoteParent(t *testing.T) {
	tr := NewTracer(8, nil)
	remote := SpanContext{TraceID: "00000000000000aa", SpanID: "00000000000000bb", Flags: FlagSampled}
	ctx := ContextWithRemote(context.Background(), remote)
	_, act := tr.Start(ctx, "req")
	if act.ID() != remote.TraceID {
		t.Fatalf("trace id = %q, want adopted %q", act.ID(), remote.TraceID)
	}
	act.End(nil)
	got := tr.Last(1)[0]
	if got.ParentID != remote.SpanID {
		t.Fatalf("parent id = %q, want %q", got.ParentID, remote.SpanID)
	}
	if !idRe.MatchString(got.SpanID) {
		t.Fatalf("root span id %q not 16 hex", got.SpanID)
	}
}

func TestStartMintsFreshTraceWithoutRemote(t *testing.T) {
	tr := NewTracer(8, nil)
	_, act := tr.Start(context.Background(), "req")
	act.End(nil)
	got := tr.Last(1)[0]
	if !idRe.MatchString(got.ID) || !idRe.MatchString(got.SpanID) {
		t.Fatalf("ids %q/%q not 16 hex", got.ID, got.SpanID)
	}
	if got.ParentID != "" {
		t.Fatalf("fresh root has parent %q", got.ParentID)
	}
	if got.Flags&FlagSampled == 0 {
		t.Fatalf("fresh root not sampled: flags=%x", got.Flags)
	}
}

func TestSpanParentLinks(t *testing.T) {
	tr := NewTracer(8, nil)
	ctx, act := tr.Start(context.Background(), "req")

	sctx, outer := StartSpanCtx(ctx, "stage.execute")
	inner := StartSpan(sctx, "retry.execute")
	inner.End(nil)
	outer.End(nil)
	leaf := StartSpan(ctx, "admit")
	leaf.End(nil)
	act.End(nil)

	got := tr.Last(1)[0]
	byName := map[string]SpanRecord{}
	for _, sp := range got.Spans {
		byName[sp.Name] = sp
	}
	if byName["stage.execute"].ParentID != got.SpanID {
		t.Fatalf("stage parent = %q, want root %q", byName["stage.execute"].ParentID, got.SpanID)
	}
	if byName["retry.execute"].ParentID != byName["stage.execute"].SpanID {
		t.Fatalf("retry parent = %q, want stage %q", byName["retry.execute"].ParentID, byName["stage.execute"].SpanID)
	}
	if byName["admit"].ParentID != got.SpanID {
		t.Fatalf("admit parent = %q, want root %q", byName["admit"].ParentID, got.SpanID)
	}
}

func TestSpanStatusCanceledVsError(t *testing.T) {
	tr := NewTracer(8, nil)
	ctx, act := tr.Start(context.Background(), "req")
	StartSpan(ctx, "winner").End(nil)
	StartSpan(ctx, "loser").End(context.Canceled)
	StartSpan(ctx, "wrapped").End(errors.New("attempt: " + context.Canceled.Error()))
	StartSpan(ctx, "broken").End(errors.New("boom"))
	act.End(nil)
	got := tr.Last(1)[0]
	want := map[string]string{"winner": "", "loser": StatusCanceled, "broken": StatusError}
	for _, sp := range got.Spans {
		w, ok := want[sp.Name]
		if !ok {
			continue
		}
		if sp.Status != w {
			t.Errorf("span %s status = %q, want %q", sp.Name, sp.Status, w)
		}
	}
	// A canceled-looking message that is not errors.Is-canceled stays an
	// error; only real context.Canceled gets the softer status.
	for _, sp := range got.Spans {
		if sp.Name == "wrapped" && sp.Status != StatusError {
			t.Errorf("wrapped status = %q, want error", sp.Status)
		}
	}
}

func TestTracerFind(t *testing.T) {
	tr := NewTracer(8, nil)
	remote := SpanContext{TraceID: "00000000000000aa", SpanID: "00000000000000bb", Flags: 1}
	for i := 0; i < 2; i++ {
		_, act := tr.Start(ContextWithRemote(context.Background(), remote), "retry-hit")
		act.End(nil)
	}
	_, other := tr.Start(context.Background(), "other")
	other.End(nil)
	if got := tr.Find(remote.TraceID); len(got) != 2 {
		t.Fatalf("Find returned %d traces, want 2", len(got))
	}
	if got := tr.Find("feedfeedfeedfeed"); got != nil {
		t.Fatalf("Find on unknown id returned %d", len(got))
	}
	var nilT *Tracer
	if nilT.Find("x") != nil || nilT.Capacity() != 0 {
		t.Fatal("nil tracer not inert")
	}
}

func TestQueryTraces(t *testing.T) {
	tr := NewTracer(4, nil)
	var ids []string
	for i := 0; i < 6; i++ {
		_, act := tr.Start(context.Background(), "req")
		ids = append(ids, act.ID())
		act.End(nil)
	}

	if _, err := QueryTraces(tr, nil, "", "zero", ""); err == nil {
		t.Fatal("bad last accepted")
	}
	if _, err := QueryTraces(tr, nil, "", "-1", ""); err == nil {
		t.Fatal("negative last accepted")
	}
	if _, err := QueryTraces(tr, nil, "", "", "nope"); err == nil {
		t.Fatal("bad slowest accepted")
	}
	got, err := QueryTraces(tr, nil, "", "999", "")
	if err != nil || len(got) != 4 {
		t.Fatalf("last=999 -> %d traces (err %v), want clamp to capacity 4", len(got), err)
	}
	got, err = QueryTraces(tr, nil, ids[5], "", "")
	if err != nil || len(got) != 1 || got[0].ID != ids[5] {
		t.Fatalf("id query = %v, %v", got, err)
	}
	got, err = QueryTraces(tr, nil, "", "", "2")
	if err != nil || len(got) != 2 {
		t.Fatalf("slowest=2 -> %d traces (err %v)", len(got), err)
	}
}

func TestQueryTracesDedupsRingAndArchive(t *testing.T) {
	tr := NewTracer(4, nil)
	ar := NewArchive(ArchivePolicy{SampleRate: 1})
	tr.Attach(ar)
	_, act := tr.Start(context.Background(), "req")
	id := act.ID()
	act.End(nil)
	if ar.Len() != 1 {
		t.Fatalf("archive len = %d", ar.Len())
	}
	got, err := QueryTraces(tr, ar, id, "", "")
	if err != nil || len(got) != 1 {
		t.Fatalf("id query across ring+archive = %d traces (err %v), want 1", len(got), err)
	}
}

func TestExemplarExposition(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("ballarus_test_duration_seconds", "Test latency.", DurationBuckets, "endpoint", "predict")
	h.ObserveDurationExemplar(2*time.Millisecond, "0123456789abcdef")
	h.ObserveDurationExemplar(500*time.Millisecond, "fedcba9876543210")
	h.ObserveDurationExemplar(3*time.Millisecond, "") // no trace: counted, no exemplar

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "# TYPE ballarus_test_duration_seconds_exemplar gauge") {
		t.Fatalf("missing exemplar family TYPE line in:\n%s", out)
	}
	if !strings.Contains(out, `ballarus_test_duration_seconds_exemplar{endpoint="predict",le="0.0025",trace_id="0123456789abcdef"} 0.002`) {
		t.Fatalf("missing 2ms exemplar in:\n%s", out)
	}
	if !strings.Contains(out, `trace_id="fedcba9876543210"`) {
		t.Fatalf("missing slow exemplar in:\n%s", out)
	}

	// The synthetic family must survive the repo's own lint rules.
	if errs := Lint(strings.NewReader(out)); len(errs) != 0 {
		t.Fatalf("lint: %v", errs)
	}
}

func TestExemplarAbsentWhenNoneRecorded(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("ballarus_test_duration_seconds", "Test latency.", DurationBuckets)
	h.Observe(0.001)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "_exemplar") {
		t.Fatalf("exemplar family rendered with no exemplars:\n%s", b.String())
	}
}

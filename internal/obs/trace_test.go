package obs

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

func TestTraceLifecycle(t *testing.T) {
	tr := NewTracer(4, nil)
	ctx, act := tr.Start(context.Background(), "predict")
	if act.ID() == "" || len(act.ID()) != 16 {
		t.Fatalf("bad trace id %q", act.ID())
	}
	if got := ActiveFrom(ctx).ID(); got != act.ID() {
		t.Fatalf("ActiveFrom(ctx).ID() = %q, want %q", got, act.ID())
	}
	sp := StartSpan(ctx, "compile")
	sp.Attr("cache", "miss")
	sp.End(nil)
	StartSpan(ctx, "execute").End(errors.New("boom"))
	act.Attr("code", "500")
	act.End(errors.New("request failed"))
	act.End(nil) // idempotent

	traces := tr.Last(10)
	if len(traces) != 1 {
		t.Fatalf("Last = %d traces, want 1", len(traces))
	}
	got := traces[0]
	if got.Name != "predict" || got.Err != "request failed" || got.Attrs["code"] != "500" {
		t.Fatalf("trace = %+v", got)
	}
	if len(got.Spans) != 2 {
		t.Fatalf("spans = %+v, want 2", got.Spans)
	}
	if got.Spans[0].Name != "compile" || got.Spans[0].Attrs["cache"] != "miss" {
		t.Errorf("span 0 = %+v", got.Spans[0])
	}
	if got.Spans[1].Err != "boom" {
		t.Errorf("span 1 = %+v", got.Spans[1])
	}
}

func TestTracerRingWraps(t *testing.T) {
	tr := NewTracer(3, nil)
	for i := 0; i < 7; i++ {
		_, act := tr.Start(context.Background(), string(rune('a'+i)))
		act.End(nil)
	}
	got := tr.Last(10)
	if len(got) != 3 {
		t.Fatalf("Last = %d traces, want 3 (capacity)", len(got))
	}
	// Most recent first: g, f, e.
	for i, want := range []string{"g", "f", "e"} {
		if got[i].Name != want {
			t.Errorf("Last[%d] = %q, want %q", i, got[i].Name, want)
		}
	}
}

func TestNilTracerAndSpanAreFree(t *testing.T) {
	var tr *Tracer
	ctx, act := tr.Start(context.Background(), "x")
	if act != nil {
		t.Fatal("nil tracer produced an active trace")
	}
	if ActiveFrom(ctx).ID() != "" {
		t.Fatal("nil tracer attached a trace id")
	}
	sp := StartSpan(ctx, "y")
	if sp != nil {
		t.Fatal("span without a trace should be nil")
	}
	sp.Attr("k", "v")
	sp.End(nil)
	act.Attr("k", "v")
	act.End(nil)
}

func TestConcurrentSpans(t *testing.T) {
	tr := NewTracer(2, nil)
	ctx, act := tr.Start(context.Background(), "fanout")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			StartSpan(ctx, "item").End(nil)
		}()
	}
	wg.Wait()
	act.End(nil)
	got := tr.Last(1)
	if len(got) != 1 || len(got[0].Spans) != 16 {
		t.Fatalf("want 16 spans in one trace, got %+v", got)
	}
}

func TestTraceSlogExport(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	tr := NewTracer(4, logger)
	ctx, act := tr.Start(context.Background(), "predict")
	StartSpan(ctx, "compile").End(nil)
	act.End(nil)
	out := buf.String()
	if !strings.Contains(out, `"msg":"trace"`) || !strings.Contains(out, act.ID()) {
		t.Fatalf("trace not exported to slog: %q", out)
	}
}

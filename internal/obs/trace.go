package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"log/slog"
	mrand "math/rand/v2"
	"slices"
	"strings"
	"sync"
	"time"
)

// Span status values. An empty status means the span completed
// normally; canceled marks work abandoned through its context (e.g.
// the losing side of a hedged request), which is not an error.
const (
	StatusError    = "error"
	StatusCanceled = "canceled"
)

// TraceHeader is the propagation header carried on every hop, in a
// W3C-traceparent-style format with 64-bit IDs:
//
//	00-<16 hex trace-id>-<16 hex span-id>-<2 hex flags>
//
// The span-id names the sender's current span, which becomes the
// parent of whatever the receiver records. Flags bit 0 is "sampled".
const TraceHeader = "Traceparent"

// FlagSampled is the traceparent flags bit marking a sampled trace.
const FlagSampled = 0x01

// SpanContext is the propagated identity of one point in a trace: the
// trace it belongs to, the span that is current there, and the flags.
type SpanContext struct {
	TraceID string
	SpanID  string
	Flags   uint8
}

// Valid reports whether both IDs are well-formed 16-hex identifiers.
func (sc SpanContext) Valid() bool {
	return isHexID(sc.TraceID) && isHexID(sc.SpanID)
}

// Header renders the traceparent header value.
func (sc SpanContext) Header() string {
	const hexDigits = "0123456789abcdef"
	var b strings.Builder
	b.Grow(3 + 16 + 1 + 16 + 1 + 2)
	b.WriteString("00-")
	b.WriteString(sc.TraceID)
	b.WriteByte('-')
	b.WriteString(sc.SpanID)
	b.WriteByte('-')
	b.WriteByte(hexDigits[sc.Flags>>4])
	b.WriteByte(hexDigits[sc.Flags&0xf])
	return b.String()
}

// ParseTraceHeader parses a traceparent header value. Unknown versions
// and malformed IDs are rejected (ok=false) rather than guessed at, so
// a bad client header degrades to a fresh root trace.
func ParseTraceHeader(s string) (SpanContext, bool) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) != 4 || parts[0] != "00" {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: parts[1], SpanID: parts[2]}
	if !sc.Valid() || len(parts[3]) != 2 {
		return SpanContext{}, false
	}
	hi, ok1 := hexVal(parts[3][0])
	lo, ok2 := hexVal(parts[3][1])
	if !ok1 || !ok2 {
		return SpanContext{}, false
	}
	sc.Flags = hi<<4 | lo
	return sc, true
}

func hexVal(c byte) (uint8, bool) {
	switch {
	case c >= '0' && c <= '9':
		return c - '0', true
	case c >= 'a' && c <= 'f':
		return c - 'a' + 10, true
	default:
		return 0, false
	}
}

func isHexID(s string) bool {
	if len(s) != 16 {
		return false
	}
	allZero := true
	for i := 0; i < len(s); i++ {
		if _, ok := hexVal(s[i]); !ok {
			return false
		}
		if s[i] != '0' {
			allZero = false
		}
	}
	return !allZero
}

// Trace is one completed request trace: an ID shared across every
// process the request touched, this process's root span identity, the
// request-level outcome, and the spans recorded along the way.
type Trace struct {
	ID   string `json:"id"`
	Name string `json:"name"`
	// SpanID identifies this trace's root span; ParentID links it to
	// the remote span (another process) that caused it, "" at the true
	// root. Together they let Assemble stitch per-process traces into
	// one cross-process tree.
	SpanID   string            `json:"span_id,omitempty"`
	ParentID string            `json:"parent_id,omitempty"`
	Flags    uint8             `json:"flags,omitempty"`
	Source   string            `json:"source,omitempty"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration_ns"`
	Err      string            `json:"error,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Spans    []SpanRecord      `json:"spans,omitempty"`
}

// SpanRecord is one completed span inside a trace. Offsets are relative
// to the trace start. ParentID names another span in this trace (or the
// trace's own root span). Status "" means ok.
type SpanRecord struct {
	Name     string            `json:"name"`
	SpanID   string            `json:"span_id,omitempty"`
	ParentID string            `json:"parent_id,omitempty"`
	Offset   time.Duration     `json:"offset_ns"`
	Duration time.Duration     `json:"duration_ns"`
	Status   string            `json:"status,omitempty"`
	Err      string            `json:"error,omitempty"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// Tracer records request traces. Every finished trace enters a ring of
// the most recent ones and is offered to a tail-sampled archive (see
// ArchivePolicy), and is optionally exported as a structured slog
// event. Both rings live under one lock, and a trace both keep is one
// *Trace. A nil Tracer disables tracing at near-zero cost.
type Tracer struct {
	logger *slog.Logger
	source string
	policy ArchivePolicy

	mu      sync.Mutex
	recent  ring
	archive ring

	kept    map[string]*Counter // reason -> counter (nil until Register)
	dropped *Counter
}

// NewTracer creates a tracer whose recent ring keeps the last capacity
// traces (capacity <= 0 means 256) and whose archive follows policy.
// logger, when non-nil, receives one debug event per finished trace.
func NewTracer(capacity int, logger *slog.Logger, policy ArchivePolicy) *Tracer {
	if capacity <= 0 {
		capacity = 256
	}
	policy = policy.withDefaults()
	return &Tracer{
		logger:  logger,
		policy:  policy,
		recent:  ring{limit: capacity},
		archive: ring{limit: policy.Capacity},
	}
}

// ring is a bounded buffer of traces that overwrites its oldest.
type ring struct {
	buf   []*Trace
	next  int
	limit int
}

func (r *ring) push(tr *Trace) {
	if len(r.buf) < r.limit {
		r.buf = append(r.buf, tr)
	} else {
		r.buf[r.next] = tr
	}
	r.next = (r.next + 1) % r.limit
}

// newest returns the i-th most recent trace, 0 being the newest.
func (r *ring) newest(i int) *Trace {
	return r.buf[(r.next-1-i+len(r.buf))%len(r.buf)]
}

// SetSource names the process in every trace this tracer records (e.g.
// an instance ID), so assembled cross-process trees attribute spans.
func (t *Tracer) SetSource(source string) {
	if t != nil {
		t.source = source
	}
}

// Capacity returns the recent ring's size (0 on a nil Tracer).
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return t.recent.limit
}

// newID returns a 16-hex-char trace ID from the OS entropy source.
func newID() string {
	var b [8]byte
	rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// newSpanID returns a 16-hex-char span ID. Span IDs only need
// uniqueness within a trace, so the cheap goroutine-local PRNG beats a
// crypto/rand read on every span of every request.
func newSpanID() string {
	var b [8]byte
	v := mrand.Uint64() | 1 // never all-zero
	for i := 7; i >= 0; i-- {
		b[i] = byte(v)
		v >>= 8
	}
	return hex.EncodeToString(b[:])
}

type activeKey struct{}
type remoteKey struct{}

// Active is an in-progress trace. Methods are safe for concurrent use
// (spans may end from multiple goroutines, e.g. under Fan); a nil
// Active ignores everything.
type Active struct {
	t *Tracer

	mu    sync.Mutex
	tr    Trace
	ended bool
}

// ContextWithRemote attaches a remote parent span context to ctx.
// Tracer.Start adopts it (same trace ID, parented at the remote span),
// which is how blserve and blgate continue a trace whose Traceparent
// header arrived with the request.
func ContextWithRemote(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, remoteKey{}, sc)
}

// Start begins a trace and attaches it to the returned context, so
// spans opened downstream (across API and goroutine boundaries) land in
// it. When ctx carries a remote parent (ContextWithRemote), the new
// trace adopts the remote trace ID and parents its root span there;
// otherwise a fresh trace ID is minted. End must be called to publish
// the trace.
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Active) {
	if t == nil {
		return ctx, nil
	}
	tr := Trace{Name: name, SpanID: newSpanID(), Flags: FlagSampled, Source: t.source, Start: time.Now()}
	if sc, ok := ctx.Value(remoteKey{}).(SpanContext); ok {
		tr.ID = sc.TraceID
		tr.ParentID = sc.SpanID
		tr.Flags = sc.Flags
	} else {
		tr.ID = newID()
	}
	a := &Active{t: t, tr: tr}
	return context.WithValue(ctx, activeKey{}, a), a
}

// ID returns the trace ID ("" on a nil Active).
func (a *Active) ID() string {
	if a == nil {
		return ""
	}
	return a.tr.ID
}

// Attr attaches a trace-level attribute.
func (a *Active) Attr(k, v string) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.tr.Attrs == nil {
		a.tr.Attrs = map[string]string{}
	}
	a.tr.Attrs[k] = v
}

// End finalizes the trace, pushes it into the tracer's recent ring,
// offers it to the archive, and emits it as a slog debug event.
// Idempotent.
func (a *Active) End(err error) {
	if a == nil {
		return
	}
	a.mu.Lock()
	if a.ended {
		a.mu.Unlock()
		return
	}
	a.ended = true
	a.tr.Duration = time.Since(a.tr.Start)
	if err != nil {
		a.tr.Err = err.Error()
	}
	done := a.tr // copy under the lock; spans ending late are dropped
	a.mu.Unlock()
	a.t.push(&done)
}

func (t *Tracer) push(tr *Trace) {
	reason := t.keepReason(tr)
	t.mu.Lock()
	t.recent.push(tr)
	c := t.dropped
	if reason != "" {
		t.archive.push(tr)
		c = t.kept[reason]
	}
	t.mu.Unlock()
	c.Inc()
	if t.logger != nil && t.logger.Enabled(context.Background(), slog.LevelDebug) {
		attrs := []any{
			slog.String("trace", tr.ID),
			slog.String("name", tr.Name),
			slog.Duration("duration", tr.Duration),
			slog.Int("spans", len(tr.Spans)),
		}
		if tr.Err != "" {
			attrs = append(attrs, slog.String("error", tr.Err))
		}
		for k, v := range tr.Attrs {
			attrs = append(attrs, slog.String(k, v))
		}
		t.logger.Debug("trace", attrs...)
	}
}

// Last returns up to n traces from the recent ring, most recent first.
func (t *Tracer) Last(n int) []*Trace {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Trace, min(n, len(t.recent.buf)))
	for i := range out {
		out[i] = t.recent.newest(i)
	}
	return out
}

// Find returns every trace with the given trace ID, most recent first:
// the recent ring's, then the archive's not already among them. One
// process can hold several (a retried request can land on the same
// replica twice).
func (t *Tracer) Find(id string) []*Trace {
	if t == nil || id == "" {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*Trace
	for i := range t.recent.buf {
		if tr := t.recent.newest(i); tr.ID == id {
			out = append(out, tr)
		}
	}
	inRecent := len(out)
	for i := range t.archive.buf {
		if tr := t.archive.newest(i); tr.ID == id && !slices.Contains(out[:inRecent], tr) {
			out = append(out, tr)
		}
	}
	return out
}

// ActiveFrom returns the in-progress trace attached to ctx, or nil.
func ActiveFrom(ctx context.Context) *Active {
	a, _ := ctx.Value(activeKey{}).(*Active)
	return a
}

// Span is an in-progress span handle. A nil Span (no active trace in
// the context) ignores everything, so instrumentation is free when
// tracing is off.
type Span struct {
	a      *Active
	name   string
	id     string
	parent string
	start  time.Time
	attrs  map[string]string
}

// StartSpan opens a span on the trace attached to ctx, returning nil
// when there is none. The span's parent is the trace's root span. End
// publishes it.
func StartSpan(ctx context.Context, name string) *Span {
	a, _ := ctx.Value(activeKey{}).(*Active)
	if a == nil {
		return nil
	}
	return &Span{a: a, name: name, id: newSpanID(), parent: a.tr.SpanID, start: time.Now()}
}

// SpanContext returns the span's propagation identity, for stamping
// into outgoing requests so remote work parents here.
func (s *Span) SpanContext() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.a.tr.ID, SpanID: s.id, Flags: s.a.tr.Flags}
}

// Attr attaches a span attribute; returns the span for chaining.
func (s *Span) Attr(k, v string) *Span {
	if s == nil {
		return nil
	}
	if s.attrs == nil {
		s.attrs = map[string]string{}
	}
	s.attrs[k] = v
	return s
}

// End records the span into its trace. Context cancellation is not a
// failure of the work — a hedged request's loser is canceled by design
// — so a context.Canceled err closes the span with status "canceled";
// any other err closes it with status "error".
func (s *Span) End(err error) {
	if s == nil {
		return
	}
	rec := SpanRecord{
		Name:     s.name,
		SpanID:   s.id,
		ParentID: s.parent,
		Offset:   s.start.Sub(s.a.tr.Start),
		Duration: time.Since(s.start),
		Attrs:    s.attrs,
	}
	if err != nil {
		rec.Err = err.Error()
		rec.Status = StatusError
		if errors.Is(err, context.Canceled) {
			rec.Status = StatusCanceled
		}
	}
	s.a.mu.Lock()
	if !s.a.ended {
		s.a.tr.Spans = append(s.a.tr.Spans, rec)
	}
	s.a.mu.Unlock()
}

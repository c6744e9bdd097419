package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ballarus/internal/obs"
)

// stallRespectingCancel answers like id after stall, or returns
// immediately when the request context is canceled.
func stallRespectingCancel(id string, stall time.Duration) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(stall):
		}
		okPredict(id)(w, r)
	}
}

// hedgedTrace runs one request that hedges past a stalled primary and
// returns the gateway's completed trace plus the Traceparent header
// each fake replica saw.
func hedgedTrace(t *testing.T) (g *Gateway, tr *obs.Trace, slowSaw, fastSaw string) {
	t.Helper()
	slowRep := newFakeReplica(t, "slow")
	fastRep := newFakeReplica(t, "fast")
	var slowHeader, fastHeader atomic.Value
	slowHeader.Store("")
	fastHeader.Store("")
	slowRep.predict.Store(func(w http.ResponseWriter, r *http.Request) {
		slowHeader.Store(r.Header.Get(obs.TraceHeader))
		stallRespectingCancel("slow", 3*time.Second)(w, r)
	})
	fastRep.predict.Store(func(w http.ResponseWriter, r *http.Request) {
		fastHeader.Store(r.Header.Get(obs.TraceHeader))
		okPredict("fast")(w, r)
	})
	g, ts := newTestGateway(t, Config{
		MaxAttempts:  2,
		HedgeInitial: 20 * time.Millisecond,
		HedgeMin:     10 * time.Millisecond,
		RetryRatio:   1,
		RetryBurst:   100,
		RoutingSeed:  7,
	}, slowRep, fastRep)

	// The stalled replica may or may not own the content key; try a few
	// bodies until the primary lands on it (the hedge then wins).
	for i := 0; i < 16; i++ {
		resp, data := postBody(t, ts.URL, fmt.Sprintf(`{"source":"hedge-me-%d"}`, i), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d (body %s)", resp.StatusCode, data)
		}
		id := resp.Header.Get("X-Trace-Id")
		if id == "" {
			t.Fatal("response missing X-Trace-Id")
		}
		if resp.Header.Get("X-Instance-Id") != "fast" {
			continue // primary went to the fast replica; no hedge
		}
		traces := g.tracer.Find(id)
		if len(traces) != 1 {
			t.Fatalf("tracer.Find(%s) returned %d traces, want 1", id, len(traces))
		}
		return g, traces[0], slowHeader.Load().(string), fastHeader.Load().(string)
	}
	t.Fatal("primary never landed on the stalled replica in 16 tries")
	return nil, nil, "", ""
}

// TestHedgeLoserSpanCanceled: the losing attempt of a hedged request
// closes with status "canceled" — not "error" — charges no error
// counters, and does not eject the replica it ran on.
func TestHedgeLoserSpanCanceled(t *testing.T) {
	g, tr, _, _ := hedgedTrace(t)

	if tr.Attrs["hedged"] != "true" {
		t.Fatalf("trace not marked hedged: attrs %v", tr.Attrs)
	}
	var primary, hedge *obs.SpanRecord
	for i := range tr.Spans {
		switch tr.Spans[i].Name {
		case "attempt.primary":
			primary = &tr.Spans[i]
		case "attempt.hedge":
			hedge = &tr.Spans[i]
		}
	}
	if primary == nil || hedge == nil {
		t.Fatalf("trace missing attempt spans: %+v", tr.Spans)
	}
	if primary.Status != obs.StatusCanceled {
		t.Fatalf("loser status = %q, want %q (err %q)", primary.Status, obs.StatusCanceled, primary.Err)
	}
	if primary.Attrs["replica"] != "replica0" {
		t.Fatalf("loser ran on %q, want replica0", primary.Attrs["replica"])
	}
	if hedge.Status != "" {
		t.Fatalf("winner status = %q, want ok (err %q)", hedge.Status, hedge.Err)
	}
	if primary.ParentID != tr.SpanID || hedge.ParentID != tr.SpanID {
		t.Fatalf("attempt spans not parented at the request root: primary %q hedge %q root %q",
			primary.ParentID, hedge.ParentID, tr.SpanID)
	}

	// A canceled loser is the gateway's own doing: no error counters,
	// no passive-ejection progress.
	for id, c := range g.metrics.replicaErr {
		if v := c.Value(); v != 0 {
			t.Fatalf("replicaErr[%s] = %d, want 0", id, v)
		}
	}
	if v := g.metrics.ejections.Value(); v != 0 {
		t.Fatalf("ejections = %d, want 0", v)
	}
	for _, rs := range g.Stats().Replicas {
		if rs.Ejected || rs.Failures > 0 {
			t.Fatalf("replica stats show failure progress: %+v", rs)
		}
	}
}

// TestHedgeSpanIDsSurviveProxy: the Traceparent each replica receives
// names the gateway's trace and that attempt's span, so a replica's
// trace parents at the exact attempt that caused it.
func TestHedgeSpanIDsSurviveProxy(t *testing.T) {
	_, tr, slowSaw, fastSaw := hedgedTrace(t)

	spanID := map[string]string{}
	for _, sp := range tr.Spans {
		spanID[sp.Name] = sp.SpanID
	}
	for _, tc := range []struct{ name, header, want string }{
		{"loser", slowSaw, spanID["attempt.primary"]},
		{"winner", fastSaw, spanID["attempt.hedge"]},
	} {
		sc, ok := obs.ParseTraceHeader(tc.header)
		if !ok {
			t.Fatalf("%s replica got unparseable Traceparent %q", tc.name, tc.header)
		}
		if sc.TraceID != tr.ID {
			t.Fatalf("%s Traceparent trace = %s, want %s", tc.name, sc.TraceID, tr.ID)
		}
		if tc.want == "" || sc.SpanID != tc.want {
			t.Fatalf("%s Traceparent span = %s, want attempt span %q", tc.name, sc.SpanID, tc.want)
		}
		if sc.Flags&obs.FlagSampled == 0 {
			t.Fatalf("%s Traceparent flags %02x missing sampled bit", tc.name, sc.Flags)
		}
	}
}

// tracingReplica is a fake blserve that records a child trace for each
// predict request and serves it back on /debug/traces?id=, the way a
// real replica's ring buffer does.
func tracingReplica(t *testing.T, id string) *httptest.Server {
	t.Helper()
	var mu struct {
		s      chan struct{}
		traces []*obs.Trace
	}
	mu.s = make(chan struct{}, 1)
	mu.s <- struct{}{}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			w.WriteHeader(http.StatusOK)
		case "/v1/predict":
			sc, _ := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
			tr := &obs.Trace{
				ID:       sc.TraceID,
				Name:     "predict",
				SpanID:   "beefbeefbeefbeef",
				ParentID: sc.SpanID,
				Source:   id,
				Start:    time.Now(),
				Duration: 2 * time.Millisecond,
				Spans: []obs.SpanRecord{{
					Name:     "stage.execute",
					SpanID:   "cafecafecafecafe",
					ParentID: "beefbeefbeefbeef",
					Duration: time.Millisecond,
				}},
			}
			<-mu.s
			mu.traces = append(mu.traces, tr)
			mu.s <- struct{}{}
			okPredict(id)(w, r)
		case "/debug/traces":
			want := r.URL.Query().Get("id")
			out := []*obs.Trace{}
			<-mu.s
			for _, tr := range mu.traces {
				if tr.ID == want {
					out = append(out, tr)
				}
			}
			mu.s <- struct{}{}
			writeJSON(w, http.StatusOK, out)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestTraceAssemblyAcrossHops: GET /v1/trace/{id} merges the gateway's
// request trace with the replica-side traces fetched over
// /debug/traces?id= into one parent-linked tree.
func TestTraceAssemblyAcrossHops(t *testing.T) {
	r0 := tracingReplica(t, "rep0")
	g, err := New(Config{
		Replicas:   []string{r0.URL},
		ProbeEvery: -1,
		Logger:     nil,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)

	resp, data := postBody(t, ts.URL, `{"source":"assemble-me"}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (body %s)", resp.StatusCode, data)
	}
	id := resp.Header.Get("X-Trace-Id")

	resp2, err := http.Get(ts.URL + "/v1/trace/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/trace/%s: status %d", id, resp2.StatusCode)
	}
	var a obs.AssembledTrace
	if err := json.NewDecoder(resp2.Body).Decode(&a); err != nil {
		t.Fatal(err)
	}
	if a.ID != id || a.Root == nil {
		t.Fatalf("assembled = %+v, want id %s with a root", a, id)
	}
	if a.Root.Name != "/v1/predict" || a.Root.Source != "gateway" {
		t.Fatalf("root = %s from %s, want /v1/predict from gateway", a.Root.Name, a.Root.Source)
	}
	// gateway root -> attempt.primary -> replica predict -> stage.execute
	if len(a.Root.Children) != 1 || a.Root.Children[0].Name != "attempt.primary" {
		t.Fatalf("root children = %+v, want one attempt.primary", a.Root.Children)
	}
	attempt := a.Root.Children[0]
	if len(attempt.Children) != 1 || attempt.Children[0].Name != "predict" {
		t.Fatalf("attempt children = %+v, want the replica's predict trace", attempt.Children)
	}
	remote := attempt.Children[0]
	if remote.Source != "replica0" {
		t.Fatalf("remote span source = %q, want replica0", remote.Source)
	}
	if len(remote.Children) != 1 || remote.Children[0].Name != "stage.execute" {
		t.Fatalf("remote children = %+v, want stage.execute", remote.Children)
	}
	if a.Spans != 4 || len(a.Orphans) != 0 {
		t.Fatalf("spans = %d orphans = %d, want 4 and 0", a.Spans, len(a.Orphans))
	}

	// Unknown IDs are a 404 with the JSON error shape; malformed ones a 400.
	resp3, _ := http.Get(ts.URL + "/v1/trace/ffffffffffffffff")
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace: status %d, want 404", resp3.StatusCode)
	}
	resp4, _ := http.Get(ts.URL + "/v1/trace/nope")
	resp4.Body.Close()
	if resp4.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed trace id: status %d, want 400", resp4.StatusCode)
	}
}

// TestReplicaLatencyExemplarIsGatewayTrace: the replica latency
// exemplar names the gateway's own trace, the one its response echoes,
// even when the client sends an X-Trace-Id header of its own; and that
// header is not forwarded, since no replica reads it.
func TestReplicaLatencyExemplarIsGatewayTrace(t *testing.T) {
	a := newFakeReplica(t, "a")
	var upstream atomic.Value
	upstream.Store("unset")
	a.predict.Store(func(w http.ResponseWriter, r *http.Request) {
		upstream.Store(r.Header.Get("X-Trace-Id"))
		okPredict("a")(w, r)
	})
	_, ts := newTestGateway(t, Config{}, a)

	resp, data := postBody(t, ts.URL, `{"source":"x"}`, map[string]string{"X-Trace-Id": "abc123"})
	id := resp.Header.Get("X-Trace-Id")
	if resp.StatusCode != http.StatusOK || !isTraceID(id) {
		t.Fatalf("status %d, X-Trace-Id %q (body %s)", resp.StatusCode, id, data)
	}
	if got := upstream.Load(); got != "" {
		t.Errorf("replica saw X-Trace-Id %q, want none", got)
	}

	m, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Body.Close()
	exp, err := obs.ParseExposition(m.Body)
	if err != nil {
		t.Fatal(err)
	}
	var exemplars int
	for _, sm := range exp.Samples {
		if sm.Name != "ballarus_gateway_replica_latency_seconds_exemplar" {
			continue
		}
		exemplars++
		if sm.Labels["trace_id"] != id {
			t.Errorf("exemplar %v names trace %q, want the response's %s", sm.Labels, sm.Labels["trace_id"], id)
		}
	}
	if exemplars != 1 {
		t.Fatalf("%d replica latency exemplars, want 1", exemplars)
	}
}

// TestGatewayDebugTracesAndSlowest covers the gateway's own trace
// query surface: ?last clamping, ?id filtering, bad parameters, and
// the slowest-trace summary endpoint.
func TestGatewayDebugTracesAndSlowest(t *testing.T) {
	a := newFakeReplica(t, "a")
	g, ts := newTestGateway(t, Config{
		TraceArchive: obs.ArchivePolicy{SampleRate: 1},
	}, a)

	var ids []string
	for i := 0; i < 3; i++ {
		resp, _ := postBody(t, ts.URL, fmt.Sprintf(`{"source":"q%d"}`, i), nil)
		ids = append(ids, resp.Header.Get("X-Trace-Id"))
	}

	get := func(path string) (int, []byte) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		buf, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf
	}

	// ?last far beyond the ring capacity clamps instead of erroring.
	code, body := get(fmt.Sprintf("/debug/traces?last=%d", g.tracer.Capacity()*10))
	var traces []*obs.Trace
	if code != http.StatusOK || json.Unmarshal(body, &traces) != nil || len(traces) != 3 {
		t.Fatalf("clamped last: code %d body %s", code, body)
	}
	// ?id returns exactly that trace's collections.
	code, body = get("/debug/traces?id=" + ids[1])
	if code != http.StatusOK || json.Unmarshal(body, &traces) != nil {
		t.Fatalf("id query: code %d body %s", code, body)
	}
	for _, tr := range traces {
		if tr.ID != ids[1] {
			t.Fatalf("id query returned foreign trace %s", tr.ID)
		}
	}
	if len(traces) == 0 {
		t.Fatal("id query returned nothing")
	}
	// Malformed ?last is the client's fault.
	code, body = get("/debug/traces?last=zero")
	var e map[string]string
	if code != http.StatusBadRequest || json.Unmarshal(body, &e) != nil || e["code"] != "invalid_input" {
		t.Fatalf("bad last: code %d body %s", code, body)
	}

	// The slowest summary lists archived traces with usable IDs.
	code, body = get("/v1/trace/slowest?n=2")
	var slow struct {
		Traces []traceSummary `json:"traces"`
	}
	if code != http.StatusOK || json.Unmarshal(body, &slow) != nil || len(slow.Traces) == 0 {
		t.Fatalf("slowest: code %d body %s", code, body)
	}
	if !isTraceID(slow.Traces[0].ID) {
		t.Fatalf("slowest row ID %q is not a trace ID", slow.Traces[0].ID)
	}
	code, _ = get("/v1/trace/slowest?n=-1")
	if code != http.StatusBadRequest {
		t.Fatalf("bad n: code %d, want 400", code)
	}
}

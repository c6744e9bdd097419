package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"ballarus/internal/obs"
)

// fakeReplica is a scriptable blserve stand-in: swap behavior at any
// point by storing a new handler func.
type fakeReplica struct {
	ts      *httptest.Server
	id      string
	predict atomic.Value // func(w http.ResponseWriter, r *http.Request)
	compare atomic.Value // func(w http.ResponseWriter, r *http.Request)
	healthy atomic.Bool
	hits    atomic.Int64
	cmpHits atomic.Int64
}

// okPredict answers like a healthy blserve.
func okPredict(id string) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Instance-Id", id)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"name":"fake","steps":1,"degraded":false}`)
	}
}

// okCompare answers a compare request with a distinguishable body.
func okCompare(id string) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Instance-Id", id)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"name":"fake-compare","predictors":[],"degraded":false}`)
	}
}

func newFakeReplica(t *testing.T, id string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{id: id}
	f.predict.Store(okPredict(id))
	f.compare.Store(okCompare(id))
	f.healthy.Store(true)
	f.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Reading the body to EOF lets net/http notice a client that
		// hangs up and cancel r.Context(), so a stalled handler that
		// watches it ends when the gateway abandons the attempt.
		io.Copy(io.Discard, r.Body)
		switch r.URL.Path {
		case "/healthz":
			if f.healthy.Load() {
				w.WriteHeader(http.StatusOK)
			} else {
				w.WriteHeader(http.StatusServiceUnavailable)
			}
		case "/v1/predict":
			f.hits.Add(1)
			f.predict.Load().(func(http.ResponseWriter, *http.Request))(w, r)
		case "/v1/compare":
			f.cmpHits.Add(1)
			f.compare.Load().(func(http.ResponseWriter, *http.Request))(w, r)
		case "/v1/stats":
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprintf(w, `{"replica":%q}`, f.id)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(f.ts.Close)
	return f
}

// newTestGateway builds a gateway over the fakes with active probing
// off unless cfg turns it on.
func newTestGateway(t *testing.T, cfg Config, fakes ...*fakeReplica) (*Gateway, *httptest.Server) {
	t.Helper()
	for _, f := range fakes {
		cfg.Replicas = append(cfg.Replicas, f.ts.URL)
	}
	if cfg.ProbeEvery == 0 {
		cfg.ProbeEvery = -1
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	return g, ts
}

func postBody(t *testing.T, url string, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	return postPath(t, url, "/v1/predict", body, hdr)
}

func postPath(t *testing.T, url, path, body string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestGatewayProxiesPredict(t *testing.T) {
	a := newFakeReplica(t, "a")
	b := newFakeReplica(t, "b")
	_, ts := newTestGateway(t, Config{}, a, b)

	resp, data := postBody(t, ts.URL, `{"source":"x"}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d (body %s)", resp.StatusCode, data)
	}
	if id := resp.Header.Get("X-Instance-Id"); id != "a" && id != "b" {
		t.Fatalf("X-Instance-Id = %q, want a replica id", id)
	}
	var out map[string]any
	if err := json.Unmarshal(data, &out); err != nil || out["name"] != "fake" {
		t.Fatalf("body %s not relayed (err %v)", data, err)
	}
}

// TestGatewayRetriesPastFailure: one replica answering 500 must not be
// client-visible while the other is healthy.
func TestGatewayRetriesPastFailure(t *testing.T) {
	a := newFakeReplica(t, "a")
	b := newFakeReplica(t, "b")
	a.predict.Store(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	g, ts := newTestGateway(t, Config{MaxAttempts: 2, RetryRatio: 1, RetryBurst: 100}, a, b)

	// Least-inflight routing breaks ties at random, so keep sending, up
	// to a bound, until the failing replica has been tried at least once.
	for i := 0; i < 8 || (a.hits.Load() == 0 && i < 64); i++ {
		resp, data := postBody(t, ts.URL, fmt.Sprintf(`{"source":"req%d"}`, i), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d (body %s)", i, resp.StatusCode, data)
		}
		if id := resp.Header.Get("X-Instance-Id"); id != "b" {
			t.Fatalf("request %d answered by %q, want b", i, id)
		}
	}
	if a.hits.Load() == 0 {
		t.Fatal("64 requests never routed to the failing replica")
	}
	if got := g.metrics.attempts[attemptRetry].Value() + g.metrics.attempts[attemptHedge].Value(); got == 0 {
		t.Fatal("no retries or hedges recorded despite a failing replica")
	}
}

// TestClientDeadlineDoesNotEject: a replica answers 504 when the
// deadline the gateway propagated runs out. That is the client's
// budget, not the replica's health, so it moves neither failures nor
// ejections.
func TestClientDeadlineDoesNotEject(t *testing.T) {
	timeout := func(w http.ResponseWriter, r *http.Request) {
		ms, _ := strconv.Atoi(r.Header.Get("X-Deadline-Ms"))
		time.Sleep(time.Duration(ms) * time.Millisecond * 9 / 10)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusGatewayTimeout)
		fmt.Fprint(w, `{"error":"context deadline exceeded","code":"timeout"}`)
	}
	a := newFakeReplica(t, "a")
	b := newFakeReplica(t, "b")
	a.predict.Store(timeout)
	b.predict.Store(timeout)
	g, ts := newTestGateway(t, Config{EjectAfter: 2, EjectBase: time.Minute, EjectMax: time.Minute}, a, b)

	for i := 0; i < 6; i++ {
		resp, data := postBody(t, ts.URL, fmt.Sprintf(`{"source":"req%d"}`, i),
			map[string]string{"X-Deadline-Ms": "40"})
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("request %d: status = %d (body %s), want 504", i, resp.StatusCode, data)
		}
	}
	for _, rs := range g.Stats().Replicas {
		if rs.Failures != 0 || rs.Ejections != 0 {
			t.Errorf("replica %s after client deadlines: %+v, want no failures and no ejections", rs.ID, rs)
		}
	}
}

// TestNoRetryPastDeadline: a replica's 504 late in the client's deadline
// leaves less time than the replicas' observed latency, so the gateway
// launches no retry, which could not finish, and spends no budget token.
func TestNoRetryPastDeadline(t *testing.T) {
	timeout := func(w http.ResponseWriter, r *http.Request) {
		ms, _ := strconv.Atoi(r.Header.Get("X-Deadline-Ms"))
		time.Sleep(time.Duration(ms) * time.Millisecond * 9 / 10)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusGatewayTimeout)
		fmt.Fprint(w, `{"error":"context deadline exceeded","code":"timeout"}`)
	}
	a := newFakeReplica(t, "a")
	b := newFakeReplica(t, "b")
	a.predict.Store(timeout)
	b.predict.Store(timeout)
	g, ts := newTestGateway(t, Config{RetryRatio: 1, RetryBurst: 100}, a, b)

	for i := 0; i < 12; i++ {
		resp, data := postBody(t, ts.URL, fmt.Sprintf(`{"source":"req%d"}`, i),
			map[string]string{"X-Deadline-Ms": "40"})
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("request %d: status = %d (body %s), want 504", i, resp.StatusCode, data)
		}
	}
	if got := g.metrics.attempts[attemptRetry].Value(); got != 0 {
		t.Errorf("%v retries launched with the deadline nearly spent, want 0", got)
	}
	if got := g.metrics.attempts[attemptPrimary].Value(); got != 12 {
		t.Errorf("%v primaries, want 12", got)
	}
}

// TestEarlyTimeoutStillRetries: a 504 that comes back with most of the
// deadline left is still retried on another replica, which answers.
func TestEarlyTimeoutStillRetries(t *testing.T) {
	primaryTimesOut := func(id string) func(http.ResponseWriter, *http.Request) {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get("X-Attempt-Kind") != attemptPrimary {
				okPredict(id)(w, r)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusGatewayTimeout)
			fmt.Fprint(w, `{"error":"context deadline exceeded","code":"timeout"}`)
		}
	}
	a := newFakeReplica(t, "a")
	b := newFakeReplica(t, "b")
	a.predict.Store(primaryTimesOut("a"))
	b.predict.Store(primaryTimesOut("b"))
	// No hedge can fire before the primary's 504 is back, and the
	// deadline leaves more than that delay for the retry.
	g, ts := newTestGateway(t, Config{HedgeInitial: 5 * time.Second, RetryRatio: 1, RetryBurst: 100}, a, b)

	for i := 0; i < 6; i++ {
		resp, data := postBody(t, ts.URL, fmt.Sprintf(`{"source":"req%d"}`, i),
			map[string]string{"X-Deadline-Ms": "10000"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d (body %s), want 200 from the retry", i, resp.StatusCode, data)
		}
	}
	if got := g.metrics.attempts[attemptRetry].Value(); got != 6 {
		t.Errorf("%v retries, want one per request (6)", got)
	}
}

// TestGatewayPassiveEjection: consecutive failures eject the sick
// replica, after which traffic stops reaching it until the cool-off.
func TestGatewayPassiveEjection(t *testing.T) {
	a := newFakeReplica(t, "a")
	b := newFakeReplica(t, "b")
	a.predict.Store(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	g, ts := newTestGateway(t, Config{
		MaxAttempts: 2, RetryRatio: 1, RetryBurst: 100,
		EjectAfter: 2, EjectBase: time.Minute, EjectMax: time.Minute,
	}, a, b)

	for i := 0; i < 10; i++ {
		resp, data := postBody(t, ts.URL, fmt.Sprintf(`{"source":"req%d"}`, i), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status = %d (body %s)", i, resp.StatusCode, data)
		}
	}
	st := g.Stats()
	var aStats, bStats replicaStats
	for _, rs := range st.Replicas {
		if rs.URL == a.ts.URL {
			aStats = rs
		} else {
			bStats = rs
		}
	}
	if !aStats.Ejected || aStats.Ejections == 0 {
		t.Fatalf("failing replica not ejected: %+v", aStats)
	}
	if bStats.Ejected {
		t.Fatalf("healthy replica ejected: %+v", bStats)
	}
	// Once ejected, new requests must not touch the sick replica.
	before := a.hits.Load()
	for i := 0; i < 5; i++ {
		postBody(t, ts.URL, fmt.Sprintf(`{"source":"post-eject%d"}`, i), nil)
	}
	if after := a.hits.Load(); after != before {
		t.Fatalf("ejected replica still receiving traffic: %d → %d", before, after)
	}
}

// TestGatewayBrownout: with every replica failing — erroring with 500,
// or shedding with a bare overload 429 (no X-RateLimit-Limit, so not a
// quota rejection) — answered requests come back stale and degraded
// from the gateway's cache; unseen ones get a JSON error with
// Retry-After, never a transport failure.
func TestGatewayBrownout(t *testing.T) {
	for _, tc := range []struct {
		name string
		fail func(http.ResponseWriter, *http.Request)
		// unseen is the status an unseen request must get; 0 means any 5xx.
		unseen int
	}{
		{"error", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "down", http.StatusInternalServerError)
		}, 0},
		{"overload", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":"shed","code":"overload"}`)
		}, http.StatusTooManyRequests},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newFakeReplica(t, "a")
			b := newFakeReplica(t, "b")
			g, ts := newTestGateway(t, Config{MaxAttempts: 2}, a, b)

			// Prime the last-known-good cache; field order must not matter.
			resp, data := postBody(t, ts.URL, `{"source":"x","dataset":1}`, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("prime status = %d (body %s)", resp.StatusCode, data)
			}
			a.predict.Store(tc.fail)
			b.predict.Store(tc.fail)

			resp, data = postBody(t, ts.URL, `{"dataset":1,"source":"x"}`, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("brownout status = %d, want 200 stale (body %s)", resp.StatusCode, data)
			}
			var out map[string]any
			if err := json.Unmarshal(data, &out); err != nil {
				t.Fatal(err)
			}
			if out["degraded"] != true {
				t.Fatalf("stale response not marked degraded: %s", data)
			}
			if g.metrics.requests["degraded"].Value() == 0 {
				t.Fatal("stale_served counter not incremented")
			}

			resp, data = postBody(t, ts.URL, `{"source":"never-seen"}`, nil)
			if tc.unseen == 0 && resp.StatusCode < 500 || tc.unseen != 0 && resp.StatusCode != tc.unseen {
				t.Fatalf("unseen brownout request: status = %d, want %d (0 = any 5xx; body %s)",
					resp.StatusCode, tc.unseen, data)
			}
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("brownout error missing Retry-After")
			}
			var e map[string]string
			if err := json.Unmarshal(data, &e); err != nil || e["error"] == "" {
				t.Fatalf("brownout error body %s is not the JSON error shape (err %v)", data, err)
			}
		})
	}
}

// TestGatewayDeadline: a short client deadline surfaces as 504 and is
// propagated upstream via X-Deadline-Ms.
func TestGatewayDeadline(t *testing.T) {
	var sawDeadline atomic.Bool
	slow := func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Deadline-Ms") != "" {
			sawDeadline.Store(true)
		}
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	}
	a := newFakeReplica(t, "a")
	b := newFakeReplica(t, "b")
	a.predict.Store(slow)
	b.predict.Store(slow)
	_, ts := newTestGateway(t, Config{MaxAttempts: 2, HedgeInitial: 10 * time.Millisecond}, a, b)

	start := time.Now()
	resp, data := postBody(t, ts.URL, `{"source":"x"}`, map[string]string{"X-Deadline-Ms": "80"})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %s)", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("504 missing Retry-After")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %v to surface", elapsed)
	}
	if !sawDeadline.Load() {
		t.Fatal("X-Deadline-Ms not propagated to the replica")
	}
	// Malformed deadlines are the client's fault.
	resp, _ = postBody(t, ts.URL, `{"source":"x"}`, map[string]string{"X-Deadline-Ms": "soon"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad X-Deadline-Ms: status = %d, want 400", resp.StatusCode)
	}
}

// TestGatewayClientErrorsPassThrough: 4xx means the request is wrong
// everywhere — no retries, body relayed.
func TestGatewayClientErrorsPassThrough(t *testing.T) {
	a := newFakeReplica(t, "a")
	b := newFakeReplica(t, "b")
	bad := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"error":"bad order","code":"invalid_input"}`)
	}
	a.predict.Store(bad)
	b.predict.Store(bad)
	g, ts := newTestGateway(t, Config{MaxAttempts: 3, RetryRatio: 1, RetryBurst: 100}, a, b)

	resp, data := postBody(t, ts.URL, `{"order":"bogus"}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400 (body %s)", resp.StatusCode, data)
	}
	var e map[string]string
	if err := json.Unmarshal(data, &e); err != nil || e["code"] != "invalid_input" {
		t.Fatalf("error body %s not relayed (err %v)", data, err)
	}
	if got := g.metrics.attempts[attemptRetry].Value(); got != 0 {
		t.Fatalf("4xx retried %d times, want 0", got)
	}
}

// TestGatewayStatsAndPassthrough covers the read-only surface.
func TestGatewayStatsAndPassthrough(t *testing.T) {
	a := newFakeReplica(t, "a")
	_, ts := newTestGateway(t, Config{}, a)

	resp, err := http.Get(ts.URL + "/gateway/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st gatewayStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Replicas) != 1 || st.HealthyReplicas != 1 {
		t.Fatalf("stats = %+v", st)
	}

	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(data, []byte(`"replica"`)) {
		t.Fatalf("passthrough /v1/stats: status %d body %s", resp.StatusCode, data)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz status = %d", resp.StatusCode)
	}
}

// scrapeGateway fetches the gateway's exposition and requires it to
// lint clean.
func scrapeGateway(t *testing.T, url string) *obs.Exposition {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if problems := obs.Lint(bytes.NewReader(data)); len(problems) > 0 {
		t.Fatalf("lint problems: %v", problems)
	}
	e, err := obs.ParseExposition(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestGatewayMetricsLint: the exposition must parse and lint clean,
// carry the headline gateway series, and agree with /gateway/stats.
func TestGatewayMetricsLint(t *testing.T) {
	a := newFakeReplica(t, "a")
	b := newFakeReplica(t, "b")
	g, ts := newTestGateway(t, Config{}, a, b)
	postBody(t, ts.URL, `{"source":"x"}`, nil)

	e := scrapeGateway(t, ts.URL)
	if v, ok := e.Value("ballarus_gateway_requests_total", map[string]string{"outcome": "ok"}); !ok || v < 1 {
		t.Fatalf("requests_total{outcome=ok} = %v %v, want >= 1", v, ok)
	}
	if v, ok := e.Value("ballarus_gateway_healthy_replicas", map[string]string{}); !ok || v != 2 {
		t.Fatalf("healthy_replicas = %v %v, want 2", v, ok)
	}
	if _, ok := e.Value("ballarus_gateway_retry_budget_tokens", map[string]string{}); !ok {
		t.Error("metric ballarus_gateway_retry_budget_tokens missing from exposition")
	}
	st := g.Stats()
	for _, c := range []struct {
		name   string
		labels map[string]string
		want   int64
	}{
		{"ballarus_gateway_attempts_total", map[string]string{"kind": "hedge"}, st.HedgeFires},
		{"ballarus_gateway_hedge_wins_total", map[string]string{}, st.HedgeWins},
		{"ballarus_gateway_requests_total", map[string]string{"outcome": "degraded"}, st.StaleServed},
	} {
		if v, ok := e.Value(c.name, c.labels); !ok || int64(v) != c.want {
			t.Errorf("%s%v = %v (found %v), /gateway/stats says %d", c.name, c.labels, v, ok, c.want)
		}
	}
}

// TestReplicaGaugesMatchStats: a replica that probes healthy but was
// ejected after one 500 reads healthy 1 and ejected 1 in /metrics,
// exactly as /gateway/stats reports it.
func TestReplicaGaugesMatchStats(t *testing.T) {
	a := newFakeReplica(t, "a")
	b := newFakeReplica(t, "b")
	a.predict.Store(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	})
	// A fixed routing seed makes least-inflight's tie-breaks, and so the
	// request that reaches a, the same on every run.
	g, ts := newTestGateway(t, Config{EjectAfter: 1, EjectBase: time.Minute, EjectMax: time.Minute, RoutingSeed: 1}, a, b)
	for i := 0; i < 8 && a.hits.Load() == 0; i++ {
		postBody(t, ts.URL, fmt.Sprintf(`{"source":"req%d"}`, i), nil)
	}
	if a.hits.Load() == 0 {
		t.Fatal("8 requests never routed to the failing replica")
	}

	e := scrapeGateway(t, ts.URL)
	ejected := 0
	for _, rs := range g.Stats().Replicas {
		if rs.Healthy && rs.Ejected {
			ejected++
		}
		for name, want := range map[string]bool{
			"ballarus_gateway_replica_healthy": rs.Healthy,
			"ballarus_gateway_replica_ejected": rs.Ejected,
		} {
			if v, ok := e.Value(name, map[string]string{"replica": rs.ID}); !ok || (v == 1) != want {
				t.Errorf("%s{replica=%s} = %v (found %v), /gateway/stats says %v", name, rs.ID, v, ok, want)
			}
		}
	}
	if ejected != 1 {
		t.Fatalf("%d replicas both healthy and ejected, want the failing one", ejected)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("no replicas accepted")
	}
	if _, err := New(Config{Replicas: []string{"not a url"}}); err == nil {
		t.Fatal("bad replica URL accepted")
	}
}

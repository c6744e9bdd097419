package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ballarus"
	"ballarus/internal/resilience"
	"ballarus/internal/service"
)

const testSrc = `
int main() {
	int i;
	int s = 0;
	for (i = 0; i < 1000; i++) {
		if (i % 3 == 0) { s += i; }
	}
	printi(s);
	printc('\n');
	return 0;
}
`

func newTestServer(t *testing.T, opts ...service.Option) (*httptest.Server, *service.Service) {
	t.Helper()
	svc := service.New(opts...)
	ts := httptest.NewServer(newServer(svc).handler(false))
	t.Cleanup(ts.Close)
	return ts, svc
}

func postPredict(t *testing.T, ts *httptest.Server, req predictRequest) (*http.Response, predictResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out predictResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp, out
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
}

func TestPredictSourceAndCacheHit(t *testing.T) {
	ts, _ := newTestServer(t)
	req := predictRequest{Source: testSrc, IncludeOutput: true}

	resp, first := postPredict(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first predict status = %d", resp.StatusCode)
	}
	if first.RunCached || first.ProgramCached {
		t.Fatalf("first request should be cold, got %+v", first)
	}
	if first.DynamicBranches == 0 || first.Steps == 0 {
		t.Fatalf("empty result: %+v", first)
	}
	if first.Output == "" {
		t.Fatal("include_output did not echo program output")
	}

	resp, second := postPredict(t, ts, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second predict status = %d", resp.StatusCode)
	}
	if !second.ProgramCached || !second.AnalysisCached || !second.RunCached {
		t.Fatalf("repeated identical request should hit every cache, got %+v", second)
	}
	if second.Heuristic != first.Heuristic || second.Steps != first.Steps {
		t.Fatalf("cached result differs: %+v vs %+v", second, first)
	}

	// The hit must be visible in /v1/stats.
	var stats service.Stats
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if err := json.NewDecoder(sresp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Completed != 2 || stats.RunHits != 1 || stats.RunMisses != 1 {
		t.Fatalf("stats = completed %d, run hits %d, misses %d; want 2/1/1",
			stats.Completed, stats.RunHits, stats.RunMisses)
	}
	if st := stats.Stages[0]; st.Name != "compile" || st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("first stage = %+v; want compile with 1 cache hit, 1 miss", st)
	}
}

func TestPredictBenchmark(t *testing.T) {
	ts, _ := newTestServer(t)
	name := ballarus.Benchmarks()[0].Name
	resp, out := postPredict(t, ts, predictRequest{Benchmark: name})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("benchmark predict status = %d", resp.StatusCode)
	}
	if out.Name != name || out.DynamicBranches == 0 {
		t.Fatalf("bad benchmark result: %+v", out)
	}
}

func TestPredictConcurrent(t *testing.T) {
	ts, _ := newTestServer(t)
	const n = 16
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half hammer one source, half use distinct sources.
			src := testSrc
			if i%2 == 1 {
				src = fmt.Sprintf("int main() { int i; int s = 0; for (i = 0; i < %d; i++) { s += i; } printi(s); return 0; }", 100+i)
			}
			body, _ := json.Marshal(predictRequest{Source: src})
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPredictBadRequests(t *testing.T) {
	ts, _ := newTestServer(t)
	cases := []predictRequest{
		{},                                  // neither source nor benchmark
		{Source: "int main() { return 0 }"}, // syntax error
		{Benchmark: "no-such-benchmark"},    // unknown benchmark
		{Source: testSrc, Order: "bogus"},   // malformed order
		{Source: testSrc, Benchmark: "gcc"}, // both set
	}
	for i, req := range cases {
		resp, _ := postPredict(t, ts, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("case %d: status = %d, want 400", i, resp.StatusCode)
		}
	}
	// Non-JSON body.
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader([]byte("not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-JSON body: status = %d, want 400", resp.StatusCode)
	}
	// Wrong method.
	gresp, err := http.Get(ts.URL + "/v1/predict")
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/predict: status = %d, want 405", gresp.StatusCode)
	}
}

// postRaw posts a predict request and returns the raw response with the
// body read, so tests can inspect error bodies and headers.
func postRaw(t *testing.T, ts *httptest.Server, req predictRequest) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
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

func decodeError(t *testing.T, data []byte) errorResponse {
	t.Helper()
	var e errorResponse
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("error body %q is not valid JSON: %v", data, err)
	}
	return e
}

// TestPredictBudgetExhausted: blowing the instruction budget is the
// client's problem, not a server bug — 422, not 500.
func TestPredictBudgetExhausted(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, data := postRaw(t, ts, predictRequest{Source: testSrc, Budget: 100})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422 (body %s)", resp.StatusCode, data)
	}
	if e := decodeError(t, data); e.Code != "resource_exhausted" {
		t.Fatalf("code = %q, want resource_exhausted", e.Code)
	}
}

// TestFullQueueShedsPredict: with the only worker held and the queue
// full, every predict is shed with 429 overload and Retry-After — a
// request the server has answered before as much as an unseen one.
// Brownout answers come from the gateway's cache, not from the replica.
func TestFullQueueShedsPredict(t *testing.T) {
	defer resilience.ClearFaults()
	ts, svc := newTestServer(t, service.WithWorkers(1), service.WithQueueDepth(1))
	primed := predictRequest{Source: testSrc}
	if resp, _ := postPredict(t, ts, primed); resp.StatusCode != http.StatusOK {
		t.Fatalf("priming request status = %d", resp.StatusCode)
	}

	// The first held request hangs in compile until its deadline and
	// keeps the worker; the second waits in the one-deep queue.
	resilience.InjectFault("service.compile", resilience.Fault{Hang: true, Times: 1})
	var wg sync.WaitGroup
	hold := func(i int) {
		defer wg.Done()
		body, _ := json.Marshal(predictRequest{Source: fmt.Sprintf("int main() { printi(%d); return 0; }", 1000+i)})
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/predict", bytes.NewReader(body))
		req.Header.Set("X-Deadline-Ms", "500")
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
	wait := func(what string, cond func(service.Stats) bool) {
		t.Helper()
		for end := time.Now().Add(5 * time.Second); !cond(svc.Stats()); time.Sleep(time.Millisecond) {
			if time.Now().After(end) {
				t.Fatalf("%s never happened: %+v", what, svc.Stats())
			}
		}
	}
	wg.Add(2)
	go hold(0)
	wait("worker held", func(st service.Stats) bool { return st.InFlight == 1 })
	go hold(1)
	wait("queue filled", func(st service.Stats) bool { return st.Queued == 1 })

	for name, req := range map[string]predictRequest{
		"answered": primed,
		"unseen":   {Source: "int main() { printi(99); return 0; }"},
	} {
		r, data := postRaw(t, ts, req)
		if r.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("%s request status = %d, want 429 (body %s)", name, r.StatusCode, data)
		}
		if r.Header.Get("Retry-After") == "" {
			t.Fatalf("%s request: 429 missing Retry-After header", name)
		}
		if e := decodeError(t, data); e.Code != "overload" {
			t.Fatalf("%s request: code = %q, want overload", name, e.Code)
		}
	}
	wg.Wait()
}

func TestPredictTimeout(t *testing.T) {
	ts, _ := newTestServer(t, service.WithRequestTimeout(30*time.Millisecond))
	// An effectively unbounded loop: the pipeline must hit the service
	// timeout and answer 504 rather than hanging.
	src := `int main() { int i; int s = 0; for (i = 0; i < 1000000000; i++) { s += i % 7; } printi(s); return 0; }`
	body, _ := json.Marshal(predictRequest{Source: src, Budget: 1 << 40})
	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	var eresp errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil || eresp.Code != "timeout" {
		t.Fatalf("error body = %+v (decode err %v), want code \"timeout\"", eresp, err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v; cancellation is not reaching the interpreter", elapsed)
	}
}

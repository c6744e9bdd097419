package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ballarus"
	"ballarus/internal/obs"
	"ballarus/internal/resilience"
)

// openAnalyzeBreaker trips the analyze-stage breaker with two injected
// panics on throwaway sources.
func openAnalyzeBreaker(t *testing.T, ts *httptest.Server) {
	t.Helper()
	resilience.InjectFault("service.analyze", resilience.Fault{Panic: "injected"})
	for i := 0; i < 2; i++ {
		src := fmt.Sprintf("int main() { printi(%d); return 0; }", 1000+i)
		r, data := postRaw(t, ts, predictRequest{Source: src})
		if r.StatusCode != http.StatusInternalServerError {
			t.Fatalf("breaker-opening request %d: status = %d (body %s)", i, r.StatusCode, data)
		}
		if e := decodeError(t, data); e.Code != "internal" {
			t.Fatalf("breaker-opening request %d: code = %q, want internal", i, e.Code)
		}
	}
}

// TestEquivalentRequestsShareRunCache: the service keys its caches by
// canonical content, so a benchmark named in one request and spelled
// out as explicit source/input/budget in another are one request — the
// second spelling is a run-cache hit with the same answer.
func TestEquivalentRequestsShareRunCache(t *testing.T) {
	ts, _ := newTestServer(t)
	b := ballarus.Benchmarks()[0]

	resp, first := postPredict(t, ts, predictRequest{Benchmark: b.Name})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("priming request status = %d", resp.StatusCode)
	}
	resp, out := postPredict(t, ts, predictRequest{
		Source: b.Source, Input: b.Data[0].Input, Budget: b.Budget,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("equivalent request status = %d, want 200", resp.StatusCode)
	}
	if !out.RunCached {
		t.Fatal("equivalent request missed the run cache (key not normalized)")
	}
	if out.Steps != first.Steps || out.Heuristic != first.Heuristic {
		t.Fatalf("cached response %+v differs from original %+v", out, first)
	}
}

// TestTimeoutRetryAfter: a 504 is as retryable as a 429 and must carry
// the same Retry-After hint.
func TestTimeoutRetryAfter(t *testing.T) {
	ts, _ := newTestServer(t, ballarus.WithRequestTimeout(30*time.Millisecond))
	src := `int main() { int i; int s = 0; for (i = 0; i < 1000000000; i++) { s += i % 7; } printi(s); return 0; }`
	body, _ := json.Marshal(predictRequest{Source: src, Budget: 1 << 40})
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("504 response missing Retry-After header")
	}
}

// TestServerDurableRoundTrip: the warm request set survives a crash via
// the durable snapshot — after recovery a brand-new process answers the
// request only the dead process ever computed straight from its
// rewarmed caches.
func TestServerDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	svc1 := ballarus.NewService(
		ballarus.WithDurableStore(dir),
		ballarus.WithSnapshotInterval(time.Hour))
	ts1 := httptest.NewServer(newServer(svc1, obs.NewArchive(obs.ArchivePolicy{})).handler(false))
	resp, first := postPredict(t, ts1, predictRequest{Source: testSrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("priming request status = %d", resp.StatusCode)
	}
	if err := svc1.SnapshotNow(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	// No svc1.Close: the process "dies" here.

	svc2 := ballarus.NewService(
		ballarus.WithDurableStore(dir),
		ballarus.WithSnapshotInterval(time.Hour))
	defer svc2.Close()
	app := newServer(svc2, obs.NewArchive(obs.ArchivePolicy{})) // registers the trace section before recovery
	rs, err := svc2.Recover(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Warmed < 1 || rs.SnapshotEntries < 1 {
		t.Fatalf("recovery stats %+v, want a rewarmed request recipe", rs)
	}
	ts2 := httptest.NewServer(app.handler(false))
	defer ts2.Close()

	// Warm start: the replayed recipe makes the first post-restart
	// request a whole-pipeline cache hit.
	resp, out := postPredict(t, ts2, predictRequest{Source: testSrc})
	if resp.StatusCode != http.StatusOK || !out.RunCached {
		t.Fatalf("post-recovery request: status %d, cached %v; want warm 200",
			resp.StatusCode, out.RunCached)
	}
	if out.Steps != first.Steps || out.Heuristic != first.Heuristic {
		t.Fatalf("restored response %+v differs from original %+v", out, first)
	}
}

// TestAdminEndpointsGated: the /debug chaos endpoints exist only when
// the handler is built with admin enabled, and they drive the fault
// registry end to end.
func TestAdminEndpointsGated(t *testing.T) {
	defer resilience.ClearFaults()
	svc := ballarus.NewService()
	defer svc.Close()
	app := newServer(svc, obs.NewArchive(obs.ArchivePolicy{}))
	public := httptest.NewServer(app.handler(false))
	defer public.Close()
	admin := httptest.NewServer(app.handler(true))
	defer admin.Close()

	r, err := http.Post(public.URL+"/debug/clearfaults", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("public /debug status = %d, want 404", r.StatusCode)
	}

	// Arm a one-shot internal fault through the admin API and watch it
	// surface as a 500.
	body := []byte(`{"point":"service.execute","err":"chaos","times":1}`)
	r, err = http.Post(admin.URL+"/debug/fault", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("arm fault status = %d", r.StatusCode)
	}
	resp, data := postRaw(t, public, predictRequest{Source: testSrc})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("armed fault: status = %d, want 500 (body %s)", resp.StatusCode, data)
	}

	r, err = http.Post(admin.URL+"/debug/clearfaults", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("clear faults status = %d", r.StatusCode)
	}
	resp, _ = postPredict(t, public, predictRequest{Source: testSrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after clear: status = %d, want 200", resp.StatusCode)
	}
}

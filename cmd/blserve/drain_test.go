package main

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"ballarus/internal/service"
)

// newDrainableServer builds a test server exposing the underlying
// *server so tests can flip the drain gate.
func newDrainableServer(t *testing.T, admin bool) (*httptest.Server, *server) {
	t.Helper()
	svc := service.New()
	s := newServer(svc)
	s.instanceID = "test-instance"
	ts := httptest.NewServer(s.handler(admin))
	t.Cleanup(ts.Close)
	return ts, s
}

// TestDrainRefusesNewRequests: once draining, the API surface answers
// 503 + Connection: close so load balancers eject the replica fast,
// while /metrics stays up for operators watching the drain.
func TestDrainRefusesNewRequests(t *testing.T) {
	ts, s := newDrainableServer(t, false)

	// Healthy before the drain.
	resp, _ := postPredict(t, ts, predictRequest{Source: testSrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pre-drain predict status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Instance-Id"); got != "test-instance" {
		t.Fatalf("X-Instance-Id = %q, want test-instance", got)
	}

	s.startDraining()
	s.startDraining() // idempotent

	resp, data := postRaw(t, ts, predictRequest{Source: testSrc})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining predict status = %d, want 503 (body %s)", resp.StatusCode, data)
	}
	// Go's client consumes the Connection: close header into resp.Close.
	if !resp.Close {
		t.Fatal("draining 503 did not carry Connection: close")
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining 503 missing Retry-After")
	}
	if e := decodeError(t, data); e.Code != "draining" {
		t.Fatalf("code = %q, want draining", e.Code)
	}

	// Health checks fail too — deliberately, so gateway probes mark the
	// replica down immediately instead of at the connection reset.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz status = %d, want 503", hresp.StatusCode)
	}

	// Observability survives the drain.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("draining /metrics status = %d, want 200", mresp.StatusCode)
	}
}

// TestDrainKeepsDebugEndpoints: the /debug surface (traces, and with
// -chaos-admin the fault and pprof endpoints) stays reachable while
// draining.
func TestDrainKeepsDebugEndpoints(t *testing.T) {
	ts, s := newDrainableServer(t, true)
	s.startDraining()
	for _, path := range []string{"/debug/traces", "/debug/pprof/cmdline"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("draining %s status = %d, want 200", path, resp.StatusCode)
		}
	}
}

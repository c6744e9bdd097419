package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"strconv"
	"testing"
	"time"
)

// slowSrc runs long enough that only deadline cancellation can stop it
// inside the test's time bounds.
const slowSrc = `int main() { int i; int s = 0; for (i = 0; i < 1000000000; i++) { s += i % 7; } printi(s); return 0; }`

// postWithDeadline posts a predict request with an X-Deadline-Ms header.
func postWithDeadline(t *testing.T, url string, req predictRequest, deadline string) *http.Response {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, url+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("X-Deadline-Ms", deadline)
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestDeadlineHeaderSurfaces504: a short X-Deadline-Ms must interrupt
// interpreter work and come back as 504 + Retry-After well before the
// work itself would finish — proving the propagated context reaches
// interp.Config.Interrupt — and must not leak the request's goroutines.
func TestDeadlineHeaderSurfaces504(t *testing.T) {
	ts, _ := newTestServer(t)

	// Settle the service's lazily started goroutines with one normal
	// request before taking the leak baseline.
	if resp, _ := postPredict(t, ts, predictRequest{Source: testSrc}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup status = %d", resp.StatusCode)
	}
	baseline := runtime.NumGoroutine()

	start := time.Now()
	resp := postWithDeadline(t, ts.URL, predictRequest{Source: slowSrc, Budget: 1 << 40}, "50")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("504 missing Retry-After")
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Code != "timeout" {
		t.Fatalf("error body = %+v (decode err %v), want code \"timeout\"", e, err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to surface; cancellation is not reaching the interpreter", elapsed)
	}

	// Goroutine-leak check: the interrupted request's goroutines must
	// wind down. Poll rather than sleep — the interpreter notices the
	// interrupt at a step-check boundary, not instantly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestExpiredDeadlinesDoNotRefuseOthers: X-Deadline-Ms bounds only the
// request that carries it. Eight requests whose deadline expires each
// get 504; afterwards a benchmark answered before them still answers
// from the run cache, and an unseen source still answers 200.
func TestExpiredDeadlinesDoNotRefuseOthers(t *testing.T) {
	ts, _ := newTestServer(t)
	if resp, _ := postPredict(t, ts, predictRequest{Benchmark: "xlisp"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("priming xlisp: status = %d", resp.StatusCode)
	}
	for i := 1; i <= 8; i++ {
		resp := postWithDeadline(t, ts.URL, predictRequest{Source: slowSrc, Budget: 1 << 40}, "30")
		var e errorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout || e.Code != "timeout" {
			t.Fatalf("call %d: status = %d, error %+v, want 504 timeout", i, resp.StatusCode, e)
		}
	}
	resp, out := postPredict(t, ts, predictRequest{Benchmark: "xlisp"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached xlisp after expired deadlines: status = %d", resp.StatusCode)
	}
	if !out.RunCached {
		t.Fatal("cached xlisp after expired deadlines missed the run cache")
	}
	if resp, _ := postPredict(t, ts, predictRequest{Source: "int main() { printi(7); return 0; }"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("unseen source after expired deadlines: status = %d", resp.StatusCode)
	}
}

// TestDeadlineHeaderGenerous: a deadline the work easily beats changes
// nothing.
func TestDeadlineHeaderGenerous(t *testing.T) {
	ts, _ := newTestServer(t)
	resp := postWithDeadline(t, ts.URL, predictRequest{Source: testSrc}, "30000")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
}

// TestDeadlineHeaderMalformed: garbage and non-positive values are the
// client's fault.
func TestDeadlineHeaderMalformed(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, bad := range []string{"soon", "-5", "0", "1.5"} {
		resp := postWithDeadline(t, ts.URL, predictRequest{Source: testSrc}, bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("X-Deadline-Ms %q: status = %d, want 400", bad, resp.StatusCode)
		}
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Code != "invalid_input" {
			t.Errorf("X-Deadline-Ms %q: code = %q, want invalid_input", bad, e.Code)
		}
		resp.Body.Close()
	}
	// Sanity: the same values parse as rejected by the middleware's rule.
	if v, err := strconv.ParseInt("50", 10, 64); err != nil || v != 50 {
		t.Fatal("strconv baseline broken")
	}
}

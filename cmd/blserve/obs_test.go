package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"ballarus"
	"ballarus/internal/cli"
	"ballarus/internal/obs"
)

var traceIDRe = regexp.MustCompile(`^[0-9a-f]{16}$`)

func TestPredictCarriesTraceID(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, _ := postPredict(t, ts, predictRequest{Source: testSrc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Trace-Id")
	if !traceIDRe.MatchString(id) {
		t.Fatalf("X-Trace-Id = %q, want 16 hex chars", id)
	}
}

func TestDebugTraces(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, _ := postPredict(t, ts, predictRequest{Source: testSrc})
	want := resp.Header.Get("X-Trace-Id")

	tr, err := http.Get(ts.URL + "/debug/traces?last=10")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	var traces []obs.Trace
	if err := json.NewDecoder(tr.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	var got *obs.Trace
	for i := range traces {
		if traces[i].ID == want {
			got = &traces[i]
		}
	}
	if got == nil {
		t.Fatalf("trace %s not in /debug/traces (%d traces)", want, len(traces))
	}
	if got.Name != "predict" || got.Attrs["code"] != "200" {
		t.Errorf("trace = name %q attrs %v, want predict / code 200", got.Name, got.Attrs)
	}
	spans := map[string]bool{}
	for _, sp := range got.Spans {
		spans[sp.Name] = true
	}
	for _, name := range []string{"admit", "stage.compile", "stage.execute", "stage.score"} {
		if !spans[name] {
			t.Errorf("trace missing span %q", name)
		}
	}

	// Bad ?last= values are the client's fault.
	bad, err := http.Get(ts.URL + "/debug/traces?last=zero")
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("last=zero: status %d, want 400", bad.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	postPredict(t, ts, predictRequest{Source: testSrc})
	postPredict(t, ts, predictRequest{Source: testSrc}) // warm hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if problems := obs.Lint(bytes.NewReader(body)); len(problems) != 0 {
		t.Fatalf("exposition lint: %v", problems)
	}
	exp, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := exp.Value("ballarus_http_requests_total",
		map[string]string{"endpoint": "predict", "code": "200"}); !ok || v != 2 {
		t.Errorf("http_requests_total{predict,200} = %v (found %v), want 2", v, ok)
	}
	if v, ok := exp.Value("ballarus_http_request_duration_seconds_count",
		map[string]string{"endpoint": "predict"}); !ok || v != 2 {
		t.Errorf("http_request_duration_seconds_count{predict} = %v (found %v), want 2", v, ok)
	}
	if v, ok := exp.Value("ballarus_run_cache_total", map[string]string{"result": "hit"}); !ok || v != 1 {
		t.Errorf("run_cache_total{hit} = %v (found %v), want 1", v, ok)
	}
}

// TestPprofGatedBehindAdmin: profiling endpoints exist only on the
// admin handler.
func TestPprofGatedBehindAdmin(t *testing.T) {
	svc := ballarus.NewService()
	public := httptest.NewServer(newServer(svc, obs.NewArchive(obs.ArchivePolicy{})).handler(false))
	defer public.Close()
	admin := httptest.NewServer(newServer(svc, obs.NewArchive(obs.ArchivePolicy{})).handler(true))
	defer admin.Close()

	resp, err := http.Get(public.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("public /debug/pprof/cmdline: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(admin.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("admin /debug/pprof/cmdline: status %d, want 200", resp.StatusCode)
	}
}

func TestLoggerFlagValidation(t *testing.T) {
	if _, err := cli.NewLogger(io.Discard, "debug", "json"); err != nil {
		t.Errorf("debug/json: %v", err)
	}
	if _, err := cli.NewLogger(io.Discard, "verbose", "text"); err == nil {
		t.Error("bad level accepted")
	}
	if _, err := cli.NewLogger(io.Discard, "info", "xml"); err == nil {
		t.Error("bad format accepted")
	}
}

// TestAPIDocStartupVersion: the sample startup record in docs/API.md
// names the version blserve's own record reports.
func TestAPIDocStartupVersion(t *testing.T) {
	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`msg=listening .*\bversion=(\S+)`).FindSubmatch(doc)
	if m == nil {
		t.Fatal("docs/API.md has no sample startup record with version=")
	}
	if got := string(m[1]); got != version {
		t.Fatalf("docs/API.md sample says version=%s, blserve reports %s", got, version)
	}
}

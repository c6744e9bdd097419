package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ballarus/internal/resilience"
	"ballarus/internal/service"
	"ballarus/internal/tenant"
)

// tenantPost posts body to path with optional headers and decodes the
// reply into out (when the pointer is non-nil and the reply is JSON).
func tenantPost(t *testing.T, ts *httptest.Server, path string, body any, hdr map[string]string, out any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(data))
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
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", path, err)
		}
	}
	return resp
}

func newTenantTestServer(t *testing.T, cfg tenant.Config) *httptest.Server {
	t.Helper()
	ts, _ := newTestServer(t, service.WithTenants(tenant.NewRegistry(cfg)))
	return ts
}

// TestTenantQuota429: a tenant over its rate quota gets 429
// quota_exceeded with the full X-RateLimit-* header set — the
// gateway's signal that this rejection is terminal — while other
// tenants are untouched.
func TestTenantQuota429(t *testing.T) {
	ts := newTenantTestServer(t, tenant.Config{
		Defaults:  tenant.Limits{Rate: 1000},
		Overrides: map[string]tenant.Limits{"metered": {Rate: 1, Burst: 1}},
	})
	hdr := map[string]string{"X-Tenant-Id": "metered"}
	body := predictRequest{Source: testSrc}

	if resp := tenantPost(t, ts, "/v1/predict", body, hdr, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("first metered request status = %d, want 200", resp.StatusCode)
	}
	var e errorResponse
	resp := tenantPost(t, ts, "/v1/predict", body, hdr, &e)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second metered request status = %d, want 429", resp.StatusCode)
	}
	if e.Code != "quota_exceeded" {
		t.Errorf("code = %q, want quota_exceeded", e.Code)
	}
	for _, h := range []string{"Retry-After", "X-RateLimit-Limit", "X-RateLimit-Remaining", "X-RateLimit-Reset"} {
		if resp.Header.Get(h) == "" {
			t.Errorf("quota 429 missing %s header", h)
		}
	}
	// Another tenant's bucket is separate.
	if resp := tenantPost(t, ts, "/v1/predict", body, map[string]string{"X-Tenant-Id": "other"}, nil); resp.StatusCode != http.StatusOK {
		t.Errorf("unrelated tenant status = %d, want 200", resp.StatusCode)
	}
	// A quota rejection is deterministic for this tenant: re-asking the
	// exact body it was answered before, and that the service has
	// cached, still gets the 429 rather than the cached answer.
	resp = tenantPost(t, ts, "/v1/predict", body, hdr, &e)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("metered retry status = %d, want 429 (a cached answer must not mask quota)", resp.StatusCode)
	}
}

// TestTenantIDRejectedWhenOversized: hostile identities are refused at
// the edge before touching registry or metric labels.
func TestTenantIDRejectedWhenOversized(t *testing.T) {
	ts := newTenantTestServer(t, tenant.Config{Defaults: tenant.Limits{Rate: 100}})
	hdr := map[string]string{"X-Tenant-Id": strings.Repeat("x", tenant.MaxIDLen+1)}
	var e errorResponse
	resp := tenantPost(t, ts, "/v1/predict", predictRequest{Source: testSrc}, hdr, &e)
	if resp.StatusCode != http.StatusBadRequest || e.Code != "invalid_input" {
		t.Fatalf("oversized tenant id: status=%d code=%q, want 400 invalid_input", resp.StatusCode, e.Code)
	}
}

// TestBatchEndpoint: mixed predict/compare items return per-item
// results; malformed items fail alone with their own classified error.
func TestBatchEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	req := batchRequest{Items: []batchItemRequest{
		{Predict: &predictRequest{Source: testSrc, IncludeOutput: true}},
		{Compare: &compareRequest{Source: testSrc, Predictors: []string{"gshare"}}},
		{Predict: &predictRequest{Source: testSrc, Order: "NoSuchHeuristic"}},
		{},
	}}
	var out batchResponse
	resp := tenantPost(t, ts, "/v1/batch", req, nil, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d", resp.StatusCode)
	}
	if out.Succeeded != 2 || out.Failed != 2 {
		t.Fatalf("succeeded=%d failed=%d, want 2/2", out.Succeeded, out.Failed)
	}
	if out.Items[0].Predict == nil || out.Items[0].Predict.Output == "" {
		t.Errorf("item 0: want a predict result echoing output, got %+v", out.Items[0])
	}
	if out.Items[1].Compare == nil || len(out.Items[1].Compare.Predictors) == 0 {
		t.Errorf("item 1: want a compare result, got %+v", out.Items[1])
	}
	if out.Items[2].Code != "invalid_input" || !strings.Contains(out.Items[2].Error, "heuristic") {
		t.Errorf("item 2: want the order parse error, got %+v", out.Items[2])
	}
	if out.Items[3].Code != "invalid_input" {
		t.Errorf("item 3: want invalid_input for an empty item, got %+v", out.Items[3])
	}

	// Bounds: empty and oversized batches are request-shape errors.
	var e errorResponse
	if resp := tenantPost(t, ts, "/v1/batch", batchRequest{}, nil, &e); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch status = %d, want 400", resp.StatusCode)
	}
	big := batchRequest{Items: make([]batchItemRequest, defaultBatchMax+1)}
	for i := range big.Items {
		big.Items[i].Predict = &predictRequest{Source: testSrc}
	}
	if resp := tenantPost(t, ts, "/v1/batch", big, nil, &e); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch status = %d, want 400", resp.StatusCode)
	}
}

// TestBatchQuotaRejectedAsUnit: a batch larger than the tenant's burst
// is rejected whole — one 429 with rate-limit headers, zero work, no
// tokens spent — while a batch within quota runs every item.
func TestBatchQuotaRejectedAsUnit(t *testing.T) {
	ts := newTenantTestServer(t, tenant.Config{
		Defaults:  tenant.Limits{Rate: 1000},
		Overrides: map[string]tenant.Limits{"metered": {Rate: 1, Burst: 3}},
	})
	hdr := map[string]string{"X-Tenant-Id": "metered"}
	items := func(n int) batchRequest {
		r := batchRequest{}
		for i := 0; i < n; i++ {
			r.Items = append(r.Items, batchItemRequest{Predict: &predictRequest{Source: testSrc}})
		}
		return r
	}

	var e errorResponse
	resp := tenantPost(t, ts, "/v1/batch", items(4), hdr, &e)
	if resp.StatusCode != http.StatusTooManyRequests || e.Code != "quota_exceeded" {
		t.Fatalf("over-burst batch: status=%d code=%q, want 429 quota_exceeded", resp.StatusCode, e.Code)
	}
	if resp.Header.Get("X-RateLimit-Limit") == "" {
		t.Error("batch quota 429 missing X-RateLimit-Limit")
	}
	// The rejection charged nothing: a 3-item batch still fits.
	var out batchResponse
	resp = tenantPost(t, ts, "/v1/batch", items(3), hdr, &out)
	if resp.StatusCode != http.StatusOK || out.Succeeded != 3 {
		t.Fatalf("in-quota batch: status=%d succeeded=%d, want 200 with 3", resp.StatusCode, out.Succeeded)
	}
	// And it spent exactly 3 tokens: the next single request is over.
	resp = tenantPost(t, ts, "/v1/predict", predictRequest{Source: testSrc}, hdr, &e)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("post-batch single request status = %d, want 429 (batch must charge per item)", resp.StatusCode)
	}
}

// TestBatchItemPanicIsolated: a panic in scoring inside a batch item
// fails that item alone as an internal error, and the server keeps
// answering.
func TestBatchItemPanicIsolated(t *testing.T) {
	defer resilience.ClearFaults()
	ts, _ := newTestServer(t)
	resilience.InjectFault("service.score", resilience.Fault{Panic: "score panic", Times: 1})
	var out batchResponse
	req := batchRequest{Items: []batchItemRequest{{Predict: &predictRequest{Source: testSrc}}}}
	if resp := tenantPost(t, ts, "/v1/batch", req, nil, &out); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, want 200", resp.StatusCode)
	}
	if out.Failed != 1 || out.Items[0].Code != "internal" {
		t.Fatalf("batch = %+v, want its one item failed with code internal", out)
	}
	if resp, _ := postPredict(t, ts, predictRequest{Source: testSrc}); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after the panic: status %d, want 200", resp.StatusCode)
	}
}

// TestParseTenantQuota covers the -tenant-quota override grammar.
func TestParseTenantQuota(t *testing.T) {
	id, lim, err := parseTenantQuota("gold=200,400,8,3")
	if err != nil || id != "gold" {
		t.Fatalf("parse: id=%q err=%v", id, err)
	}
	if lim.Rate != 200 || lim.Burst != 400 || lim.MaxInFlight != 8 || lim.Weight != 3 {
		t.Fatalf("limits = %+v", lim)
	}
	if id, lim, err = parseTenantQuota("hog=2"); err != nil || id != "hog" || lim.Rate != 2 || lim.Burst != 0 {
		t.Fatalf("short form: id=%q lim=%+v err=%v", id, lim, err)
	}
	for _, bad := range []string{"", "=2", "x", "a=1,2,3,4,5", "a=-1", "a=nope"} {
		if _, _, err := parseTenantQuota(bad); err == nil {
			t.Errorf("parseTenantQuota(%q) accepted", bad)
		}
	}
}

package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"ballarus/internal/obs"
)

// handleDebugTraces serves the gateway's own recent ring and archive
// with the same query contract as blserve's /debug/traces: ?id= exact
// match, ?slowest=N, or ?last=N (clamped to the ring capacity).
func (g *Gateway) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	traces, err := g.tracer.Query(q.Get("id"), q.Get("last"), q.Get("slowest"))
	if err != nil {
		gatewayError(w, http.StatusBadRequest, "invalid_input", err)
		return
	}
	if traces == nil {
		traces = []*obs.Trace{}
	}
	writeJSON(w, http.StatusOK, traces)
}

// traceSummary is one row of the GET /v1/trace/slowest body.
type traceSummary struct {
	ID       string `json:"id"`
	Name     string `json:"name"`
	Source   string `json:"source,omitempty"`
	Duration int64  `json:"duration_ns"`
	Error    string `json:"error,omitempty"`
	Hedged   bool   `json:"hedged,omitempty"`
	Spans    int    `json:"spans"`
}

// handleTraceSlowest lists the worst archived gateway traces by
// duration (?n=, default 5) — the entry point for "what should I look
// at": each row's ID feeds GET /v1/trace/{id}.
func (g *Gateway) handleTraceSlowest(w http.ResponseWriter, r *http.Request) {
	n := 5
	if s := r.URL.Query().Get("n"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v <= 0 {
			gatewayError(w, http.StatusBadRequest, "invalid_input", fmt.Errorf("invalid n parameter %q", s))
			return
		}
		n = v
	}
	traces := g.tracer.Slowest(n)
	out := make([]traceSummary, 0, len(traces))
	for _, tr := range traces {
		out = append(out, traceSummary{
			ID:       tr.ID,
			Name:     tr.Name,
			Source:   tr.Source,
			Duration: int64(tr.Duration),
			Error:    tr.Err,
			Hedged:   tr.Attrs["hedged"] == "true",
			Spans:    len(tr.Spans),
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": out})
}

// handleTraceGet assembles the full cross-process picture of one trace:
// the gateway's own collections plus a fan-out to every replica's
// /debug/traces?id=, merged into a single parent-linked tree.
func (g *Gateway) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !isTraceID(id) {
		gatewayError(w, http.StatusBadRequest, "invalid_input", fmt.Errorf("invalid trace id %q", id))
		return
	}

	var mu sync.Mutex
	var collected []obs.SourcedTrace
	add := func(source string, traces []*obs.Trace) {
		mu.Lock()
		defer mu.Unlock()
		for _, tr := range traces {
			collected = append(collected, obs.SourcedTrace{Source: source, Trace: tr})
		}
	}
	add("gateway", g.tracer.Find(id))

	ctx, cancel := context.WithTimeout(r.Context(), g.cfg.ProbeTimeout*4)
	defer cancel()
	var wg sync.WaitGroup
	for _, rep := range g.replicas {
		rep := rep
		wg.Add(1)
		go func() {
			defer wg.Done()
			add(rep.id, g.fetchReplicaTraces(ctx, rep, id))
		}()
	}
	wg.Wait()

	assembled := obs.Assemble(id, collected)
	if assembled.Spans == 0 {
		gatewayError(w, http.StatusNotFound, "not_found",
			fmt.Errorf("trace %s not found on the gateway or any replica", id))
		return
	}
	writeJSON(w, http.StatusOK, assembled)
}

// fetchReplicaTraces pulls one replica's collections for a trace ID.
// Replicas that are down or answer garbage contribute nothing — an
// assembled trace with a missing hop is still more useful than a 502.
func (g *Gateway) fetchReplicaTraces(ctx context.Context, rep *replica, id string) []*obs.Trace {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		rep.base.String()+"/debug/traces?id="+id, nil)
	if err != nil {
		return nil
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, g.cfg.MaxBody))
	if err != nil {
		return nil
	}
	var out []*obs.Trace
	if json.Unmarshal(body, &out) != nil {
		return nil
	}
	return out
}

// isTraceID reports whether s looks like a 16-hex trace ID.
func isTraceID(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

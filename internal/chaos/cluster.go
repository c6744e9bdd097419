package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ballarus/internal/obs"
)

// ClusterReport is the Cluster scenario's section of the Report.
type ClusterReport struct {
	// Gateway-side counters, read from /gateway/stats after the drills.
	HedgeFires  int64 `json:"hedge_fires"`
	HedgeWins   int64 `json:"hedge_wins"`
	StaleServed int64 `json:"stale_served"`
	// Distributed-tracing drill: whether a hedged request's
	// cross-process trace assembled with both attempt spans (loser
	// canceled) and a replica-side execute span, and how many spans the
	// assembled tree held.
	TraceAssembled bool `json:"trace_assembled"`
	TraceSpans     int  `json:"trace_spans"`
}

type cluster struct {
	*fleet
	r *ClusterReport
}

// clusterPlan runs Config.Replicas blserve replicas behind a blgate:
//
//  1. warm: sequential traffic through the gateway; with every replica
//     healthy, every request must answer 200;
//  2. kill: SIGKILL r0 mid-load and keep background traffic flowing —
//     while at least one replica is healthy, no client may see a 5xx or
//     a transport error;
//  3. stall: hang r1's execute stage via its chaos-admin faultpoints;
//     hedged requests must keep answering 200 and at least one hedge
//     must fire and win;
//  4. recover: restart r0 on its old address and wait for active
//     probing to mark the whole cluster healthy;
//  5. trace: hang r1's execute stage until the phase ends, drive fresh
//     jobs until one hedges (at most 48), then assemble its trace through
//     GET /v1/trace/{id} — the tree must hold both gateway attempt
//     spans (the loser closed "canceled", not "error") and the winning
//     replica's execute span parented at the winning attempt;
//  6. brownout: SIGKILL every replica — a previously answered request
//     must come back 200 with "degraded":true from the last-known-good
//     cache, an unseen request must get a JSON error with Retry-After,
//     and never a transport error;
//  7. metrics: the gateway's /metrics must lint clean, agree with
//     /gateway/stats, and show the retry budget held (hedges+retries
//     bounded by ratio x primaries + burst).
//
// Replicas run with the chaos-admin surface on and durability off:
// this scenario tortures the gateway, not the journal.
func clusterPlan(f *fleet) plan {
	c := &cluster{fleet: f, r: &ClusterReport{}}
	f.rep.Cluster = c.r
	return plan{
		replicas: f.cfg.Replicas,
		replica: []string{
			"-queue", "64",
			"-timeout", "2s",
			"-drain-timeout", "2s",
			"-chaos-admin",
		},
		gate: []string{
			"-eject-max", "3s",
			"-hedge-quantile", "0.9",
			"-hedge-initial", "80ms",
			"-hedge-min", "10ms",
			"-retry-ratio", "0.5",
			"-retry-burst", "32",
			"-timeout", "10s",
		},
		phases: []phase{
			{"warm", c.warm},
			{"kill", c.killSoak},
			{"stall", c.stall},
			{"recover", c.recover},
			{"trace", c.trace},
			{"brownout", c.brownout},
			{"metrics", c.metrics},
		},
		shutdown: "gate",
		grace:    5 * time.Second,
	}
}

// warm drives sequential traffic through a fully healthy cluster:
// every request must answer 200. It also primes the gateway's latency
// samples (for realistic hedge delays) and its brownout cache.
func (c *cluster) warm(context.Context) error {
	for i := 0; i < 24; i++ {
		if r := c.send(c.newJob(0), ""); r.status != http.StatusOK {
			c.violate("warm phase: status %d with all replicas healthy", r.status)
		}
	}
	// The stats passthrough must reach a replica through the gateway.
	resp, _, err := c.call(http.MethodGet, "gate", "/v1/stats", nil, "")
	if err != nil {
		c.violate("warm phase: /v1/stats passthrough: %v", err)
	} else if resp.StatusCode != http.StatusOK {
		c.violate("warm phase: /v1/stats passthrough status %d", resp.StatusCode)
	}
	return nil
}

// killSoak SIGKILLs r0 under background load and keeps the load
// flowing for Config.Duration. The invariant: with the other replicas
// healthy, no client ever sees a 5xx — failures against the dead
// replica are absorbed by retries, ejection, and probing.
func (c *cluster) killSoak(ctx context.Context) error {
	// The job pool is drawn up front on this goroutine so the PRNG is
	// never shared; senders cycle it, which also keeps the gateway's
	// brownout cache hot with repeats.
	pool := make([]job, 48)
	for i := range pool {
		pool[i] = c.newJob(0)
	}
	var next atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				j := pool[int(next.Add(1))%len(pool)]
				if r := c.send(j, ""); r.status >= 500 {
					c.violate("kill phase: client saw %d with healthy replicas present", r.status)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	time.Sleep(300 * time.Millisecond) // let load establish, then strike mid-flight
	c.kill("r0")
	select {
	case <-time.After(c.cfg.Duration):
	case <-ctx.Done():
	}
	close(stop)
	wg.Wait()
	return nil
}

// hangR1 hangs r1's execute stage for its next times requests, or
// until /debug/clearfaults when times is 0.
func (c *cluster) hangR1(times int) bool {
	payload, _ := json.Marshal(map[string]any{"point": "service.execute", "hang": true, "times": times})
	return c.post("r1", "/debug/fault", payload)
}

// stall hangs r1's execute stage via its own chaos-admin faultpoint and
// sends fresh jobs: the gateway's hedges must keep every answer a 200,
// and at least one hedge must fire and win.
func (c *cluster) stall(context.Context) error {
	var before, after gateStats
	c.getJSON("gate", "/gateway/stats", &before)
	if !c.hangR1(10) {
		c.violate("stall phase: fault injection on r1 failed")
		return nil
	}
	for i := 0; i < 12; i++ {
		// The seed offset makes each job fresh: a run-cache hit on the
		// stalled replica would bypass the hung execute stage.
		if r := c.send(c.newJob(1000), ""); r.status != http.StatusOK {
			c.violate("stall phase: status %d despite healthy replicas to hedge to", r.status)
		}
	}
	c.post("r1", "/debug/clearfaults", nil)

	if err := c.getJSON("gate", "/gateway/stats", &after); err != nil {
		c.violate("stall phase: no gateway stats: %v", err)
		return nil
	}
	fires := after.HedgeFires - before.HedgeFires
	wins := after.HedgeWins - before.HedgeWins
	c.logf("stall phase: %d hedges fired, %d won", fires, wins)
	if fires < 1 {
		c.violate("stall phase: no hedge fired against a stalled replica")
	}
	if wins < 1 {
		c.violate("stall phase: no hedge ever won against a stalled replica")
	}
	if after.HedgeWins > after.HedgeFires {
		c.violate("hedge wins %d exceed hedge fires %d", after.HedgeWins, after.HedgeFires)
	}
	return nil
}

// recover restarts r0 on its old address and waits for active probing
// to readmit it.
func (c *cluster) recover(context.Context) error {
	if err := c.restart("r0"); err != nil {
		c.violate("recover phase: restart r0: %v", err)
		return nil
	}
	c.waitHealthy(c.cfg.Replicas, 10*time.Second, "recover phase")
	return nil
}

// flattenTrace collects every node of an assembled trace.
func flattenTrace(a *obs.AssembledTrace) []*obs.TraceNode {
	var out []*obs.TraceNode
	var walk func(n *obs.TraceNode)
	walk = func(n *obs.TraceNode) {
		out = append(out, n)
		for _, c := range n.Children {
			walk(c)
		}
	}
	if a.Root != nil {
		walk(a.Root)
	}
	for _, o := range a.Orphans {
		walk(o)
	}
	return out
}

// hasExecuteSpan reports whether the subtree under n holds a non-
// gateway execute-stage span — proof the replica's side of the trace
// stitched in under the right attempt.
func hasExecuteSpan(n *obs.TraceNode) bool {
	if n.Name == "stage.execute" && n.Source != "gateway" {
		return true
	}
	for _, c := range n.Children {
		if hasExecuteSpan(c) {
			return true
		}
	}
	return false
}

// trace is where observability has to pay off: it hangs r1's execute
// stage until the phase ends, drives fresh jobs until one's trace
// assembles hedged (at most 48), then checks that request's distributed
// trace from GET /v1/trace/{id} — both attempt spans present and
// parented at the gateway's request span, the losing attempt closed
// with status "canceled" (a hedge loser is not an error), and the
// winning attempt carrying the winning replica's execute span. If no
// try hedges, the violation lists each try's answering replica and
// trace status, and the hedges the gateway fired, to name the cause.
func (c *cluster) trace(context.Context) error {
	var before gateStats
	c.getJSON("gate", "/gateway/stats", &before)
	if !c.hangR1(0) {
		c.violate("trace phase: fault injection on r1 failed")
		return nil
	}
	defer c.post("r1", "/debug/clearfaults", nil)

	const tries = 48
	var seen []string // per try: answering replica and trace status
	for i := 0; i < tries; i++ {
		r := c.send(c.newJob(4000), "")
		traceID := r.header.Get("X-Trace-Id")
		if r.status != http.StatusOK {
			c.violate("trace phase: status %d despite healthy replicas to hedge to", r.status)
			continue
		}
		if traceID == "" {
			c.violate("trace phase: 200 response missing X-Trace-Id")
			continue
		}
		resp, raw, err := c.call(http.MethodGet, "gate", "/v1/trace/"+traceID, nil, "")
		if err != nil {
			c.violate("trace phase: GET /v1/trace/%s: %v", traceID, err)
			continue
		}
		seen = append(seen, fmt.Sprintf("%s/%d", r.header.Get("X-Instance-Id"), resp.StatusCode))
		var a obs.AssembledTrace
		if err := json.Unmarshal(raw, &a); err != nil {
			c.violate("trace phase: trace %s: undecodable body: %v", traceID, err)
			continue
		}
		if a.Root == nil || a.Root.Attrs["hedged"] != "true" {
			continue // this request never hedged; try the next
		}

		var primary, hedge *obs.TraceNode
		for _, n := range flattenTrace(&a) {
			switch n.Name {
			case "attempt.primary":
				primary = n
			case "attempt.hedge":
				hedge = n
			}
		}
		if primary == nil || hedge == nil {
			c.violate("trace phase: hedged trace %s missing attempt spans (primary %v, hedge %v)",
				traceID, primary != nil, hedge != nil)
			return nil
		}
		loser, winner := primary, hedge
		if primary.Status == "" {
			loser, winner = hedge, primary
		}
		if loser.Status != "canceled" {
			c.violate("trace phase: losing attempt %s has status %q (err %q), want canceled",
				loser.Name, loser.Status, loser.Err)
		}
		if winner.Status != "" {
			c.violate("trace phase: winning attempt %s has status %q, want ok", winner.Name, winner.Status)
		}
		if primary.ParentID != a.Root.SpanID || hedge.ParentID != a.Root.SpanID {
			c.violate("trace phase: attempt spans not parented at the request span (primary %q, hedge %q, root %q)",
				primary.ParentID, hedge.ParentID, a.Root.SpanID)
		}
		if !hasExecuteSpan(winner) {
			c.violate("trace phase: winning attempt has no replica execute span beneath it")
		}
		c.r.TraceAssembled = true
		c.r.TraceSpans = a.Spans
		c.logf("trace phase: assembled %s (%d spans from %s)\n%s",
			traceID, a.Spans, strings.Join(a.Sources, ","), obs.RenderWaterfall(&a, 48))
		return nil
	}
	var after gateStats
	c.getJSON("gate", "/gateway/stats", &after)
	c.violate("trace phase: no hedged trace assembled in %d tries against a stalled replica; "+
		"answering replica/trace status per try: %s; %d hedges fired",
		tries, strings.Join(seen, " "), after.HedgeFires-before.HedgeFires)
	return nil
}

// brownout kills every replica. A request the cluster has already
// answered must still get a 200 — marked "degraded":true, served from
// the gateway's last-known-good cache — while an unseen request gets a
// JSON refusal with Retry-After. Clients never see a transport error.
func (c *cluster) brownout(context.Context) error {
	// Prime one known job while the cluster is still up, so the cache
	// provably holds it whatever the LRU evicted during the soak.
	known := c.newJob(2000)
	if r := c.send(known, ""); r.status != http.StatusOK {
		c.violate("brownout phase: priming request refused with status %d", r.status)
	}
	for i := 0; i < c.cfg.Replicas; i++ {
		c.kill(fmt.Sprintf("r%d", i))
	}
	c.waitHealthy(0, 5*time.Second, "brownout phase")

	r := c.send(known, "")
	if r.status != http.StatusOK {
		c.violate("brownout phase: known request got %d, want 200 from the stale cache", r.status)
	} else if degraded, _ := r.body["degraded"].(bool); !degraded {
		c.violate("brownout phase: stale answer not marked degraded: %v", r.body)
	}

	unseen := c.send(c.newJob(3000), "")
	if unseen.status < 500 {
		c.violate("brownout phase: unseen request got %d, want a 5xx refusal", unseen.status)
	} else if _, hasCode := unseen.body["code"]; !hasCode {
		c.violate("brownout phase: unseen refusal missing taxonomy code: %v", unseen.body)
	}
	return nil
}

// metrics scrapes the gateway's /metrics after the drills: the
// exposition must lint clean, agree with /gateway/stats, and show the
// retry budget held — retries plus hedges bounded by ratio x primaries
// plus burst (the amplification cap the budget promises).
func (c *cluster) metrics(context.Context) error {
	exp := c.scrape("gate")
	if exp == nil {
		return nil
	}
	var st gateStats
	if err := c.getJSON("gate", "/gateway/stats", &st); err != nil {
		c.violate("metrics: no gateway stats for cross-check: %v", err)
		return nil
	}
	c.r.HedgeFires = st.HedgeFires
	c.r.HedgeWins = st.HedgeWins
	c.r.StaleServed = st.StaleServed
	c.expect(exp, "ballarus_gateway_attempts_total", map[string]string{"kind": "hedge"}, float64(st.HedgeFires))
	c.expect(exp, "ballarus_gateway_hedge_wins_total", nil, float64(st.HedgeWins))
	c.expect(exp, "ballarus_gateway_requests_total", map[string]string{"outcome": "degraded"}, float64(st.StaleServed))
	c.expect(exp, "ballarus_gateway_healthy_replicas", nil, 0)

	if st.StaleServed < 1 {
		c.violate("metrics: brownout never served a stale answer")
	}
	primary, _ := exp.Value("ballarus_gateway_attempts_total", map[string]string{"kind": "primary"})
	hedge, _ := exp.Value("ballarus_gateway_attempts_total", map[string]string{"kind": "hedge"})
	retry, _ := exp.Value("ballarus_gateway_attempts_total", map[string]string{"kind": "retry"})
	if bound := 0.5*primary + 32; hedge+retry > bound {
		c.violate("metrics: retry budget breached: %.0f hedges + %.0f retries > 0.5 x %.0f primaries + 32",
			hedge, retry, primary)
	}
	c.rep.MetricsScraped = true
	c.logf("metrics check: %d samples, %d hedge fires, %d wins, %d stale served",
		len(exp.Samples), st.HedgeFires, st.HedgeWins, st.StaleServed)
	return nil
}

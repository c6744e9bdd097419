package chaos

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// TenantsReport is the Tenants scenario's section of the Report.
type TenantsReport struct {
	// Baseline: the polite tenants with no hog present.
	BaselineSent  int     `json:"baseline_sent"`
	BaselineOK    int     `json:"baseline_ok"`
	BaselineP99Ms float64 `json:"baseline_p99_ms"`

	// Flood: the same polite traffic while the hog floods at 10x quota.
	FloodSent  int     `json:"flood_sent"`
	FloodOK    int     `json:"flood_ok"`
	FloodP99Ms float64 `json:"flood_p99_ms"`
	HogSent    int     `json:"hog_sent"`
	HogOK      int     `json:"hog_ok"`
	HogShed    int     `json:"hog_shed"` // 429 quota_exceeded pass-throughs

	// Rendezvous: distinct keys sent twice, then once more after a kill.
	Keys          int     `json:"keys"`
	WarmHits      int     `json:"warm_hits"` // second pass: run_cached on the same replica
	Remapped      int     `json:"remapped"`
	RemapFraction float64 `json:"remap_fraction"`
	SurvivorKeys  int     `json:"survivor_keys"`
	SurvivorWarm  int     `json:"survivor_warm"` // post-kill: still cached on the surviving owner
}

type tenantsDrill struct {
	*fleet
	r    *TenantsReport
	pool []job // the polite schedule, replayed in the baseline and flood phases
}

// hogQuota is the hog tenant's per-replica sustained rate; the flood
// phase drives it at roughly 10x this.
const hogQuota = 5

// tenantsPlan runs three blserve -tenants replicas (generous default
// quotas, a tight override for tenant "hog") behind blgate -routing
// rendezvous:
//
//  1. baseline: tenants t1 and t2 send scripted traffic alone — every
//     request must answer 200; their p99 is recorded;
//  2. flood: the hog fires at ~10x its quota while t1 and t2 repeat
//     the baseline schedule. Invariants: the polite tenants complete
//     within 10% of baseline with zero errors (isolation), the hog is
//     actually shed with 429 quota_exceeded pass-throughs carrying
//     X-RateLimit-* headers, and no client ever sees a 5xx;
//  3. rendezvous: ~60 distinct keys are each sent twice — the second
//     pass must be run-cache hits on a stable replica (the key's
//     rendezvous owner). Then r0 is SIGKILLed and every key resent —
//     keys it owned remap (no more than ~45%, the ~1/N rendezvous
//     promise plus schedule noise), surviving keys stay warm on their
//     old owner, and zero requests fail while two replicas remain
//     healthy.
func tenantsPlan(f *fleet) plan {
	d := &tenantsDrill{fleet: f, r: &TenantsReport{}}
	f.rep.Tenants = d.r
	return plan{
		replicas: 3,
		replica: []string{
			"-queue", "64",
			"-timeout", "5s",
			"-drain-timeout", "2s",
			"-tenants",
			"-tenant-rate", "500",
			"-tenant-quota", fmt.Sprintf("hog=%d,%d", hogQuota, hogQuota),
		},
		gate: []string{
			"-routing", "rendezvous",
			"-routing-seed", "1",
			"-eject-max", "3s",
			// Hedging off the hot path: a hedge that wins on a non-owner
			// replica would read as a routing flap in the stability checks.
			// The 2s floor keeps it off once the p99 of cached answers
			// (a few ms) would otherwise hedge every fresh key.
			"-hedge-quantile", "0.99",
			"-hedge-initial", "2s",
			"-hedge-min", "2s",
			"-retry-ratio", "0.5",
			"-retry-burst", "32",
			"-timeout", "10s",
		},
		phases: []phase{
			{"baseline", d.baseline},
			{"flood", d.flood},
			{"rendezvous", d.rendezvous},
		},
	}
}

// tenantJob derives a scripted request; idx partitions the key space
// so each caller controls which content hashes it touches.
func tenantJob(idx int) job {
	return loopJob(idx, 100+(idx%37)*25, 2+idx%7, 1)
}

// send posts one predict through the gateway as tenantID. Every phase
// of this drill keeps at least two replicas healthy, so a 5xx is a
// violation. Quota and overload refusals must be told apart: a
// quota_exceeded 429 carries X-RateLimit-Limit and no other 429 does.
func (d *tenantsDrill) send(tenantID string, j job) reply {
	r := d.fleet.send(j, tenantID)
	if r.status >= 500 {
		d.violate("tenant %s: status %d with healthy replicas present", tenantID, r.status)
	}
	if r.status == http.StatusTooManyRequests && r.body != nil {
		code, _ := r.body["code"].(string)
		limited := r.header.Get("X-RateLimit-Limit") != ""
		if code == "quota_exceeded" && !limited {
			d.violate("tenant %s: quota 429 without X-RateLimit-Limit", tenantID)
		}
		if code != "quota_exceeded" && limited {
			d.violate("tenant %s: non-quota 429 carries X-RateLimit-Limit (code %q)", tenantID, code)
		}
	}
	return r
}

// politeRound replays the polite schedule for tenants t1 and t2,
// repeating it until at least minFor has elapsed (zero means one
// pass), and returns sent, ok, and the p99 latency in milliseconds.
// Polite traffic is paced at ~20ms per request so it stays far inside
// the default tenant quota in every phase.
func (d *tenantsDrill) politeRound(minFor time.Duration) (sent, ok int, p99 float64) {
	var lat []float64
	deadline := time.Now().Add(minFor)
	for pass := 0; ; pass++ {
		for i, j := range d.pool {
			for _, id := range []string{"t1", "t2"} {
				start := time.Now()
				status := d.send(id, j).status
				lat = append(lat, float64(time.Since(start))/float64(time.Millisecond))
				sent++
				if status == http.StatusOK {
					ok++
				} else {
					d.violate("polite tenant %s request %d (pass %d) refused with %d", id, i, pass, status)
				}
				time.Sleep(20 * time.Millisecond)
			}
		}
		if time.Now().After(deadline) {
			break
		}
	}
	sort.Float64s(lat)
	if len(lat) > 0 {
		p99 = lat[len(lat)*99/100]
	}
	return sent, ok, p99
}

// baseline draws the polite schedule and measures the polite tenants
// with no hog present: every request must answer 200.
func (d *tenantsDrill) baseline(context.Context) error {
	d.pool = make([]job, 20)
	for i := range d.pool {
		d.pool[i] = tenantJob(10000 + d.rng.Intn(2000))
	}
	sent, ok, p99 := d.politeRound(0)
	d.r.BaselineSent, d.r.BaselineOK, d.r.BaselineP99Ms = sent, ok, p99
	d.logf("baseline: %d/%d ok, p99 %.1fms", ok, sent, p99)
	return nil
}

// flood runs the hog at ~10x its quota while the polite tenants repeat
// the baseline schedule. Isolation means the polite completion rate
// stays within 10% of baseline with zero errors while the hog is
// visibly shed.
func (d *tenantsDrill) flood(ctx context.Context) error {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var hogSent, hogOK, hogShed int
	var hogMu sync.Mutex
	// Two senders at ~25 req/s each: ~50 req/s against a quota of 5.
	// The hog cycles 4 keys so its accepted requests are cache-cheap and
	// the pressure is pure admission pressure.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				case <-ctx.Done():
					return
				default:
				}
				r := d.send("hog", tenantJob(20000+(s*2+i)%4))
				hogMu.Lock()
				hogSent++
				switch {
				case r.status == http.StatusOK:
					hogOK++
				case r.status == http.StatusTooManyRequests:
					if code, _ := r.body["code"].(string); code == "quota_exceeded" {
						hogShed++
					}
				}
				hogMu.Unlock()
				time.Sleep(40 * time.Millisecond)
			}
		}(s)
	}

	// Keep the flood window open long enough for the hog to blow
	// through its burst and sustain ~10x the refill rate.
	sent, ok, p99 := d.politeRound(4 * time.Second)
	close(stop)
	wg.Wait()

	d.r.FloodSent, d.r.FloodOK, d.r.FloodP99Ms = sent, ok, p99
	d.r.HogSent, d.r.HogOK, d.r.HogShed = hogSent, hogOK, hogShed
	baseRate := float64(d.r.BaselineOK) / float64(max(d.r.BaselineSent, 1))
	floodRate := float64(ok) / float64(max(sent, 1))
	d.logf("flood: polite %d/%d ok (p99 %.1fms), hog %d sent / %d ok / %d shed",
		ok, sent, p99, hogSent, hogOK, hogShed)

	if floodRate < baseRate-0.1 {
		d.violate("flood phase: polite completion %.2f fell more than 10%% below baseline %.2f", floodRate, baseRate)
	}
	if hogShed == 0 {
		d.violate("flood phase: hog at 10x quota was never shed with quota_exceeded")
	}
	if hogOK > hogShed {
		d.violate("flood phase: hog mostly admitted (%d ok vs %d shed) at 10x quota", hogOK, hogShed)
	}
	return nil
}

// rendezvous checks cache-affine routing and graceful failover:
// distinct keys settle on stable owners, a second pass is warm, and a
// SIGKILL remaps only the dead replica's slice of the key space while
// surviving keys stay warm and every request keeps answering.
func (d *tenantsDrill) rendezvous(context.Context) error {
	const keys = 60
	owner := make([]string, keys)
	for i := 0; i < keys; i++ {
		owner[i] = d.send("t1", tenantJob(30000+i)).header.Get("X-Instance-Id")
	}
	warm := 0
	for i := 0; i < keys; i++ {
		r := d.send("t1", tenantJob(30000+i))
		if r.status != http.StatusOK {
			continue
		}
		cached, _ := r.body["run_cached"].(bool)
		if r.header.Get("X-Instance-Id") == owner[i] && cached {
			warm++
		}
	}
	d.r.Keys, d.r.WarmHits = keys, warm
	d.logf("rendezvous: %d/%d second-pass warm hits", warm, keys)
	if warm < keys*9/10 {
		d.violate("rendezvous: only %d/%d keys warm on a stable owner (want >= 90%%)", warm, keys)
	}

	// SIGKILL r0 and resend everything.
	d.kill("r0")
	d.waitHealthy(2, 10*time.Second, "rendezvous")

	remapped, survivorKeys, survivorWarm := 0, 0, 0
	for i := 0; i < keys; i++ {
		r := d.send("t1", tenantJob(30000+i))
		if r.status != http.StatusOK {
			d.violate("rendezvous: key %d refused with %d after the kill (2 replicas healthy)", i, r.status)
			continue
		}
		inst := r.header.Get("X-Instance-Id")
		if owner[i] == "r0" {
			if inst == "r0" {
				d.violate("rendezvous: key %d still answered by the killed replica", i)
			}
			remapped++
			continue
		}
		survivorKeys++
		cached, _ := r.body["run_cached"].(bool)
		if inst == owner[i] && cached {
			survivorWarm++
		}
	}
	frac := float64(remapped) / float64(keys)
	d.r.Remapped, d.r.RemapFraction = remapped, frac
	d.r.SurvivorKeys, d.r.SurvivorWarm = survivorKeys, survivorWarm
	d.logf("kill: %.0f%% of keys remapped, %d/%d survivor keys still warm",
		100*frac, survivorWarm, survivorKeys)

	if frac > 0.45 {
		d.violate("rendezvous: killing 1 of 3 remapped %.0f%% of keys, want <= ~40%% (1/N plus noise)", 100*frac)
	}
	if survivorKeys > 0 && survivorWarm < survivorKeys*9/10 {
		d.violate("rendezvous: only %d/%d surviving keys stayed warm on their owner after the kill",
			survivorWarm, survivorKeys)
	}
	return nil
}

package cluster

import (
	"fmt"
	"net/url"
	"sync"
	"sync/atomic"
	"time"
)

// replica is the gateway's view of one blserve instance: its base URL
// plus the health and ejection state machines. The atomic inflight
// counter feeds least-loaded routing; everything else sits behind mu.
type replica struct {
	id       string
	base     *url.URL
	inflight atomic.Int64

	mu sync.Mutex
	// Active health checking (rise/fall thresholds on /healthz).
	healthy bool
	riseRun int // consecutive probe passes while down
	fallRun int // consecutive probe failures while healthy
	// Passive outlier ejection (consecutive live-traffic failures).
	consecFails  int
	ejectedUntil time.Time
	ejections    int // lifetime count, drives the exponential cool-off
	// Lifetime counters for stats and metrics.
	requests int64
	failures int64
}

func newReplica(id, raw string) (*replica, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return nil, err
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("replica URL %q needs scheme and host", raw)
	}
	// Until the first probe settles, trust the operator's list: a
	// gateway that boots before its replicas answers traffic as soon as
	// they do, and the fall threshold corrects optimism quickly.
	return &replica{id: id, base: u, healthy: true}, nil
}

// available reports whether live traffic should be routed here: marked
// healthy by probes and not passively ejected.
func (r *replica) available(now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.healthy && !now.Before(r.ejectedUntil)
}

// ejected reports whether the replica is inside a passive cool-off.
func (r *replica) ejected(now time.Time) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return now.Before(r.ejectedUntil)
}

// probeResult feeds one active health-check outcome through the
// rise/fall state machine. It returns the healthy state and whether it
// changed, so the caller can log and count transitions.
func (r *replica) probeResult(ok bool, rise, fall int) (healthy, changed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ok {
		r.fallRun = 0
		if !r.healthy {
			r.riseRun++
			if r.riseRun >= rise {
				r.healthy = true
				r.riseRun = 0
				return true, true
			}
		}
	} else {
		r.riseRun = 0
		if r.healthy {
			r.fallRun++
			if r.fallRun >= fall {
				r.healthy = false
				r.fallRun = 0
				return false, true
			}
		}
	}
	return r.healthy, false
}

// noteSuccess records a successful live request: the consecutive
// failure run breaks and any cool-off ends early (the replica has just
// proven itself).
func (r *replica) noteSuccess(now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.requests++
	r.consecFails = 0
	if now.Before(r.ejectedUntil) {
		r.ejectedUntil = now
	}
}

// noteFailure records a failed live request (5xx other than 504, or
// transport error) and, at ejectAfter consecutive failures, ejects the
// replica for an exponentially growing cool-off. It returns the
// cool-off applied, or zero when no ejection happened.
func (r *replica) noteFailure(now time.Time, ejectAfter int, base, max time.Duration) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.requests++
	r.failures++
	r.consecFails++
	if r.consecFails < ejectAfter {
		return 0
	}
	r.consecFails = 0
	cool := base << r.ejections
	if cool > max || cool <= 0 { // <= 0 guards shift overflow
		cool = max
	}
	r.ejections++
	r.ejectedUntil = now.Add(cool)
	return cool
}

// replicaStats is one replica's row in the gateway's stats snapshot.
type replicaStats struct {
	ID        string `json:"id"`
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	Ejected   bool   `json:"ejected"`
	Inflight  int64  `json:"inflight"`
	Requests  int64  `json:"requests"`
	Failures  int64  `json:"failures"`
	Ejections int    `json:"ejections"`
}

func (r *replica) stats(now time.Time) replicaStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return replicaStats{
		ID:        r.id,
		URL:       r.base.String(),
		Healthy:   r.healthy,
		Ejected:   now.Before(r.ejectedUntil),
		Inflight:  r.inflight.Load(),
		Requests:  r.requests,
		Failures:  r.failures,
		Ejections: r.ejections,
	}
}

package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ballarus/internal/durable"
)

// hitFloor is the minimum warm-hit fraction required after a restart
// that recovered state.
const hitFloor = 0.5

// SoakReport is the Soak scenario's section of the Report.
type SoakReport struct {
	Rounds      int     `json:"rounds"`
	WarmChecks  int     `json:"warm_checks"`
	WarmHitRate float64 `json:"warm_hit_rate"` // of the last warm check
	Recovered   int64   `json:"recovered"`     // warmed requests, summed over restarts
	Skipped     int64   `json:"skipped"`       // corrupt entries skipped at the drill boot
}

// statsView is the slice of /v1/stats the soak asserts on.
type statsView struct {
	Completed  int64 `json:"completed"`
	Durability struct {
		SnapshotSkipped int64 `json:"snapshot_skipped"`
		Warmed          int64 `json:"warmed"`
	} `json:"durability"`
}

type soak struct {
	*fleet
	r        *SoakReport
	stateDir string

	completed []job // jobs answered 200 at least once, oldest first; guarded by fleet.mu
	seen      map[string]bool
}

// soakPlan tortures one durable blserve:
//
//  1. soak: rounds of seeded traffic, a fault episode or an overload
//     burst, then SIGKILL mid-traffic and a restart over the same state
//     until Config.Duration runs out. After every kill the snapshot
//     must decode cleanly (never torn); after every restart recovered
//     state must exist and repeats of answered jobs must hit the run
//     cache at hitFloor or better;
//  2. corruption: flip a bit inside one snapshot entry — the next boot
//     must skip and count it, never fail;
//  3. metrics: /metrics must lint clean and its corruption-skip and
//     completion counters must match /v1/stats.
//
// Every response, throughout, is exclusive (answered or refused, never
// both) and every 429 and 504 carries Retry-After.
func soakPlan(f *fleet) plan {
	s := &soak{fleet: f, r: &SoakReport{}, stateDir: f.cfg.StateDir, seen: map[string]bool{}}
	f.rep.Soak = s.r
	if s.stateDir == "" {
		s.stateDir = f.dir
	}
	return plan{
		replicas: 1,
		replica: []string{
			"-queue", "8",
			"-timeout", "2s",
			"-drain-timeout", "5s",
			"-chaos-admin",
			"-state-dir", s.stateDir,
			"-snapshot-every", "500ms",
			"-journal-sync", "10ms",
		},
		phases: []phase{
			{"soak", s.soak},
			{"corruption", s.corruption},
			{"metrics", s.metrics},
		},
		shutdown: "r0",
		grace:    10 * time.Second,
	}
}

func (s *soak) soak(ctx context.Context) error {
	end := time.Now().Add(s.cfg.Duration)
	for time.Now().Before(end) && ctx.Err() == nil {
		s.r.Rounds++
		s.logf("round %d", s.r.Rounds)
		s.traffic(8 + s.rng.Intn(8))
		switch s.rng.Intn(3) {
		case 0:
			s.faultEpisode()
		case 1:
			s.overloadBurst()
		}
		// Bound what the kill may lose, then kill mid-traffic. The
		// in-flight jobs are drawn here so the PRNG stays on one
		// goroutine; their sender is not waited for before the restart,
		// so late ones reach the restarted server.
		s.post("r0", "/debug/snapshot", nil)
		inflight := []job{s.pickJob(), s.pickJob(), s.newJob(0), s.newJob(0)}
		s.background(func() {
			for _, j := range inflight {
				s.send(j)
			}
		})
		time.Sleep(time.Duration(s.rng.Intn(40)) * time.Millisecond)
		s.killAndCheckSnapshot()
		if err := s.restartAndCheckWarm(); err != nil {
			return err
		}
	}
	return ctx.Err()
}

// send posts j and remembers it for repeats when it was answered.
func (s *soak) send(j job) reply {
	r := s.fleet.send(j, "")
	if r.status != http.StatusOK {
		return r
	}
	key := fmt.Sprintf("%s#%d", j.Source, j.Seed)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.seen[key] {
		s.seen[key] = true
		s.completed = append(s.completed, j)
	}
	return r
}

// slowJob is heavy enough to hold a worker for a while — fuel for
// overload and kill-mid-flight scenarios.
func (s *soak) slowJob() job {
	n := 2000000 + s.rng.Intn(4)*500000
	return job{Source: fmt.Sprintf(
		"int main() { int i; int s = 0; for (i = 0; i < %d; i++) { s += i %% 7; } printi(s); return 0; }", n)}
}

// pickJob returns a repeat of an answered job about a third of the
// time, otherwise fresh work.
func (s *soak) pickJob() job {
	s.mu.Lock()
	n := len(s.completed)
	var repeat job
	if n > 0 {
		repeat = s.completed[s.rng.Intn(n)]
	}
	s.mu.Unlock()
	if n > 0 && s.rng.Intn(3) == 0 {
		return repeat
	}
	return s.newJob(0)
}

// traffic sends n scripted requests sequentially.
func (s *soak) traffic(n int) {
	for i := 0; i < n; i++ {
		s.send(s.pickJob())
	}
}

// faultEpisode arms one scripted fault, pushes traffic through it, and
// clears it. Faults are bounded (times) so an episode cannot poison
// the rest of the run.
func (s *soak) faultEpisode() {
	stages := []string{"service.compile", "service.analyze", "service.predict", "service.execute", "service.score"}
	stage := stages[s.rng.Intn(len(stages))]
	var f map[string]any
	switch s.rng.Intn(3) {
	case 0:
		f = map[string]any{"point": stage, "err": "chaos-injected", "times": 1 + s.rng.Intn(3)}
	case 1:
		f = map[string]any{"point": stage, "panic": "chaos-panic", "times": 1 + s.rng.Intn(2)}
	default:
		f = map[string]any{"point": stage, "hang": true, "times": 1}
	}
	payload, _ := json.Marshal(f)
	if !s.post("r0", "/debug/fault", payload) {
		return
	}
	s.logf("fault %s", payload)
	s.traffic(6 + s.rng.Intn(6))
	s.post("r0", "/debug/clearfaults", nil)
}

// overloadBurst fires concurrent slow jobs at a queue-bounded server:
// some answer, some shed with 429 — and every shed must carry
// Retry-After and must not also be answered.
func (s *soak) overloadBurst() {
	n := 16 + s.rng.Intn(16)
	jobs := make([]job, n)
	for i := range jobs {
		jobs[i] = s.slowJob()
	}
	s.logf("overload burst of %d", n)
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			s.send(j)
		}(j)
	}
	wg.Wait()
}

// killAndCheckSnapshot delivers SIGKILL and asserts the torn-snapshot
// invariant: whatever instant the process died, the snapshot on disk
// decodes cleanly (atomic writes never expose a partial file).
func (s *soak) killAndCheckSnapshot() {
	s.kill("r0")
	path := filepath.Join(s.stateDir, durable.SnapshotName)
	_, st, err := durable.ReadSnapshotFile(path)
	if os.IsNotExist(err) {
		return // killed before the first snapshot: nothing to tear
	}
	if err != nil {
		s.violate("snapshot unreadable after kill: %v", err)
		return
	}
	if st.Truncated || st.BadMagic || st.VersionSkew || st.Skipped != 0 {
		s.violate("torn snapshot after kill: %+v", st)
	}
}

// restartAndCheckWarm boots the server again over the same state and
// asserts the warm-start invariant: recovered entries exist when work
// was done, and repeats of answered jobs hit the run cache at or above
// the floor.
func (s *soak) restartAndCheckWarm() error {
	if err := s.restart("r0"); err != nil {
		return err
	}
	var st statsView
	if err := s.getJSON("r0", "/v1/stats", &st); err != nil {
		s.violate("no stats after restart: %v", err)
		return nil
	}
	s.r.Recovered += st.Durability.Warmed
	s.mu.Lock()
	n := len(s.completed)
	sample := make([]job, 0, 12)
	for i := n - 1; i >= 0 && len(sample) < cap(sample); i-- {
		sample = append(sample, s.completed[i])
	}
	s.mu.Unlock()
	if n > 0 && st.Durability.Warmed == 0 {
		s.violate("restart recovered nothing despite %d answered jobs", n)
		return nil
	}
	if st.Durability.Warmed == 0 || len(sample) == 0 {
		return nil
	}
	s.r.WarmChecks++
	hits := 0
	for _, j := range sample {
		if cached, _ := s.send(j).body["run_cached"].(bool); cached {
			hits++
		}
	}
	rate := float64(hits) / float64(len(sample))
	s.r.WarmHitRate = rate
	s.logf("restart %d warm: %d recovered, hit rate %.2f", s.rep.Restarts, st.Durability.Warmed, rate)
	if rate < hitFloor {
		s.violate("warm hit rate %.2f below floor %.2f (recovered %d)", rate, hitFloor, st.Durability.Warmed)
	}
	return nil
}

// corruption is the scripted bit-flip: force a snapshot, kill, corrupt
// one entry on disk, and require the next boot to skip and count it —
// never to fail.
func (s *soak) corruption(context.Context) error {
	s.traffic(4)
	if !s.post("r0", "/debug/snapshot", nil) {
		s.violate("corruption drill: snapshot request failed")
		return nil
	}
	s.kill("r0")
	path := filepath.Join(s.stateDir, durable.SnapshotName)
	data, err := os.ReadFile(path)
	if err != nil {
		s.violate("corruption drill: read snapshot: %v", err)
		return s.restart("r0")
	}
	entries, st, _ := durable.ReadSnapshotFile(path)
	if len(entries) == 0 || st.Skipped != 0 {
		s.violate("corruption drill: no clean entries to corrupt (%+v)", st)
		return s.restart("r0")
	}
	// Flip a bit inside the first entry's section bytes: its CRC must
	// reject exactly that entry at the next boot.
	data[8+15+2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		s.violate("corruption drill: rewrite snapshot: %v", err)
		return s.restart("r0")
	}
	if err := s.restart("r0"); err != nil {
		s.violate("corruption drill: server failed to boot over corrupt snapshot: %v", err)
		return err
	}
	var sv statsView
	if err := s.getJSON("r0", "/v1/stats", &sv); err != nil {
		s.violate("corruption drill: no stats after boot: %v", err)
		return nil
	}
	s.r.Skipped = sv.Durability.SnapshotSkipped
	s.logf("corruption drill: %d skipped, %d recovered", sv.Durability.SnapshotSkipped, sv.Durability.Warmed)
	if sv.Durability.SnapshotSkipped < 1 {
		s.violate("corruption drill: corrupted entry not counted as skipped (%+v)", sv.Durability)
	}
	return nil
}

// metrics asserts the exported counters agree with /v1/stats: every
// corruption skip and completion observed by the harness must be
// visible to a Prometheus scraper.
func (s *soak) metrics(context.Context) error {
	exp := s.scrape("r0")
	if exp == nil {
		return nil
	}
	var st statsView
	if err := s.getJSON("r0", "/v1/stats", &st); err != nil {
		s.violate("metrics: no stats for cross-check: %v", err)
		return nil
	}
	s.expect(exp, "ballarus_recovered_snapshot_skipped", nil, float64(st.Durability.SnapshotSkipped))
	s.expect(exp, "ballarus_requests_completed_total", nil, float64(st.Completed))
	if v, found := exp.Value("ballarus_stage_duration_seconds_count",
		map[string]string{"stage": "execute"}); !found || v <= 0 {
		s.violate("metrics: no execute-stage latency histogram samples (found %v, %v)", found, v)
	}
	s.rep.MetricsScraped = true
	s.logf("metrics check: %d samples, skipped %d",
		len(exp.Samples), st.Durability.SnapshotSkipped)
	return nil
}

package chaos

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"

	"ballarus/internal/jobs"
	"ballarus/internal/orders"
)

// JobsReport is the Jobs scenario's section of the Report.
type JobsReport struct {
	Benches          int   `json:"benches"`
	SweepShards      int   `json:"sweep_shards"`
	SubsetShards     int   `json:"subset_shards"`
	DoneAtCoordKill  int   `json:"shards_done_at_coordinator_kill"`
	RecoveredShards  int   `json:"recovered_shards"` // chaos job only
	RerunShards      int   `json:"rerun_shards"`     // completed by the restarted coordinator
	Trials           int64 `json:"trials"`
	ReplicaKills     int   `json:"replica_kills"`
	CoordinatorKills int   `json:"coordinator_kills"`
	SweepVerified    bool  `json:"sweep_verified"`
	SubsetsVerified  bool  `json:"subsets_verified"`
	// SweepRecoveredShards is how many of the finished sweep job's shards
	// the restarted coordinator restored (all of them, if the checkpoint
	// held).
	SweepRecoveredShards int `json:"sweep_recovered_shards"`
}

// jobsExpected is the single-process ground truth the distributed runs
// must reproduce bit-for-bit.
type jobsExpected struct {
	sweep   *orders.Sweep
	subsets *orders.SubsetResult
	err     error
}

// jobsK is the subset size of the chaos job: the paper's exact C(22,11)
// experiment (Section 5), the largest Table 4 row.
const jobsK = 11

// jobsMaskShard is the chaos job's shard size in low masks: 2048/64 =
// 32 shards, each a few hundred milliseconds of scoring — wide enough
// windows to kill processes mid-job without fault injection.
const jobsMaskShard = 64

// jobResultBody mirrors blserve's GET /v1/jobs/{id}?result=1 response.
type jobResultBody struct {
	Status *jobs.Status `json:"status"`
	Result *jobs.Result `json:"result"`
}

type jobsDrill struct {
	*fleet
	r       *JobsReport
	truth   chan jobsExpected
	exp     jobsExpected
	sweepID string
}

// jobsPlan runs a job coordinator (blserve -jobs) dispatching Section 5
// experiment shards through blgate to two replicas:
//
//  1. coordinator: boot the coordinator, journaling to the fleet's
//     state directory, and collect the single-process ground truth —
//     the full 5040-order sweep and the exact C(22,11) subset
//     experiment — computed in-process while the fleet booted;
//  2. sweep: a full sweep job runs end-to-end; its merged matrix must
//     be bit-identical to the single-process sweep;
//  3. chaos: the exact subset job is submitted; r0 is SIGKILLed
//     mid-job (the gateway must absorb it), then the coordinator is
//     SIGKILLed mid-job and restarted on the same address and state
//     directory. It must resume from the journal, re-run only the
//     unfinished shards, and finish with the exact trial count and a
//     bit-identical best-count vector — and the finished sweep job
//     must still be there, artifact intact;
//  4. metrics: the coordinator's /metrics must lint clean and the
//     ballarus_jobs_* families must agree with the drill: shards
//     completed by the restarted process = total - recovered.
func jobsPlan(ctx context.Context, f *fleet) plan {
	d := &jobsDrill{fleet: f, r: &JobsReport{}, truth: make(chan jobsExpected, 1)}
	f.rep.Jobs = d.r
	// The ground truth costs ~5s of scoring; overlap it with the boot.
	f.background(func() { d.truth <- computeJobsExpected(ctx) })
	return plan{
		replicas: 2,
		replica:  []string{"-timeout", "60s", "-drain-timeout", "2s"},
		gate: []string{
			"-eject-max", "2s",
			"-retry-ratio", "1",
			"-retry-burst", "64",
			"-timeout", "60s",
		},
		phases: []phase{
			{"coordinator", d.coordinator},
			{"sweep", d.sweep},
			{"chaos", d.chaos},
			{"metrics", d.metrics},
		},
		shutdown: "coord",
		grace:    10 * time.Second,
	}
}

// computeJobsExpected produces the single-process ground truth both
// distributed jobs must reproduce exactly.
func computeJobsExpected(ctx context.Context) jobsExpected {
	provider := jobs.SuiteBenchProvider()
	bd, err := provider(ctx, jobs.DefaultBenches())
	if err != nil {
		return jobsExpected{err: err}
	}
	sw, err := orders.NewSweepCtx(ctx, bd)
	if err != nil {
		return jobsExpected{err: err}
	}
	sub, err := sw.SubsetsCtx(ctx, jobsK)
	if err != nil {
		return jobsExpected{err: err}
	}
	return jobsExpected{sweep: sw, subsets: sub}
}

// coordinator boots the blserve that owns the job engine: jobs on,
// shards dispatched through the gateway, journal and snapshots in the
// fleet's state directory — the same address and directory let a
// restarted coordinator resume where the killed one stopped.
func (d *jobsDrill) coordinator(context.Context) error {
	err := d.start("coord", d.cfg.ServeBin,
		"-instance-id", "coord",
		"-workers", "4",
		"-timeout", "60s",
		"-drain-timeout", "2s",
		"-state-dir", d.dir,
		"-jobs",
		"-jobs-executor", d.url("gate"),
		"-jobs-parallel", "2",
		"-jobs-lease", "20s",
	)
	if err != nil {
		return err
	}
	d.exp = <-d.truth
	if d.exp.err != nil {
		return fmt.Errorf("computing single-process ground truth: %w", d.exp.err)
	}
	d.r.Benches = len(d.exp.sweep.Benches)
	return nil
}

// submitJob posts one job to the coordinator and returns its accepted
// status.
func (d *jobsDrill) submitJob(body map[string]any) *jobs.Status {
	payload, _ := json.Marshal(body)
	resp, raw, err := d.call(http.MethodPost, "coord", "/v1/jobs", payload, "")
	if err != nil {
		d.violate("job submit transport error: %v", err)
		return nil
	}
	if resp.StatusCode != http.StatusAccepted {
		d.violate("job submit status %d: %.200s", resp.StatusCode, raw)
		return nil
	}
	var st jobs.Status
	if err := json.Unmarshal(raw, &st); err != nil {
		d.violate("job submit body undecodable: %v (%.200s)", err, raw)
		return nil
	}
	return &st
}

// jobStatus fetches one job's status; nil on any failure (the
// coordinator may legitimately be dead mid-drill).
func (d *jobsDrill) jobStatus(id string) *jobs.Status {
	var st jobs.Status
	if d.getJSON("coord", "/v1/jobs/"+id, &st) != nil {
		return nil
	}
	return &st
}

// jobResult fetches a done job's merged artifact.
func (d *jobsDrill) jobResult(id string) (*jobResultBody, error) {
	var out jobResultBody
	if err := d.getJSON("coord", "/v1/jobs/"+id+"?result=1", &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// waitJob polls until the job leaves StateRunning or the deadline hits.
// It returns the last status seen, nil (after a violation) if none.
func (d *jobsDrill) waitJob(ctx context.Context, id string, within time.Duration) *jobs.Status {
	deadline := time.Now().Add(within)
	var last *jobs.Status
	for time.Now().Before(deadline) && ctx.Err() == nil {
		if st := d.jobStatus(id); st != nil {
			last = st
			if st.State != jobs.StateRunning {
				return st
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	if last == nil {
		d.violate("job %s: no status within %v", id, within)
	} else {
		d.violate("job %s stuck %s: %d/%d shards after %v", id, last.State, last.ShardsDone, last.ShardsTotal, within)
	}
	return last
}

// matricesIdentical compares two miss-rate matrices for bit identity
// (Float64bits, not ==, so a -0/0 or NaN discrepancy cannot hide).
func matricesIdentical(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return false
			}
		}
	}
	return true
}

// sweep runs the full 5040-order sweep as a distributed job with every
// process healthy: the merged matrix must be bit-identical to the
// single-process sweep. The job's ID is kept for the post-restart
// restoration check.
func (d *jobsDrill) sweep(ctx context.Context) error {
	d.logf("sweep (%d orders x %d benches)", orders.NumOrders, d.r.Benches)
	st := d.submitJob(map[string]any{"kind": "sweep"})
	if st == nil {
		return nil
	}
	d.r.SweepShards = st.ShardsTotal
	d.sweepID = st.ID
	st = d.waitJob(ctx, st.ID, 2*time.Minute)
	if st == nil || st.State != jobs.StateDone {
		return nil
	}
	body, err := d.jobResult(st.ID)
	if err != nil {
		d.violate("sweep result fetch: %v", err)
		return nil
	}
	if want := int64(orders.NumOrders) * int64(d.r.Benches); body.Result.Trials != want {
		d.violate("sweep trials = %d, want exactly %d", body.Result.Trials, want)
	}
	if !matricesIdentical(body.Result.Matrix, d.exp.sweep.M) {
		d.violate("distributed sweep matrix differs from the single-process run")
		return nil
	}
	d.r.SweepVerified = true
	d.logf("sweep matrix bit-identical (%d shards, %d trials)", st.ShardsTotal, body.Result.Trials)
	return nil
}

// chaos runs the exact C(22,11) experiment and does the killing: r0
// dies mid-job, then the coordinator dies mid-job and comes back on
// the same address and state directory.
func (d *jobsDrill) chaos(ctx context.Context) error {
	d.logf("exact C(%d,%d) = %d trials", d.r.Benches, jobsK, orders.Binomial(d.r.Benches, jobsK))
	st := d.submitJob(map[string]any{"kind": "subsets", "k": jobsK, "shard_size": jobsMaskShard})
	if st == nil {
		return nil
	}
	id := st.ID
	d.r.SubsetShards = st.ShardsTotal
	total := st.ShardsTotal
	if total < 8 {
		d.violate("chaos job planned only %d shards; the drill needs room to kill mid-job", total)
		return nil
	}

	// Kill thresholds, in shards done: the replica falls early, the
	// coordinator once the journal provably holds progress but well
	// before the job can finish.
	replicaKillAt, coordKillAt := 3, total/4
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		cur := d.jobStatus(id)
		if cur == nil {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		if cur.State != jobs.StateRunning {
			d.violate("chaos job reached %q (%d/%d shards) before the coordinator kill", cur.State, cur.ShardsDone, total)
			return nil
		}
		if d.r.ReplicaKills == 0 && cur.ShardsDone >= replicaKillAt {
			d.kill("r0")
			d.r.ReplicaKills++
			d.logf("killed replica r0 at %d/%d shards", cur.ShardsDone, total)
		}
		if d.r.ReplicaKills > 0 && cur.ShardsDone >= coordKillAt {
			d.r.DoneAtCoordKill = cur.ShardsDone
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if d.r.DoneAtCoordKill == 0 {
		d.violate("chaos job never reached the coordinator kill threshold (%d shards)", coordKillAt)
		return nil
	}

	d.kill("coord")
	d.r.CoordinatorKills++
	d.logf("SIGKILLed coordinator at >=%d/%d shards", d.r.DoneAtCoordKill, total)
	if err := d.restart("coord"); err != nil {
		d.violate("coordinator restart failed: %v", err)
		return nil
	}

	final := d.waitJob(ctx, id, 2*time.Minute)
	if final == nil {
		return nil
	}
	d.r.RecoveredShards = final.RecoveredShards
	if final.State != jobs.StateDone {
		d.violate("chaos job finished %q after restart: %s", final.State, final.Error)
		return nil
	}
	// The journal is fsynced per completion, so every shard the dead
	// coordinator reported done must come back recovered — and the job
	// was provably unfinished, so some shards must have been re-run.
	if final.RecoveredShards < d.r.DoneAtCoordKill {
		d.violate("recovered %d shards, but %d were done before the kill — checkpointed work was lost",
			final.RecoveredShards, d.r.DoneAtCoordKill)
	}
	if final.RecoveredShards >= total {
		d.violate("recovered all %d shards; the drill failed to interrupt the job", total)
	}
	d.r.RerunShards = total - final.RecoveredShards

	wantTrials := orders.Binomial(d.r.Benches, jobsK)
	d.r.Trials = final.TrialsDone
	if final.TrialsDone != wantTrials {
		d.violate("chaos job trials = %d, want exactly %d (lost or duplicated trials)", final.TrialsDone, wantTrials)
	}
	body, err := d.jobResult(id)
	if err != nil {
		d.violate("chaos job result fetch: %v", err)
		return nil
	}
	res, want := body.Result, d.exp.subsets
	switch {
	case res.Trials != wantTrials:
		d.violate("merged artifact trials = %d, want %d", res.Trials, wantTrials)
	case len(res.BestCount) != len(want.BestCount):
		d.violate("best-count length %d, want %d", len(res.BestCount), len(want.BestCount))
	case res.DistinctOrders != want.DistinctOrders():
		d.violate("distinct orders %d, want %d", res.DistinctOrders, want.DistinctOrders())
	default:
		for o, c := range want.BestCount {
			if res.BestCount[o] != c {
				d.violate("best count for order %d = %d, want %d", o, res.BestCount[o], c)
				return nil
			}
		}
		d.r.SubsetsVerified = true
		d.logf("chaos job done: %d recovered + %d re-run shards, %d trials, best counts identical",
			final.RecoveredShards, d.r.RerunShards, final.TrialsDone)
	}

	// The sweep job finished before the kill; the restarted coordinator
	// must still hold it, artifact intact.
	if d.sweepID == "" {
		return nil
	}
	sst := d.jobStatus(d.sweepID)
	if sst == nil || sst.State != jobs.StateDone {
		d.violate("finished sweep job %s not restored after the coordinator restart", d.sweepID)
		return nil
	}
	d.r.SweepRecoveredShards = sst.RecoveredShards
	if sst.RecoveredShards != sst.ShardsTotal {
		d.violate("sweep job restored %d/%d shards; a finished job must recover whole", sst.RecoveredShards, sst.ShardsTotal)
	}
	sbody, err := d.jobResult(d.sweepID)
	if err != nil {
		d.violate("restored sweep result fetch: %v", err)
		return nil
	}
	if !matricesIdentical(sbody.Result.Matrix, d.exp.sweep.M) {
		d.violate("restored sweep matrix differs from the single-process run")
	}
	return nil
}

// metrics scrapes the restarted coordinator's /metrics: the
// ballarus_jobs_* families must agree with the drill — in particular,
// the restarted process completed exactly total - recovered shards,
// which is the "re-run only the unfinished work" guarantee in counter
// form.
func (d *jobsDrill) metrics(context.Context) error {
	exp := d.scrape("coord")
	if exp == nil {
		return nil
	}
	// Process-lifetime counters of the restarted coordinator.
	d.expect(exp, "ballarus_jobs_shards_completed_total", nil, float64(d.r.RerunShards))
	d.expect(exp, "ballarus_jobs_submitted_total", nil, 0) // resumed, not resubmitted
	d.expect(exp, "ballarus_jobs_active", nil, 0)          // both jobs terminal
	d.expect(exp, "ballarus_jobs_recovered_shards", nil, float64(d.r.RecoveredShards+d.r.SweepRecoveredShards))
	if _, found := exp.Value("ballarus_jobs_trials_total", nil); !found {
		d.violate("metrics: ballarus_jobs_trials_total family missing")
	}
	d.rep.MetricsScraped = true
	d.logf("metrics check: %d samples, %d shards completed post-restart", len(exp.Samples), d.r.RerunShards)
	return nil
}

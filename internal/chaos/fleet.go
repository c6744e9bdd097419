// Package chaos is a deterministic chaos harness for the serving stack.
// One fleet owns every process a drill starts — blserve replicas by
// index and the blgate gateway — and boots, SIGKILLs, restarts (on the
// same address), and tears them down. A Scenario is its servers' flag
// lists plus an ordered list of phases, each holding only its own
// checks; Run boots the fleet, runs the phases, and records every
// broken invariant in the Report.
//
// The three scenarios:
//
//   - Soak: one blserve with durable state, driven through seeded
//     traffic, fault episodes, overload bursts, and SIGKILL-restart
//     rounds, then a snapshot corruption drill and a /metrics
//     cross-check. Snapshots are never torn, restarts are warm,
//     every response is exclusive (answered or refused, never both),
//     and corruption is counted data loss, not an outage.
//   - Cluster: replicas behind blgate with kills, stalls, a hedged
//     distributed trace, and a full-cluster brownout. No client sees a
//     5xx while any replica is healthy, hedges win against a stall, and
//     the brownout degrades to cached answers instead of dropping.
//   - Tenants: a hog tenant flooding at 10x its quota next to polite
//     tenants, then a replica SIGKILL under rendezvous routing. Polite
//     tenants keep their baseline, the hog is shed, and only the dead
//     replica's keys remap.
//
// Runs are scripted by a seeded PRNG, so a failing schedule replays
// with the same seed.
package chaos

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"ballarus/internal/obs"
)

// Scenario names one drill.
type Scenario string

const (
	Soak    Scenario = "soak"
	Cluster Scenario = "cluster"
	Tenants Scenario = "tenants"
)

// Config parameterizes one drill.
type Config struct {
	// ServeBin is the blserve binary (see BuildServe); required.
	ServeBin string
	// GateBin is the blgate binary (see BuildGate); required by every
	// scenario but Soak.
	GateBin string
	// Seed drives the request/fault/kill schedule. Same seed, same
	// schedule. 0 means 1.
	Seed int64
	// Duration bounds the Soak's kill-restart rounds and the Cluster's
	// kill-soak phase. <= 0 means 20s.
	Duration time.Duration
	// Replicas is the Cluster size. < 2 means 3.
	Replicas int
	// StateDir is the Soak server's durable directory; empty means a
	// temp dir removed after the run.
	StateDir string
	// Log receives harness narration and forwarded server stderr; nil
	// discards it.
	Log io.Writer
}

// Report is the outcome of one drill: counters every scenario shares,
// plus the running scenario's own section. Violations is the list of
// broken invariants; a clean run has none.
type Report struct {
	Scenario Scenario `json:"scenario"`
	Seed     int64    `json:"seed"`
	Replicas int      `json:"replicas"`
	Requests int      `json:"requests"`
	Answered int      `json:"answered"`
	Degraded int      `json:"degraded"` // 200s served from the gateway's brownout cache
	Refused  int      `json:"refused"`
	Kills    int      `json:"kills"`
	Restarts int      `json:"restarts"`
	// MetricsScraped marks a successful /metrics scrape, lint, and
	// cross-check during the drill.
	MetricsScraped bool           `json:"metrics_scraped"`
	Soak           *SoakReport    `json:"soak,omitempty"`
	Cluster        *ClusterReport `json:"cluster,omitempty"`
	Tenants        *TenantsReport `json:"tenants,omitempty"`
	Violations     []string       `json:"violations,omitempty"`
}

// plan is one scenario: the flags of the servers it boots, the phases
// it runs in order, and the process it stops gracefully at the end
// with the grace that process gets before SIGKILL.
type plan struct {
	replicas int
	replica  []string // each replica's flags after -instance-id and -workers
	gate     []string // the gateway's flags after the shared probe flags; nil for none
	phases   []phase
	shutdown string // empty: the drill ends with teardown alone
	grace    time.Duration
}

type phase struct {
	name string
	run  func(ctx context.Context) error
}

// gateProbeFlags are the gateway flags every gateway drill shares:
// fast active probing and ejection, so kills show within a second.
var gateProbeFlags = []string{
	"-probe-every", "150ms",
	"-probe-timeout", "500ms",
	"-rise", "1",
	"-fall", "2",
	"-eject-after", "2",
	"-eject-base", "300ms",
	"-max-attempts", "3",
}

// proc is one fleet process. Its flags and address outlive a kill, so
// a restart comes back where the gateway and clients expect it.
type proc struct {
	name string
	bin  string
	args []string
	addr string     // bound address, fixed by the first boot
	cmd  *exec.Cmd  // nil while the process is dead
	wait chan error // the reaped exit status, once stderr is drained
}

// fleet owns one drill's processes and the pieces every scenario
// shares: sending, violations, health waits, and the metrics scrape.
type fleet struct {
	cfg     Config
	rng     *rand.Rand
	client  *http.Client
	log     io.Writer
	dir     string // scratch state directory, removed at teardown
	gateway bool   // requests enter through the gateway, not replica r0
	bg      sync.WaitGroup

	mu    sync.Mutex // guards procs and rep against concurrent senders
	procs map[string]*proc
	rep   *Report
}

// Run executes one drill: it boots the scenario's servers, runs its
// phases in order, and tears the fleet down. On every return path each
// process the drill started is killed and reaped and each goroutine it
// started has returned. The returned error reports harness-level
// failures (binary missing, a server never came up, ctx done); broken
// invariants land in Report.Violations instead.
func Run(ctx context.Context, s Scenario, cfg Config) (*Report, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 20 * time.Second
	}
	if cfg.Replicas < 2 {
		cfg.Replicas = 3
	}
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	f := &fleet{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		client: &http.Client{Timeout: 20 * time.Second},
		log:    cfg.Log,
		procs:  map[string]*proc{},
		rep:    &Report{Scenario: s, Seed: cfg.Seed},
	}
	ctx, cancel := context.WithCancel(ctx)
	defer f.teardown(cancel)
	dir, err := os.MkdirTemp("", "blchaos-*")
	if err != nil {
		return f.rep, err
	}
	f.dir = dir

	var p plan
	switch s {
	case Soak:
		p = soakPlan(f)
	case Cluster:
		p = clusterPlan(f)
	case Tenants:
		p = tenantsPlan(f)
	default:
		return f.rep, fmt.Errorf("unknown scenario %q", s)
	}
	if err := f.boot(p); err != nil {
		return f.rep, err
	}
	for _, ph := range p.phases {
		if err := ctx.Err(); err != nil {
			return f.rep, err
		}
		f.logf("%s phase", ph.name)
		if err := ph.run(ctx); err != nil {
			return f.rep, err
		}
	}
	if p.shutdown != "" {
		f.stop(p.shutdown, p.grace)
	}
	return f.rep, nil
}

// boot starts the plan's replicas r0..rN-1 and, if it has one, the
// gateway in front of them.
func (f *fleet) boot(p plan) error {
	f.rep.Replicas = p.replicas
	urls := make([]string, p.replicas)
	for i := range urls {
		name := fmt.Sprintf("r%d", i)
		args := append([]string{"-instance-id", name, "-workers", "4"}, p.replica...)
		if err := f.start(name, f.cfg.ServeBin, args...); err != nil {
			return err
		}
		urls[i] = f.url(name)
	}
	if p.gate == nil {
		return nil
	}
	args := append([]string{"-replicas", strings.Join(urls, ",")}, gateProbeFlags...)
	if err := f.start("gate", f.cfg.GateBin, append(args, p.gate...)...); err != nil {
		return err
	}
	f.gateway = true
	f.logf("%d replicas behind gateway %s", p.replicas, f.url("gate"))
	return nil
}

// start boots a new fleet process under name on a free port.
func (f *fleet) start(name, bin string, args ...string) error {
	p := &proc{name: name, bin: bin, args: args, addr: "127.0.0.1:0"}
	f.mu.Lock()
	f.procs[name] = p
	f.mu.Unlock()
	return f.launch(p)
}

// restart boots a killed process again with its flags and address.
func (f *fleet) restart(name string) error {
	f.mu.Lock()
	p := f.procs[name]
	f.mu.Unlock()
	if err := f.launch(p); err != nil {
		return err
	}
	f.mu.Lock()
	f.rep.Restarts++
	f.mu.Unlock()
	f.logf("restarted %s on %s", name, p.addr)
	return nil
}

// launch starts p with -log-format json, forwards its stderr to the
// log, and blocks until its "listening" record reports the bound
// address, so -addr 127.0.0.1:0 works.
func (f *fleet) launch(p *proc) error {
	cmd := exec.Command(p.bin, append([]string{"-addr", p.addr, "-log-format", "json"}, p.args...)...)
	setPdeathsig(cmd)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return err
	}
	cmd.Stdout = f.log
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start %s: %w", p.name, err)
	}
	addrc := make(chan string, 1)
	wait := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			fmt.Fprintf(f.log, "  [%s] %s\n", p.name, sc.Bytes())
			var rec struct{ Msg, Addr string }
			if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Msg == "listening" {
				select {
				case addrc <- rec.Addr:
				default:
				}
			}
		}
		// Reap only after stderr is drained: Wait closes the pipe.
		wait <- cmd.Wait()
	}()

	select {
	case addr := <-addrc:
		f.mu.Lock()
		p.addr, p.cmd, p.wait = addr, cmd, wait
		f.mu.Unlock()
		return nil
	case err := <-wait:
		return fmt.Errorf("%s exited before listening: %v", p.name, err)
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		<-wait
		return fmt.Errorf("%s never reported a listening address", p.name)
	}
}

// take detaches name's live process from its slot; nil when dead.
func (f *fleet) take(name string) *proc {
	f.mu.Lock()
	defer f.mu.Unlock()
	p := f.procs[name]
	if p == nil || p.cmd == nil {
		return nil
	}
	live := *p
	p.cmd, p.wait = nil, nil
	return &live
}

// kill delivers SIGKILL — the hard crash the drills inflict — and
// reaps the process. It reports false if name was already dead.
func (f *fleet) kill(name string) bool {
	p := f.take(name)
	if p == nil {
		return false
	}
	p.cmd.Process.Kill()
	<-p.wait
	f.mu.Lock()
	f.rep.Kills++
	f.mu.Unlock()
	f.logf("killed %s", name)
	return true
}

// stop asks name for a graceful shutdown (SIGTERM drains and
// snapshots), escalating to SIGKILL after grace; any failure is a
// violation.
func (f *fleet) stop(name string, grace time.Duration) {
	p := f.take(name)
	if p == nil {
		return
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-p.wait:
		if err != nil {
			f.violate("%s graceful shutdown failed: %v", name, err)
		}
	case <-time.After(grace):
		p.cmd.Process.Kill()
		<-p.wait
		f.violate("%s ignored SIGTERM; killed", name)
	}
}

// teardown cancels the drill's context, kills and reaps every live
// process, waits for background goroutines, and removes scratch state.
func (f *fleet) teardown(cancel context.CancelFunc) {
	cancel()
	f.mu.Lock()
	var names []string
	for name := range f.procs {
		names = append(names, name)
	}
	f.mu.Unlock()
	for _, name := range names {
		if p := f.take(name); p != nil {
			p.cmd.Process.Kill()
			<-p.wait
		}
	}
	f.bg.Wait()
	if f.dir != "" {
		os.RemoveAll(f.dir)
	}
}

// background runs fn on a goroutine that Run waits for before it
// returns.
func (f *fleet) background(fn func()) {
	f.bg.Add(1)
	go func() {
		defer f.bg.Done()
		fn()
	}()
}

func (f *fleet) url(name string) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return "http://" + f.procs[name].addr
}

func (f *fleet) logf(format string, args ...any) {
	fmt.Fprintf(f.log, "%s: %s\n", f.rep.Scenario, fmt.Sprintf(format, args...))
}

func (f *fleet) violate(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintf(f.log, "%s: VIOLATION: %s\n", f.rep.Scenario, msg)
	if len(f.rep.Violations) < 32 {
		f.rep.Violations = append(f.rep.Violations, msg)
	}
}

// call sends one request to name's path (a JSON body, and the tenant
// header when tenant is set) and returns the response with its body
// read; err is a transport or read failure.
func (f *fleet) call(method, name, path string, body []byte, tenant string) (*http.Response, []byte, error) {
	req, err := http.NewRequest(method, f.url(name)+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant-Id", tenant)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp, raw, err
}

// post hits an admin or debug endpoint; failures are tolerated (the
// target may be mid-kill), so it reports only whether it answered 200.
func (f *fleet) post(name, path string, body []byte) bool {
	resp, _, err := f.call(http.MethodPost, name, path, body, "")
	return err == nil && resp.StatusCode == http.StatusOK
}

// getJSON decodes a 200 answer from name's path into v.
func (f *fleet) getJSON(name, path string, v any) error {
	resp, raw, err := f.call(http.MethodGet, name, path, nil, "")
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", resp.StatusCode, raw)
	}
	return json.Unmarshal(raw, v)
}

// job is one scripted request; distinct (source, seed) pairs are
// distinct pipeline jobs.
type job struct {
	Source string `json:"source"`
	Seed   int64  `json:"seed,omitempty"`
}

// loopJob is the program the drills send: a cheap branchy loop whose
// start value, trip count, branch modulus, and interpreter seed shape
// distinct content hashes.
func loopJob(start, n, m int, seed int64) job {
	return job{Source: fmt.Sprintf(
		"int main() { int i; int s = %d; for (i = 0; i < %d; i++) { if (i %% %d == 0) { s += i; } else { s -= 1; } } printi(s); return 0; }",
		start, n, m), Seed: seed}
}

// newJob draws a loopJob from the PRNG. The seed offset partitions the
// job space, so a phase can draw jobs guaranteed fresh: distinct
// content hashes no earlier phase can have primed or cached.
func (f *fleet) newJob(seedOffset int64) job {
	n := 100 + f.rng.Intn(40)*25
	m := 2 + f.rng.Intn(8)
	return loopJob(0, n, m, seedOffset+int64(f.rng.Intn(4)))
}

// reply is one /v1/predict answer; status 0 means a transport error.
type reply struct {
	status int
	body   map[string]any // nil unless the body was JSON
	header http.Header
}

// send posts j to the drill's entry point (the gateway if there is
// one, else replica r0) as tenant, or anonymously when tenant is
// empty, and enforces the response-shape invariants: a JSON body,
// result and refusal mutually exclusive, and Retry-After on every
// retryable refusal. A lone server is killed mid-traffic, so there a
// transport error is expected and 429 and 504 are the retryable
// refusals. The gateway stays up for the whole drill, so there a
// transport error is itself a violation and 429 and every 5xx are
// retryable.
func (f *fleet) send(j job, tenant string) reply {
	entry := "r0"
	if f.gateway {
		entry = "gate"
	}
	payload, _ := json.Marshal(j)
	resp, raw, err := f.call(http.MethodPost, entry, "/v1/predict", payload, tenant)
	if err != nil {
		if f.gateway {
			f.violate("gateway transport error: %v", err)
		}
		return reply{}
	}
	r := reply{status: resp.StatusCode, header: resp.Header}
	f.mu.Lock()
	f.rep.Requests++
	f.mu.Unlock()
	if err := json.Unmarshal(raw, &r.body); err != nil {
		f.violate("status %d with non-JSON body %.80q", r.status, raw)
		return r
	}
	_, hasResult := r.body["heuristic"]
	_, hasCode := r.body["code"]
	degraded, _ := r.body["degraded"].(bool)
	f.mu.Lock()
	if r.status == http.StatusOK {
		f.rep.Answered++
		if degraded {
			f.rep.Degraded++
		}
	} else {
		f.rep.Refused++
	}
	f.mu.Unlock()
	if r.status == http.StatusOK {
		if !hasResult || hasCode {
			f.violate("200 body mixes result and refusal: %.120q", raw)
		}
		return r
	}
	if hasResult || !hasCode {
		f.violate("status %d body mixes refusal and result: %.120q", r.status, raw)
	}
	retryable := r.status == http.StatusTooManyRequests || r.status == http.StatusGatewayTimeout ||
		(f.gateway && r.status >= 500)
	if retryable && r.header.Get("Retry-After") == "" {
		f.violate("status %d without Retry-After", r.status)
	}
	return r
}

// gateStats mirrors blgate's GET /gateway/stats body.
type gateStats struct {
	HealthyReplicas int   `json:"healthy_replicas"`
	HedgeFires      int64 `json:"hedge_fires"`
	HedgeWins       int64 `json:"hedge_wins"`
	StaleServed     int64 `json:"stale_served"`
}

// waitHealthy polls the gateway until its routable-replica count
// reaches want, or violates at the deadline.
func (f *fleet) waitHealthy(want int, within time.Duration, why string) {
	deadline := time.Now().Add(within)
	var st gateStats
	for time.Now().Before(deadline) {
		if f.getJSON("gate", "/gateway/stats", &st) == nil && st.HealthyReplicas == want {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	f.violate("%s: healthy_replicas never reached %d within %v (now %d)",
		why, want, within, st.HealthyReplicas)
}

// scrape fetches name's /metrics and requires a lint-clean, parsable
// Prometheus text exposition. It returns nil after recording why not.
func (f *fleet) scrape(name string) *obs.Exposition {
	resp, body, err := f.call(http.MethodGet, name, "/metrics", nil, "")
	if err != nil {
		f.violate("metrics: scrape failed: %v", err)
		return nil
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		f.violate("metrics: content-type %q", ct)
	}
	for _, p := range obs.Lint(bytes.NewReader(body)) {
		f.violate("metrics lint: %s", p)
	}
	exp, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		f.violate("metrics: unparsable exposition: %v", err)
		return nil
	}
	return exp
}

// expect requires the exposition's sample name{labels} to equal want.
func (f *fleet) expect(exp *obs.Exposition, name string, labels map[string]string, want float64) {
	if v, found := exp.Value(name, labels); !found || v != want {
		f.violate("metrics: %s%v = %v (found %v), want %v", name, labels, v, found, want)
	}
}

// BuildServe compiles cmd/blserve from the enclosing module into dir
// and returns the binary path. The harness builds its victims on demand
// so `go test ./internal/chaos` and CI need no pre-built artifact.
func BuildServe(dir string) (string, error) {
	return buildBinary(dir, "blserve")
}

// BuildGate compiles cmd/blgate the same way for the gateway scenarios.
func BuildGate(dir string) (string, error) {
	return buildBinary(dir, "blgate")
}

func buildBinary(dir, name string) (string, error) {
	root, err := moduleRoot()
	if err != nil {
		return "", err
	}
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("build %s: %v\n%s", name, err, out)
	}
	return bin, nil
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod above working directory")
		}
		dir = parent
	}
}

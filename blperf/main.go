// Command blperf is the repository's benchmark: one command that runs a
// named workload from a seed, verifies every answer against committed
// goldens, and prints every end-to-end metric with its unit; a traced
// run prints the per-layer metrics instead. BENCHMARK.json at the
// repository root declares the workloads, the metrics, and the bounds a
// change may worsen each by; README.md in this directory explains them.
//
// Usage, from the repository root:
//
//	bash blperf/run.sh --workload cold-suite --seed 1 --seconds 20 --trace 0
//	bash blperf/run.sh --workload all --seed 1 --seconds 20
//
// run.sh builds blserve, blgate, and blperf into .bench_build and runs
// blperf with -work .bench_build. Four workloads exist:
//
//	cold-suite   suite benchmarks under fresh interpreter seeds: only
//	             the run cache misses, so interpretation is the work
//	fresh-small  generated programs, each request with a fresh nonce:
//	             every cache misses, so compile, analysis, and the
//	             interpreter's fixed per-run cost are the work
//	warm-mix     predict and compare (4:1) with every cache warm:
//	             proxying, HTTP, JSON, and cache lookups are the work
//	paper-repro  in-process regeneration of the paper's tables and
//	             graphs, hashed against the golden text
//
// The serving workloads start blgate in front of two blserve -workers 1
// replicas and load them from two closed-loop clients, each on its own
// keep-alive connection. Set-up runs three times and setup_s reports the
// median; the last set-up's processes serve the timed window. Timed
// metrics are reported at a reference host speed, measured by a
// memory-bound probe in short pauses of the window (see speed.go), and
// printed raw beside the adjusted values.
//
// With -trace 1, each client replays ops 0, 10, 20, ... through the
// layers' public functions (minic.Compile, core.Analyze, interp.Run,
// dynpred, trace.Sequences, service.Predict) while the other client
// waits, then the run probes the order experiments and the serving
// layers' self time; spans go to trace_<workload>.json in the work
// directory. Layers are measured from outside: the benchmark times its
// own calls and reads the servers' /v1/stats and /gateway/stats.
//
// -update-golden recomputes testdata/golden.json in-process.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

const (
	// defaultSeed is the -seed default, and the seed whose fresh-small
	// pool digest the golden pins.
	defaultSeed = 1
	// setupRounds is how many times a run sets up; setup_s is the median.
	setupRounds = 3
	// warmupOps is how many untimed ops each client sends through the
	// gateway at set-up, so its hedge-delay estimate has data.
	warmupOps = 16
)

// env is what a run's pieces share.
type env struct {
	work     string
	workload string
	seed     int64
	traced   bool
	golden   *golden
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the end-to-end metrics, in report order.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: cold-suite, fresh-small, warm-mix, paper-repro, or all")
	seed := flag.Int64("seed", defaultSeed, "workload seed; it draws every random choice")
	seconds := flag.Int("seconds", 20, "length of the timed window")
	traceFlag := flag.Int("trace", 0, "1 replays sampled ops through the layers and reports per-layer metrics")
	traceOut := flag.String("trace-out", "", "span file of a traced run (default <work>/trace_<workload>.json)")
	work := flag.String("work", ".bench_build", "directory holding bin/blserve and bin/blgate; logs and traces go here")
	cpuProfile := flag.String("cpuprofile", "", "write this process's CPU profile of the window here, and each replica's to <file>.r<N>")
	memProfile := flag.String("memprofile", "", "write this process's heap profile after the window here, and each replica's to <file>.r<N>")
	updateGolden := flag.Bool("update-golden", false, "recompute the golden answers in-process and write them to -golden")
	goldenPath := flag.String("golden", "blperf/testdata/golden.json", "golden file -update-golden writes")
	flag.Parse()

	if *updateGolden {
		if err := writeGolden(*goldenPath); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *goldenPath)
		return
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, not %d", *traceFlag))
	}
	if *seconds < 1 {
		fatal(fmt.Errorf("-seconds must be at least 1"))
	}
	if *workload == "all" {
		os.Exit(runAll())
	}
	w := lookupWorkload(*workload)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	if err := os.MkdirAll(filepath.Join(*work, "log"), 0o755); err != nil {
		fatal(err)
	}
	if *traceOut == "" {
		*traceOut = filepath.Join(*work, "trace_"+w.name+".json")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	e := &env{work: *work, workload: w.name, seed: *seed, traced: *traceFlag == 1}
	o := runOpts{
		window:     time.Duration(*seconds) * time.Second,
		traceOut:   *traceOut,
		cpuProfile: *cpuProfile,
		memProfile: *memProfile,
	}
	m, err := measure(ctx, e, w, o)
	if err != nil {
		fatal(err)
	}
	res, err := m.report(e, w, o)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "blperf:", err)
	os.Exit(1)
}

// session is one set-up's live state: the stack (nil when there is
// none), and each client's op stream and HTTP client.
type session struct {
	stack *stack
	next  []func() op
	hcs   []*http.Client
}

func (s *session) close() {
	for _, hc := range s.hcs {
		hc.CloseIdleConnections()
	}
	if s.stack != nil {
		s.stack.stop()
	}
}

// setUp boots the stack (serving workloads, and every traced run, whose
// probes need one), prepares the workload, and sends the warm-up ops.
func setUp(ctx context.Context, e *env, w *workload, round int, admin bool) (*session, error) {
	sess := &session{}
	if w.serving || e.traced {
		s, err := bootStack(ctx, e, strconv.Itoa(round), admin)
		if err != nil {
			return nil, err
		}
		sess.stack = s
	}
	src, err := w.prepare(ctx, e, sess.stack)
	if err != nil {
		sess.close()
		return nil, err
	}
	if !w.serving {
		sess.next = []func() op{src(0, nil)}
		return sess, nil
	}
	for c := 0; c < 2; c++ {
		hc := newClient()
		sess.hcs = append(sess.hcs, hc)
		sess.next = append(sess.next, src(c, hc))
	}
	var wg sync.WaitGroup
	errs := make([]error, len(sess.next))
	for c, next := range sess.next {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < warmupOps && errs[c] == nil; i++ {
				errs[c] = next().do(ctx)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		sess.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return sess, nil
}

// clientLog is one client's record of the window.
type clientLog struct {
	lat       []float64 // ms, verified ops only
	attempted int64
	failed    int64
	last      time.Time // completion of the client's last op
	err       error     // first failure
}

// window is what the timed window observed.
type window struct {
	logs   []clientLog
	probes []float64     // host probe costs, ns
	paused time.Duration // spent probing the host, not serving
}

// runWindow runs every client's closed loop until the deadline; ops in
// flight at the deadline complete and count. Ops hold gate shared; the
// host probe, and a traced client's replay, hold it alone, so they see a
// machine on which nothing else of the benchmark runs. The first probe
// is taken before the clients start.
func runWindow(ctx context.Context, next []func() op, deadline time.Time, lt *layerTracer) window {
	var gate sync.RWMutex
	var w window
	first, stop, probed := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(probed)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		t := time.NewTicker(probeEvery)
		defer t.Stop()
		for n := 0; ; n++ {
			gate.Lock()
			start := time.Now()
			for i := 0; i < probeBurst; i++ {
				w.probes = append(w.probes, probeOnce())
			}
			w.paused += time.Since(start)
			gate.Unlock()
			if n == 0 {
				close(first)
			}
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	<-first

	w.logs = make([]clientLog, len(next))
	var wg sync.WaitGroup
	for c := range next {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := &w.logs[c]
			for i := 0; ctx.Err() == nil && time.Now().Before(deadline); i++ {
				o := next[c]()
				gate.RLock()
				id, d, err := lt.runOp(ctx, o)
				gate.RUnlock()
				l.attempted++
				l.last = time.Now()
				if err != nil {
					l.failed++
					if l.err == nil {
						l.err = err
					}
					continue
				}
				l.lat = append(l.lat, ms(d))
				if lt != nil && i%replayEvery == 0 {
					gate.Lock()
					lt.replay(ctx, id, o.replay)
					gate.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-probed
	return w
}

type runOpts struct {
	window                           time.Duration
	traceOut, cpuProfile, memProfile string
}

// measurement is what one run observed, before host-speed adjustment.
type measurement struct {
	res     *result
	setups  []float64 // s
	lat     []float64 // ms, ascending, verified ops only
	elapsed float64   // s, window start to the last op's completion, less probe pauses
	speed   float64   // host speed relative to the reference host
	rss     float64   // MB
	layers  map[string]float64
	lt      *layerTracer
}

// measure sets up, runs the window, and (traced) probes the layers. The
// servers are stopped when it returns.
func measure(ctx context.Context, e *env, w *workload, o runOpts) (*measurement, error) {
	admin := w.serving && (o.cpuProfile != "" || o.memProfile != "")
	m := &measurement{res: &result{Metrics: map[string]metric{}}}
	var sess *session
	defer func() {
		if sess != nil {
			sess.close()
		}
	}()
	for round := 0; round < setupRounds; round++ {
		if sess != nil {
			sess.close()
			sess = nil
		}
		start := time.Now()
		g, err := loadGolden(goldenJSON)
		if err != nil {
			return nil, err
		}
		e.golden = g
		s, err := setUp(ctx, e, w, round, admin)
		if err != nil {
			return nil, err
		}
		sess = s
		m.setups = append(m.setups, time.Since(start).Seconds())
	}

	var before map[string]int64
	if sess.stack != nil {
		var err error
		if before, err = sess.stack.counters(ctx); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	if e.traced {
		m.lt = newLayerTracer(start)
	}
	stopProfile, err := startCPUProfile(ctx, o.cpuProfile, sess.stack, w.serving, o.window)
	if err != nil {
		return nil, err
	}
	win := runWindow(ctx, sess.next, start.Add(o.window), m.lt)
	if err := stopProfile(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	res := m.res
	var last time.Time
	for c, l := range win.logs {
		m.lat = append(m.lat, l.lat...)
		res.Attempted += l.attempted
		res.Failed += l.failed
		if l.last.After(last) {
			last = l.last
		}
		if l.err != nil {
			fmt.Fprintf(os.Stderr, "blperf: client %d: %d of %d ops failed; first: %v\n", c, l.failed, l.attempted, l.err)
		}
	}
	sort.Float64s(m.lat)
	m.elapsed = (last.Sub(start) - win.paused).Seconds()
	m.speed = refProbeNs / median(win.probes)
	delta := map[string]int64{}
	if sess.stack != nil {
		after, err := sess.stack.counters(ctx)
		if err != nil {
			return nil, err
		}
		for k, v := range after {
			delta[k] = v - before[k]
		}
		// A brownout answer replays an earlier reply byte for byte, so it
		// verifies; it still was not computed for this request.
		res.Failed += delta["stale_served"]
	}
	if w.serving {
		m.rss, err = sess.stack.peakRSSMB()
	} else {
		m.rss, err = peakRSSMB("self")
	}
	if err != nil {
		return nil, err
	}
	if o.memProfile != "" {
		if err := writeHeapProfiles(ctx, o.memProfile, sess.stack, w.serving); err != nil {
			return nil, err
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	if !e.traced {
		return m, nil
	}

	if m.lt.acc.programs == 0 {
		return nil, errors.New("traced run replayed no op")
	}
	probes, err := m.lt.probe(ctx, sess.stack)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	if m.lt.err != nil {
		fmt.Fprintln(os.Stderr, "blperf:", m.lt.err)
		res.Correct = false
	}
	m.layers = m.lt.layerValues(probes, shapeFractions(delta, res.Attempted))
	return m, nil
}

// report prints every metric and fills the result: the end-to-end
// metrics of an untraced run, or the per-layer metrics of a traced one.
// Timed end-to-end metrics are adjusted to the reference host speed.
func (m *measurement) report(e *env, w *workload, o runOpts) (*result, error) {
	res, speed := m.res, m.speed
	p99, p99ok := percentile(m.lat, 0.99)
	if !p99ok && len(m.lat) > 0 {
		p99 = m.lat[len(m.lat)-1]
	}
	raw := map[string]float64{
		"setup_s":        median(m.setups),
		"ops_per_s":      float64(res.Attempted-res.Failed) / m.elapsed,
		"latency_p50_ms": median(m.lat),
		"latency_p99_ms": p99,
		"peak_rss_mb":    m.rss,
	}
	e2e := map[string]float64{
		"setup_s":        raw["setup_s"] * speed,
		"ops_per_s":      raw["ops_per_s"] / speed,
		"latency_p50_ms": raw["latency_p50_ms"] * speed,
		"latency_p99_ms": raw["latency_p99_ms"] * speed,
		"peak_rss_mb":    raw["peak_rss_mb"],
	}
	fmt.Printf("blperf %s seed=%d window=%s traced=%v host speed=%.3f of reference\n", w.name, e.seed, o.window, e.traced, speed)
	notes := map[string]string{
		"setup_s":        fmt.Sprintf("median of %d set-ups: %s", len(m.setups), join(m.setups, "%.3f")),
		"latency_p99_ms": p99Note(len(m.lat), p99ok),
		"peak_rss_mb":    map[bool]string{true: "gateway + replicas, VmHWM", false: "this process, VmHWM"}[w.serving],
	}
	for name, v := range raw {
		if name != "peak_rss_mb" {
			notes[name] = fmt.Sprintf("raw %.5g; %s", v, notes[name])
		}
	}
	printMetrics(e2eMetrics, e2e, notes)
	fmt.Printf("  %-34s %.4g (%d of %d ops)\n", "failed_frac", frac(res.Failed, res.Attempted), res.Failed, res.Attempted)

	baseline := filepath.Join(e.work, "e2e_"+w.name+".json")
	if !e.traced {
		for _, d := range e2eMetrics {
			res.Metrics[d.name] = metric{e2e[d.name], d.unit}
		}
		data, err := json.Marshal(res.Metrics)
		if err != nil {
			return nil, err
		}
		return res, os.WriteFile(baseline, data, 0o644)
	}

	fmt.Printf("per-layer, not speed-adjusted (%d ops replayed, %d programs):\n", m.lt.acc.ops, m.lt.acc.programs)
	printMetrics(layerMetrics, m.layers, nil)
	for _, d := range layerMetrics {
		res.Metrics[d.name] = metric{m.layers[d.name], d.unit}
	}
	printOverhead(baseline, e2e)
	if err := m.lt.writeSpans(o.traceOut, w.name, e.seed); err != nil {
		return nil, err
	}
	fmt.Printf("%d spans written to %s\n", len(m.lt.spans), o.traceOut)
	return res, nil
}

// startCPUProfile profiles this process over the window and, for
// serving workloads, fetches each replica's profile of the same span.
func startCPUProfile(ctx context.Context, path string, s *stack, serving bool, window time.Duration) (func() error, error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	wait := func() error { return nil }
	if serving {
		wait = s.startCPUProfiles(ctx, path, window)
	}
	return func() error {
		pprof.StopCPUProfile()
		return errors.Join(f.Close(), wait())
	}, nil
}

func writeHeapProfiles(ctx context.Context, path string, s *stack, serving bool) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if serving {
		return s.writeHeapProfiles(ctx, path)
	}
	return nil
}

func p99Note(n int, ok bool) string {
	if ok {
		return fmt.Sprintf("p99 of %d ops", n)
	}
	return fmt.Sprintf("max of %d ops: fewer than %d lie beyond p99", n, minBeyond)
}

func printMetrics(defs []metricDef, vals map[string]float64, notes map[string]string) {
	for _, m := range defs {
		fmt.Printf("  %-34s %-12.5g %-9s %s\n", m.name, vals[m.name], m.unit, notes[m.name])
	}
}

// printOverhead compares the traced window with the workload's last
// untraced run in this work directory, if there is one.
func printOverhead(baseline string, traced map[string]float64) {
	data, err := os.ReadFile(baseline)
	if err != nil {
		fmt.Println("tracing overhead: no untraced run of this workload to compare with")
		return
	}
	var base map[string]metric
	if err := json.Unmarshal(data, &base); err != nil {
		fmt.Println("tracing overhead:", err)
		return
	}
	var parts []string
	for _, name := range []string{"ops_per_s", "latency_p50_ms", "latency_p99_ms"} {
		if b := base[name].Value; b != 0 {
			parts = append(parts, fmt.Sprintf("%s %+.1f%%", name, 100*(traced[name]-b)/b))
		}
	}
	fmt.Printf("tracing overhead vs the last untraced run: %s\n", strings.Join(parts, ", "))
}

func join(xs []float64, format string) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(s, ", ")
}

// runAll runs every workload in a fresh process of its own, so peak RSS
// and garbage-collector state are per workload, and ends with one line
// holding every workload's result.
func runAll() int {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	code := 0
	results := map[string]json.RawMessage{}
	for _, w := range workloads {
		args := []string{"-workload", w.name}
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "workload":
			case "trace-out", "cpuprofile", "memprofile":
				args = append(args, "-"+f.Name, f.Value.String()+"."+w.name)
			default:
				args = append(args, "-"+f.Name, f.Value.String())
			}
		})
		var out bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout = io.MultiWriter(os.Stdout, &out)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "blperf: %s: %v\n", w.name, err)
			code = 1
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		if last := lines[len(lines)-1]; json.Valid([]byte(last)) {
			results[w.name] = json.RawMessage(last)
		}
	}
	line, err := json.Marshal(results)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	return code
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ballarus/internal/core"
	"ballarus/internal/dynpred"
	"ballarus/internal/eval"
	"ballarus/internal/interp"
	"ballarus/internal/minic"
	"ballarus/internal/mir"
	"ballarus/internal/orders"
	"ballarus/internal/service"
	"ballarus/internal/suite"
	"ballarus/internal/trace"
)

// replayEvery is the op stride at which a traced client replays its op
// through the layers: ops 0, 10, 20, ... of each client.
const replayEvery = 10

// maxServingProbes caps the sampled inputs the serving layers are probed
// with after the window.
const maxServingProbes = 32

// warmCalls is how many cached calls time one warm in-process hit; a
// single hit takes only tens of microseconds.
const warmCalls = 20

// span is one timed call, named for the layer function it wraps.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_us"`
	End    int64  `json:"end_us"`
}

// layerTracer records spans for a traced run and accumulates the
// per-layer counters. The window loop pauses every op around a replay,
// so a replay's allocation counts and timings see no other work: the
// other client waits between ops, and the servers are idle.
type layerTracer struct {
	t0     time.Time
	nextOp atomic.Int64

	spanMu sync.Mutex
	spans  []span

	// Written only by replays, which never overlap.
	acc    layerAcc
	probes []probeInput
	err    error
}

// layerAcc sums what the replays measured.
type layerAcc struct {
	ops, programs                int64
	compileNs, analyzeNs, instrs int64
	runNs, steps                 int64
	runAlloc, eventsAlloc        int64
	dynNs                        map[string]int64
	events, dynAlloc, dynReplays int64
	seqNs                        int64
	selfNs, warmNs, warmAlloc    int64
	warmHits                     int64
}

// probeInput is a sampled request and its warm in-process cost, the
// baseline the serving probes subtract.
type probeInput struct {
	req    request
	warmNs float64
}

func newLayerTracer(t0 time.Time) *layerTracer {
	return &layerTracer{t0: t0, acc: layerAcc{dynNs: map[string]int64{}}}
}

func (t *layerTracer) span(name, parent string, op int64, start, end time.Time) {
	t.spanMu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		Start: start.Sub(t.t0).Microseconds(), End: end.Sub(t.t0).Microseconds()})
	t.spanMu.Unlock()
}

// runOp times one op, with a span when traced, and returns its id.
func (t *layerTracer) runOp(ctx context.Context, o op) (int64, time.Duration, error) {
	if t == nil {
		start := time.Now()
		err := o.do(ctx)
		return 0, time.Since(start), err
	}
	id := t.nextOp.Add(1)
	start := time.Now()
	err := o.do(ctx)
	end := time.Now()
	t.span("op", "", id, start, end)
	return id, end.Sub(start), err
}

// replay pushes an op's inputs through every in-process layer. The
// caller pauses the op loop around it.
func (t *layerTracer) replay(ctx context.Context, id int64, reqs []request) {
	start := time.Now()
	t.acc.ops++
	for _, req := range reqs {
		if err := t.replayOne(ctx, id, req); err != nil && t.err == nil {
			t.err = fmt.Errorf("replaying %s: %w", req.name(), err)
		}
	}
	t.span("replay", "op", id, start, time.Now())
}

func allocated() int64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.TotalAlloc)
}

// replayOne times each layer's public function on one input, the way
// the service chains them: compile, analyze, run, then the Section 6
// consumers of the event trace, then the service itself cold and warm.
func (t *layerTracer) replayOne(ctx context.Context, id int64, req request) error {
	src, input, budget := req.Source, []int64(nil), int64(0)
	if req.Benchmark != "" {
		b := suite.Get(req.Benchmark)
		src, input, budget = b.Source, b.Data[req.Dataset].Input, b.Budget
	}
	a := &t.acc
	a.programs++
	timed := func(name string, f func() error) (int64, error) {
		start := time.Now()
		err := f()
		end := time.Now()
		t.span(name, "replay", id, start, end)
		return end.Sub(start).Nanoseconds(), err
	}

	var prog *mir.Program
	compileNs, err := timed("minic.Compile", func() (err error) {
		prog, err = minic.Compile(src, minic.Options{})
		return err
	})
	if err != nil {
		return err
	}
	var an *core.Analysis
	analyzeNs, err := timed("core.Analyze", func() (err error) {
		an, err = core.Analyze(prog, core.Options{})
		return err
	})
	if err != nil {
		return err
	}
	cfg := interp.Config{Input: input, Budget: budget, Seed: req.Seed}
	before := allocated()
	var run *interp.Result
	runNs, err := timed("interp.Run", func() (err error) {
		run, err = interp.Run(prog, cfg)
		return err
	})
	if err != nil {
		return err
	}
	runAlloc := allocated() - before
	cfg.CollectEvents = true
	before = allocated()
	var ev *interp.Result
	if _, err := timed("interp.Run+events", func() (err error) {
		ev, err = interp.Run(prog, cfg)
		return err
	}); err != nil {
		return err
	}
	eventsAlloc := allocated() - before - runAlloc

	a.compileNs += compileNs
	a.analyzeNs += analyzeNs
	a.instrs += int64(prog.NumInstrs())
	a.runNs += runNs
	a.steps += run.Steps
	a.runAlloc += runAlloc
	a.eventsAlloc += eventsAlloc

	n := ev.Profile.Set.Len()
	for _, name := range dynpred.Names() {
		before := allocated()
		ns, err := timed("dynpred."+name, func() error {
			p, err := dynpred.New(name, n)
			if err == nil {
				dynpred.Replay(ev.Events, n, p)
			}
			return err
		})
		if err != nil {
			return err
		}
		a.dynAlloc += allocated() - before
		a.dynNs[name] += ns
		a.dynReplays++
	}
	a.events += int64(len(ev.Events))
	seqNs, _ := timed("trace.Sequences", func() error {
		trace.Sequences(ev.Events, ev.TailLen, trace.PredictionVector(an.Predictions(core.DefaultOrder)))
		return nil
	})
	a.seqNs += seqNs

	svc := service.New(service.WithWorkers(1))
	defer svc.Close()
	sreq := service.Request{Source: req.Source, Benchmark: req.Benchmark, Dataset: req.Dataset, Seed: req.Seed}
	coldNs, err := timed("service.Predict.cold", func() error {
		_, err := svc.Predict(ctx, sreq)
		return err
	})
	if err != nil {
		return err
	}
	// Subtract the stage times the service recorded for this very call:
	// a separately timed interp.Run differs from the service's by more
	// than the service's own overhead.
	for _, sg := range svc.Stats().Stages {
		if sg.Name == "compile" || sg.Name == "analyze" || sg.Name == "execute" {
			coldNs -= int64(sg.TotalTime)
		}
	}
	a.selfNs += coldNs
	before = allocated()
	warmNs, err := timed("service.Predict.warm", func() error {
		for i := 0; i < warmCalls; i++ {
			if _, err := svc.Predict(ctx, sreq); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	a.warmAlloc += allocated() - before
	a.warmNs += warmNs
	a.warmHits += warmCalls
	if len(t.probes) < maxServingProbes {
		t.probes = append(t.probes, probeInput{req, float64(warmNs) / warmCalls})
	}
	return nil
}

// layerProbes are the post-window measurements: calls whose cost does
// not depend on the op (the interpreter's fixed cost, the Section 5
// order experiments over the suite) and the serving layers' self time on
// the sampled inputs, taken against an idle stack.
type layerProbes struct {
	fixedMs, sweepMs, subsetsMs   float64
	httpSelfUs, proxySelfUs, resp float64
}

func (t *layerTracer) probe(ctx context.Context, s *stack) (layerProbes, error) {
	var p layerProbes
	prog, err := minic.Compile("int main() { return 0; }", minic.Options{})
	if err != nil {
		return p, err
	}
	const fixedRuns = 20
	start := time.Now()
	for i := 0; i < fixedRuns; i++ {
		if _, err := interp.Run(prog, interp.Config{}); err != nil {
			return p, err
		}
	}
	t.span("interp.Run.fixed", "probe", 0, start, time.Now())
	p.fixedMs = ms(time.Since(start)) / fixedRuns

	bd, err := eval.New().BenchData(ctx)
	if err != nil {
		return p, err
	}
	const orderRuns = 3
	var sw *orders.Sweep
	start = time.Now()
	for i := 0; i < orderRuns; i++ {
		if sw, err = orders.NewSweepCtx(ctx, bd); err != nil {
			return p, err
		}
	}
	t.span("orders.NewSweepCtx", "probe", 0, start, time.Now())
	p.sweepMs = ms(time.Since(start)) / orderRuns
	start = time.Now()
	for i := 0; i < orderRuns; i++ {
		if _, err := sw.SubsetsSampledCtx(ctx, 11, 5000, 1993); err != nil {
			return p, err
		}
	}
	t.span("orders.SubsetsSampledCtx", "probe", 0, start, time.Now())
	p.subsetsMs = ms(time.Since(start)) / orderRuns

	if len(t.probes) == 0 {
		return p, nil
	}
	// warm returns the mean latency of calls that hit a warm cache, and
	// the reply size.
	const calls = 5
	warm := func(name, url string, body []byte) (float64, int, error) {
		start := time.Now()
		size := 0
		for i := 0; i < calls; i++ {
			b, err := post(ctx, s.hc, url+"/v1/predict", body)
			if err != nil {
				return 0, 0, err
			}
			size = len(b)
		}
		t.span(name, "probe", 0, start, time.Now())
		return float64(time.Since(start).Nanoseconds()) / calls, size, nil
	}
	var directNs, gateNs, inprocNs, bytes float64
	for _, in := range t.probes {
		body := in.req.body()
		// Warm every replica first so the gateway's pick cannot land on a cold one.
		for _, r := range s.replicas {
			if _, err := post(ctx, s.hc, r.url()+"/v1/predict", body); err != nil {
				return p, err
			}
		}
		direct, size, err := warm("blserve.predict", s.replicas[0].url(), body)
		if err != nil {
			return p, err
		}
		gate, _, err := warm("blgate.predict", s.gate.url(), body)
		if err != nil {
			return p, err
		}
		directNs += direct
		gateNs += gate
		inprocNs += in.warmNs
		bytes += float64(size)
	}
	n := float64(len(t.probes))
	p.httpSelfUs = (directNs - inprocNs) / n / 1e3
	p.proxySelfUs = (gateNs - directNs) / n / 1e3
	p.resp = bytes / n / 1024
	return p, nil
}

// layerMetrics are the per-layer metrics, in report order.
var layerMetrics = []metricDef{
	{"minic.compile_ms", "ms"},
	{"minic.mir_instrs", "count"},
	{"core.analyze_ms", "ms"},
	{"interp.run_ms", "ms"},
	{"interp.minstr_per_s", "Minstr/s"},
	{"interp.alloc_mb_per_run", "MB"},
	{"interp.fixed_ms", "ms"},
	{"interp.steps_per_op", "count"},
	{"interp.events_alloc_mb_per_run", "MB"},
	{"dynpred.one-bit.ns_per_event", "ns"},
	{"dynpred.two-bit.ns_per_event", "ns"},
	{"dynpred.bimodal.ns_per_event", "ns"},
	{"dynpred.gshare.ns_per_event", "ns"},
	{"dynpred.tage.ns_per_event", "ns"},
	{"dynpred.alloc_kb_per_replay", "KB"},
	{"trace.sequences_ms", "ms"},
	{"orders.sweep_ms", "ms"},
	{"orders.subsets_ms", "ms"},
	{"service.predict_warm_us", "us"},
	{"service.alloc_kb_per_warm_hit", "KB"},
	{"service.self_ms", "ms"},
	{"service.program_hit_frac", "ratio"},
	{"service.analysis_hit_frac", "ratio"},
	{"service.run_hit_frac", "ratio"},
	{"service.compare_hit_frac", "ratio"},
	{"service.shed_frac", "ratio"},
	{"blserve.http_self_us", "us"},
	{"blserve.resp_kb", "KB"},
	{"cluster.proxy_self_us", "us"},
	{"cluster.hedge_fire_frac", "ratio"},
	{"cluster.hedge_win_frac", "ratio"},
}

// shapeFractions turns the window's counter deltas into the per-layer
// fractions that describe the workload's shape. attempted is the number
// of client ops, the base of the hedge rate.
func shapeFractions(d map[string]int64, attempted int64) map[string]float64 {
	hit := func(stage string) float64 { return frac(d[stage+".hit"], d[stage+".hit"]+d[stage+".miss"]) }
	return map[string]float64{
		"service.program_hit_frac":  hit("compile"),
		"service.analysis_hit_frac": hit("analyze"),
		"service.run_hit_frac":      hit("execute"),
		"service.compare_hit_frac":  hit("compare"),
		"service.shed_frac":         frac(d["shed"], d["requests"]),
		"cluster.hedge_fire_frac":   frac(d["hedge_fires"], attempted),
		"cluster.hedge_win_frac":    frac(d["hedge_wins"], d["hedge_fires"]),
	}
}

// layerValues assembles every per-layer metric from the replays, the
// probes, and the window's shape fractions.
func (t *layerTracer) layerValues(p layerProbes, shape map[string]float64) map[string]float64 {
	a := &t.acc
	progs := float64(a.programs)
	per := func(ns int64) float64 { return float64(ns) / progs / 1e6 }
	v := map[string]float64{
		"minic.compile_ms":               per(a.compileNs),
		"minic.mir_instrs":               float64(a.instrs) / progs,
		"core.analyze_ms":                per(a.analyzeNs),
		"interp.run_ms":                  per(a.runNs),
		"interp.minstr_per_s":            float64(a.steps) / float64(a.runNs) * 1e3,
		"interp.alloc_mb_per_run":        float64(a.runAlloc) / progs / 1e6,
		"interp.fixed_ms":                p.fixedMs,
		"interp.steps_per_op":            float64(a.steps) / float64(a.ops),
		"interp.events_alloc_mb_per_run": float64(a.eventsAlloc) / progs / 1e6,
		"dynpred.alloc_kb_per_replay":    float64(a.dynAlloc) / float64(a.dynReplays) / 1024,
		"trace.sequences_ms":             per(a.seqNs),
		"orders.sweep_ms":                p.sweepMs,
		"orders.subsets_ms":              p.subsetsMs,
		"service.predict_warm_us":        float64(a.warmNs) / float64(a.warmHits) / 1e3,
		"service.alloc_kb_per_warm_hit":  float64(a.warmAlloc) / float64(a.warmHits) / 1024,
		"service.self_ms":                per(a.selfNs),
		"blserve.http_self_us":           p.httpSelfUs,
		"blserve.resp_kb":                p.resp,
		"cluster.proxy_self_us":          p.proxySelfUs,
	}
	for name, ns := range a.dynNs {
		v["dynpred."+name+".ns_per_event"] = float64(ns) / float64(a.events)
	}
	for k, x := range shape {
		v[k] = x
	}
	return v
}

// writeSpans writes the run's spans as one JSON document.
func (t *layerTracer) writeSpans(path, workload string, seed int64) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

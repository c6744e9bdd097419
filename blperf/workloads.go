package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"sync"

	"ballarus/internal/eval"
	"ballarus/internal/suite"
)

// workload is one traffic mix. Serving workloads send their ops through
// the gateway from two closed-loop clients; paper-repro runs its ops
// in-process, one at a time.
type workload struct {
	name    string
	serving bool
	// prepare runs once per set-up, after the stack is healthy. It warms
	// whatever the workload needs warm, checks those answers against the
	// golden, and returns the op streams.
	prepare func(ctx context.Context, e *env, s *stack) (opSource, error)
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json records why
// each exists.
var workloads = []*workload{
	{name: "cold-suite", serving: true, prepare: prepareColdSuite},
	{name: "fresh-small", serving: true, prepare: prepareFreshSmall},
	{name: "warm-mix", serving: true, prepare: prepareWarmMix},
	{name: "paper-repro", prepare: preparePaperRepro},
}

func lookupWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// op is one timed unit of work: do runs it and verifies the answer.
type op struct {
	do func(ctx context.Context) error
	// replay lists the predict inputs a traced run pushes through the
	// layers after this op.
	replay []request
}

// opSource makes one client's deterministic op stream. hc is the
// client's own HTTP client (nil for in-process workloads).
type opSource func(client int, hc *http.Client) func() op

// request is one predict input, in /v1/predict's JSON shape.
type request struct {
	Source        string `json:"source,omitempty"`
	Benchmark     string `json:"benchmark,omitempty"`
	Dataset       int    `json:"dataset,omitempty"`
	Seed          int64  `json:"seed,omitempty"`
	IncludeOutput bool   `json:"include_output,omitempty"`
}

// name identifies the request in error messages.
func (r request) name() string {
	if r.Benchmark == "" {
		return "a generated program"
	}
	return fmt.Sprintf("%s/%d under seed %d", r.Benchmark, r.Dataset, r.Seed)
}

func (r request) body() []byte {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a struct of strings and integers always marshals
	}
	return b
}

// clientRand is a client's generator: the workload seed draws every
// random choice, and clients draw independent streams from it.
func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(client) + 1))
}

// deck deals 0..n-1 in shuffled rounds, so any window of ops holds every
// item in near-equal proportion whatever the seed. Uniform independent
// draws would let the seed move the op mix, and with it every number.
type deck struct {
	r     *rand.Rand
	order []int
	pos   int
}

func newDeck(r *rand.Rand, n int) *deck {
	d := &deck{r: r, order: make([]int, n), pos: n}
	for i := range d.order {
		d.order[i] = i
	}
	return d
}

func (d *deck) next() int {
	if d.pos == len(d.order) {
		d.r.Shuffle(len(d.order), func(i, j int) { d.order[i], d.order[j] = d.order[j], d.order[i] })
		d.pos = 0
	}
	d.pos++
	return d.order[d.pos-1]
}

// onReplicas runs each replica's share of set-up requests, the replicas
// in parallel and each share in order, and returns the first error.
func onReplicas(s *stack, work [][]func(url string) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(work))
	for i := range work {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, f := range work[i] {
				if errs[i] = f(s.replicas[i].url()); errs[i] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// prepareColdSuite: each op predicts one (benchmark, dataset) pair under
// a fresh interpreter seed, so the run cache always misses while the
// program and analysis caches hit, and interpretation is nearly all of
// the work.
func prepareColdSuite(ctx context.Context, e *env, s *stack) (opSource, error) {
	type pair struct {
		b  *suite.Benchmark
		ds int
	}
	var pairs []pair
	for _, b := range suite.All() {
		for ds := range b.Data {
			pairs = append(pairs, pair{b, ds})
		}
	}
	// Warm both replicas' program and analysis caches and re-check every
	// pair's golden under a random seed: dataset 0 goes to both replicas,
	// the other datasets alternate between them.
	r := rand.New(rand.NewSource(e.seed))
	work := make([][]func(string) error, len(s.replicas))
	for _, p := range pairs {
		req := request{Benchmark: p.b.Name, Dataset: p.ds, Seed: r.Int63()}
		want := e.golden.Suite[p.b.Name][p.ds]
		check := func(url string) error {
			body, err := post(ctx, s.hc, url+"/v1/predict", req.body())
			if err == nil {
				err = checkSuite(body, want)
			}
			if err != nil {
				return fmt.Errorf("%s: %w", req.name(), err)
			}
			return nil
		}
		for i := range work {
			if p.ds == 0 || p.ds%len(work) == i {
				work[i] = append(work[i], check)
			}
		}
	}
	if err := onReplicas(s, work); err != nil {
		return nil, fmt.Errorf("cold-suite set-up: %w", err)
	}
	return func(client int, hc *http.Client) func() op {
		r := clientRand(e.seed, client)
		d := newDeck(r, len(pairs))
		return func() op {
			p := pairs[d.next()]
			req := request{Benchmark: p.b.Name, Dataset: p.ds, Seed: r.Int63()}
			want := e.golden.Suite[p.b.Name][p.ds]
			body := req.body()
			return op{
				do: func(ctx context.Context) error {
					b, err := post(ctx, hc, s.gate.url()+"/v1/predict", body)
					if err != nil {
						return err
					}
					return checkSuite(b, want)
				},
				replay: []request{req},
			}
		}
	}, nil
}

// prepareFreshSmall: each op predicts a generated program with a fresh
// nonce spliced in, so every cache misses and compile, analysis, and the
// interpreter's fixed per-run cost carry the load.
func prepareFreshSmall(ctx context.Context, e *env, s *stack) (opSource, error) {
	pool, digest, err := buildPool(e.seed)
	if err != nil {
		return nil, err
	}
	if e.seed == defaultSeed && digest != e.golden.PoolDigest {
		return nil, fmt.Errorf("fresh-small pool digest %s, golden %s: the generator changed; rerun with -update-golden", digest, e.golden.PoolDigest)
	}
	return func(client int, hc *http.Client) func() op {
		r := clientRand(e.seed, client)
		d := newDeck(r, len(pool))
		return func() op {
			p := &pool[d.next()]
			nonce := 1 + r.Int63n(1<<30)
			req := request{Source: p.source(nonce), IncludeOutput: true}
			body := req.body()
			return op{
				do: func(ctx context.Context) error {
					b, err := post(ctx, hc, s.gate.url()+"/v1/predict", body)
					if err != nil {
						return err
					}
					return checkFresh(b, p, nonce)
				},
				replay: []request{req},
			}
		}
	}, nil
}

// prepareWarmMix: predict and compare, 4:1, over every benchmark's
// default dataset, with every cache filled at set-up. The interpreter
// does nothing; proxying, HTTP, JSON, and cache lookups are the work.
func prepareWarmMix(ctx context.Context, e *env, s *stack) (opSource, error) {
	type item struct {
		path  string
		body  []byte
		check func([]byte) error
		req   request
	}
	var items []item
	work := make([][]func(string) error, len(s.replicas))
	for _, b := range suite.All() {
		req := request{Benchmark: b.Name}
		run := e.golden.Suite[b.Name][0]
		cmp := e.golden.Compare[b.Name]
		predict := item{"/v1/predict", req.body(), func(body []byte) error { return checkSuite(body, run) }, req}
		compare := item{"/v1/compare", req.body(), func(body []byte) error { return checkCompare(body, run, cmp) }, req}
		items = append(items, predict, predict, predict, predict, compare)
		for i := range work {
			for _, it := range []item{predict, compare} {
				work[i] = append(work[i], func(url string) error {
					body, err := post(ctx, s.hc, url+it.path, it.body)
					if err == nil {
						err = it.check(body)
					}
					if err != nil {
						return fmt.Errorf("%s %s: %w", it.path, b.Name, err)
					}
					return nil
				})
			}
		}
	}
	if err := onReplicas(s, work); err != nil {
		return nil, fmt.Errorf("warm-mix set-up: %w", err)
	}
	return func(client int, hc *http.Client) func() op {
		d := newDeck(clientRand(e.seed, client), len(items))
		return func() op {
			it := items[d.next()]
			return op{
				do: func(ctx context.Context) error {
					b, err := post(ctx, hc, s.gate.url()+it.path, it.body)
					if err != nil {
						return err
					}
					return it.check(b)
				},
				replay: []request{it.req},
			}
		}
	}, nil
}

// preparePaperRepro: each op regenerates the paper's tables and graphs
// with a fresh evaluator, and the rendered text must hash to the golden.
// Set-up is one such regeneration, which also warms the process.
func preparePaperRepro(ctx context.Context, e *env, _ *stack) (opSource, error) {
	check := func() error {
		text, err := renderPaper()
		if err != nil {
			return err
		}
		if got := sha256Hex(text); got != e.golden.PaperSHA256 {
			return fmt.Errorf("paper text hashes to %s, golden %s", got, e.golden.PaperSHA256)
		}
		return nil
	}
	if err := check(); err != nil {
		return nil, fmt.Errorf("paper-repro set-up: %w", err)
	}
	// A regeneration reads every benchmark's default dataset.
	var inputs []request
	for _, b := range suite.All() {
		inputs = append(inputs, request{Benchmark: b.Name})
	}
	return func(int, *http.Client) func() op {
		return func() op {
			return op{do: func(context.Context) error { return check() }, replay: inputs}
		}
	}, nil
}

// renderPaper renders Tables 1-7 (Table 4 over 5000 sampled trials),
// Graph 1, Graphs 4-11, Graph 13, and the static-vs-dynamic table from
// one fresh evaluator.
func renderPaper() (string, error) {
	e := eval.New()
	var b strings.Builder
	for _, table := range []func() (string, error){
		e.Table1, e.Table2, e.Table3, func() (string, error) { return e.Table4(5000) },
		e.Table5, e.Table6, e.Table7,
	} {
		s, err := table()
		if err != nil {
			return "", err
		}
		b.WriteString(s)
	}
	graphs := []func() (*eval.Graph, error){e.Graph1}
	for n := 4; n <= 11; n++ {
		graphs = append(graphs, func() (*eval.Graph, error) { return e.GraphSeq(n) })
	}
	graphs = append(graphs, e.Graph13)
	for _, graph := range graphs {
		g, err := graph()
		if err != nil {
			return "", err
		}
		b.WriteString(g.TSV())
	}
	s, err := e.DynPredTable()
	if err != nil {
		return "", err
	}
	b.WriteString(s)
	return b.String(), nil
}

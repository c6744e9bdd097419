package obs

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// goldenRegistry builds a registry exercising every metric kind plus
// the escaping rules.
func goldenRegistry() *Registry {
	r := NewRegistry()
	r.Counter("test_requests_total", "Requests by outcome.", "outcome", "ok").Add(3)
	r.Counter("test_requests_total", "Requests by outcome.", "outcome", "error").Add(1)
	r.Counter("test_evil_total", `Help with a backslash \ and
newline.`, "path", `quote " slash \ and
newline`).Inc()
	r.Gauge("test_in_flight", "Requests currently running.").Set(2)
	r.GaugeFunc("test_ratio", "A computed ratio.", func() float64 { return 0.25 })
	h := r.Histogram("test_latency_seconds", "Stage latency.", []float64{0.001, 0.01, 0.1}, "stage", "compile")
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(0.005)
	h.Observe(5)
	return r
}

func TestWritePrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (rerun with UPDATE_GOLDEN=1 to regenerate): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("exposition mismatch\n-- got --\n%s\n-- want --\n%s", buf.Bytes(), want)
	}
}

func TestGoldenRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if problems := Lint(bytes.NewReader(buf.Bytes())); len(problems) > 0 {
		t.Fatalf("lint problems on own output: %v", problems)
	}
	e, err := ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := e.Value("test_requests_total", map[string]string{"outcome": "ok"}); !ok || v != 3 {
		t.Errorf("test_requests_total{outcome=ok} = %v, %v; want 3, true", v, ok)
	}
	var sum float64
	for _, s := range e.Samples {
		if s.Name == "test_requests_total" {
			sum += s.Value
		}
	}
	if sum != 4 {
		t.Errorf("test_requests_total sums to %v over its label sets, want 4", sum)
	}
	// Label escaping must survive the round trip.
	want := "quote \" slash \\ and\nnewline"
	if _, ok := e.Value("test_evil_total", map[string]string{"path": want}); !ok {
		t.Errorf("escaped label value did not round-trip; samples: %+v", e.Samples)
	}
	// Histogram shape: cumulative buckets, +Inf == _count.
	if v, ok := e.Value("test_latency_seconds_bucket", map[string]string{"stage": "compile", "le": "+Inf"}); !ok || v != 4 {
		t.Errorf("+Inf bucket = %v, %v; want 4", v, ok)
	}
	if v, ok := e.Value("test_latency_seconds_count", map[string]string{"stage": "compile"}); !ok || v != 4 {
		t.Errorf("_count = %v, %v; want 4", v, ok)
	}
}

func TestHistogramBucketMonotonicity(t *testing.T) {
	h := newHistogram([]float64{0.01, 0.001, 0.1}) // deliberately unsorted
	for _, v := range []float64{0.0001, 0.002, 0.002, 0.05, 0.5, math.Inf(1)} {
		h.Observe(v)
	}
	var b strings.Builder
	h.write(&b, "m", nil, nil)
	var last float64 = -1
	e, err := ParseExposition(strings.NewReader("# HELP m x\n# TYPE m histogram\n" + b.String()))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, le := range []string{"0.001", "0.01", "0.1", "+Inf"} {
		v, ok := e.Value("m_bucket", map[string]string{"le": le})
		if !ok {
			t.Fatalf("missing bucket le=%s", le)
		}
		if v < last {
			t.Errorf("bucket le=%s count %v below previous %v", le, v, last)
		}
		last = v
		n++
	}
	if last != 6 {
		t.Errorf("+Inf bucket %v, want 6 observations", last)
	}
	if v, _ := e.Value("m_count", nil); v != 6 {
		t.Errorf("m_count = %v, want 6", v)
	}
	_ = n
}

func TestRegistryIdempotentAndConcurrent(t *testing.T) {
	r := NewRegistry()
	c1 := r.Counter("x_total", "x", "k", "v")
	c2 := r.Counter("x_total", "x", "k", "v")
	if c1 != c2 {
		t.Fatal("re-registration returned a different counter")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("x_total", "x", "k", "v").Inc()
				r.Histogram("h_seconds", "h", DurationBuckets).ObserveDuration(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if got := c1.Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if problems := Lint(&buf); len(problems) > 0 {
		t.Errorf("lint: %v", problems)
	}
}

func TestNilMetricsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	c.Inc()
	c.Add(5)
	g.Add(1)
	g.Set(2)
	h.Observe(1)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil metrics should read zero")
	}
}

func TestLintCatchesBrokenExpositions(t *testing.T) {
	cases := map[string]string{
		"missing help": "# TYPE a_total counter\na_total 1\n",
		"missing type": "# HELP a_total x\na_total 1\n",
		"bad name":     "# HELP 9bad x\n# TYPE 9bad counter\n9bad 1\n",
		"dup series":   "# HELP a_total x\n# TYPE a_total counter\na_total 1\na_total 2\n",
		"neg counter":  "# HELP a_total x\n# TYPE a_total counter\na_total -1\n",
		"no inf bucket": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"non-monotone": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"count mismatch": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 4\n",
	}
	for name, text := range cases {
		if problems := Lint(strings.NewReader(text)); len(problems) == 0 {
			t.Errorf("%s: lint found no problems in %q", name, text)
		}
	}
	clean := "# HELP a_total x\n# TYPE a_total counter\na_total{k=\"v\"} 1\na_total{k=\"w\"} 2\n"
	if problems := Lint(strings.NewReader(clean)); len(problems) != 0 {
		t.Errorf("clean exposition flagged: %v", problems)
	}
}

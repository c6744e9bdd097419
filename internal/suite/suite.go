// Package suite contains the 23 benchmark programs of the reproduction,
// written in minic. Each is an analogue of one benchmark from the paper's
// Table 1, built to exercise the same branch population the paper
// describes for it: the pointer-chasing interpreters and compilers, the
// text utilities dominated by a handful of hot non-loop branches, and the
// Fortran-style floating-point kernels (including the tomcatv array-max
// idiom that defeats the Guard heuristic and is rescued by Store).
//
// Programs read their parameters (sizes, seeds) and any text from the
// dataset input stream, so every benchmark ships multiple datasets for the
// Section 7 cross-dataset experiment.
package suite

import (
	"fmt"
	"sort"
	"sync"

	"ballarus/internal/minic"
	"ballarus/internal/mir"
)

// Dataset is one input for a benchmark.
type Dataset struct {
	Name  string
	Input []int64
}

// Benchmark is one suite program. Datasets[0] is the default dataset used
// by the paper-table reproductions; the rest feed Graph 13.
type Benchmark struct {
	Name   string
	Desc   string // paper Table 1 description of the analogue's original
	FP     bool   // floating-point group (the paper's second block)
	Traced bool   // included in the Section 6 trace experiments
	Budget int64  // instruction budget per run
	Source string
	Data   []Dataset

	// Compile() memoizes per benchmark, so distinct benchmarks compile
	// in parallel while concurrent callers of the same one share a
	// single compilation.
	compileOnce sync.Once
	compiled    *mir.Program
	compileErr  error
}

var (
	registry []*Benchmark
	byName   = map[string]*Benchmark{}
)

func register(b *Benchmark) {
	if _, dup := byName[b.Name]; dup {
		panic("suite: duplicate benchmark " + b.Name)
	}
	if b.Budget == 0 {
		b.Budget = 16 << 20
	}
	registry = append(registry, b)
	byName[b.Name] = b
}

// All returns every benchmark, integer group first (paper Table 1 order:
// grouped by floating-point usage).
func All() []*Benchmark {
	out := append([]*Benchmark(nil), registry...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].FP != out[j].FP {
			return !out[i].FP
		}
		return false // keep registration order within groups
	})
	return out
}

// Names returns every benchmark name in All() order.
func Names() []string {
	var out []string
	for _, b := range All() {
		out = append(out, b.Name)
	}
	return out
}

// Get returns the named benchmark or nil.
func Get(name string) *Benchmark { return byName[name] }

// Compile compiles the benchmark (cached) with default options.
func (b *Benchmark) Compile() (*mir.Program, error) {
	b.compileOnce.Do(func() {
		p, err := minic.Compile(b.Source, minic.Options{})
		if err != nil {
			b.compileErr = fmt.Errorf("suite: %s: %w", b.Name, err)
			return
		}
		b.compiled = p
	})
	return b.compiled, b.compileErr
}

// text converts a string to an input stream of character codes.
func text(s string) []int64 {
	out := make([]int64, len(s))
	for i := 0; i < len(s); i++ {
		out[i] = int64(s[i])
	}
	return out
}

// nums builds an input stream from integers.
func nums(vs ...int64) []int64 { return vs }

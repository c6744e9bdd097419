package interp

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"ballarus/internal/minic"
	"ballarus/internal/mir"
)

// closed is an Interrupt channel that has already fired.
var closed = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// dirtyRun is a program that writes a region of memory and ends in one of
// the ways a run can return.
type dirtyRun struct {
	name    string
	src     string
	cfg     Config
	wantErr string // "" when the run must succeed
}

// dirtyRuns write every region a run can reach: the data, a large heap, a
// deep stack, builtin argument slots below SP and wild addresses between
// heap and stack, ending in a halt, a fault, an exhausted budget or an
// interrupt.
var dirtyRuns = []dirtyRun{
	{name: "globals", src: `
int g[512];
int main() {
	int i;
	for (i = 0; i < 512; i++) { g[i] = i + 1; }
	prints("data words");
	return g[511];
}`},
	{name: "heap", src: `
int main() {
	int n = 1500000;
	int *p = alloc(n);
	int i;
	for (i = 0; i < n; i += 1009) { p[i] = i + 1; }
	p[n - 1] = 7;
	return p[n - 1];
}`},
	{name: "deep-stack", src: `
int f(int n) {
	int a[4];
	a[n % 4] = n;
	if (n == 0) { return 0; }
	return f(n - 1) + a[n % 4];
}
int main() { return f(30000) % 256; }`},
	{name: "builtin-args", src: `
int main() {
	printi(123456789);
	printc(10);
	printfl(2.5);
	srand(42);
	printi(rand());
	exit(3);
	return 0;
}`},
	{name: "wild", src: `
int main() {
	int *w = (int*)1000000;
	float *f = (float*)1500000;
	*w = 5;
	w = (int*)40;
	*w = 6;
	*f = 2.5;
	return *w;
}`},
	{name: "fault", src: `
int g[8];
int main() {
	int *p = alloc(64);
	int *w = (int*)1200000;
	p[63] = 1;
	g[7] = 2;
	*w = 3;
	w = (int*)(0 - 1);
	return *w;
}`, wantErr: "out of range"},
	{name: "collision", src: `
int f(int n) {
	int a[64];
	a[n % 64] = n;
	return f(n + 1) + a[n % 64];
}
int main() {
	int *p = alloc(2000000);
	p[1999999] = 1;
	return f(0);
}`, wantErr: "collides with heap"},
	{name: "alloc-overflow", src: `
int main() {
	int *p = alloc(1000);
	int *w = (int*)1800000;
	p[999] = 1;
	*w = 2;
	alloc(9223372036854775807);
	return 0;
}`, wantErr: "out of memory"},
	{name: "budget", src: `
int id(int x) { return x; }
int main() {
	int *p = alloc(4096);
	int i = 0;
	while (1) { p[i % 4096] = id(i); i++; }
	return 0;
}`, cfg: Config{Budget: 200000}, wantErr: ErrBudget.Error()},
	{name: "interrupt", src: `
int id(int x) { return x; }
int main() {
	int *p = alloc(4096);
	int *w = (int*)900000;
	int i = 0;
	while (1) { p[i % 4096] = id(i); *w = i; i++; }
	return 0;
}`, cfg: Config{Interrupt: closed}, wantErr: ErrInterrupted.Error()},
}

// sumGapSrc reads memory no run of its own wrote: an uninitialized local
// array on the stack, and the whole gap between heap and stack, which it
// allocates. It prints how many of those words are not zero.
const sumGapSrc = `
int main() {
	int local[4096];
	int n = 2090000;
	int *p;
	int nz = 0;
	int i;
	for (i = 0; i < 4096; i++) { if (local[i] != 0) { nz++; } }
	p = alloc(n);
	for (i = 0; i < n; i++) { if (p[i] != 0) { nz++; } }
	printi(nz);
	return 0;
}`

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func compileT(t testing.TB, src string) *mir.Program {
	t.Helper()
	prog, err := minic.Compile(src, minic.Options{})
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, src)
	}
	return prog
}

func checkRunErr(t *testing.T, name string, err error, want string) {
	t.Helper()
	if want == "" && err != nil || want != "" && (err == nil || !strings.Contains(err.Error(), want)) {
		t.Errorf("%s: err = %v, want %q", name, err, want)
	}
}

// TestClearMemLeavesMemoryZero drives the path a returning run takes
// before its memory is handed back, on a memory the test owns, and
// requires every word to be zero afterwards.
func TestClearMemLeavesMemoryZero(t *testing.T) {
	mem := make([]int64, defaultMemWords)
	for _, d := range dirtyRuns {
		cfg := d.cfg
		if cfg.Budget == 0 {
			cfg.Budget = 64 << 20
		}
		_, zeroed, err := execute(compileT(t, d.src), cfg, mem)
		checkRunErr(t, d.name, err, d.wantErr)
		if !zeroed {
			t.Errorf("%s: a returning run reported its memory dirty", d.name)
		}
		if i := slices.IndexFunc(mem, func(w int64) bool { return w != 0 }); i >= 0 {
			t.Errorf("%s: word %d is %d after the run cleared its memory", d.name, i, mem[i])
			clear(mem)
		}
	}
}

// TestClearMemDataLongerThanMemory: a program whose data does not fit
// faults on its first stack move, and clearing still stays in bounds.
func TestClearMemDataLongerThanMemory(t *testing.T) {
	prog := &mir.Program{
		Data: make([]int64, 40),
		Procs: []*mir.Proc{{Name: "main", Code: []mir.Instr{
			{Op: mir.Addi, Rd: mir.SP, Rs: mir.SP, Imm: -1},
			{Op: mir.Halt},
		}}},
	}
	prog.Data[39] = 9
	mem := make([]int64, 32)
	_, zeroed, err := execute(prog, Config{Budget: 10}, mem)
	if err == nil || !zeroed || slices.ContainsFunc(mem, func(w int64) bool { return w != 0 }) {
		t.Errorf("err = %v, zeroed = %v, mem = %v", err, zeroed, mem)
	}
}

// panicSrc writes the heap, a wild address and an argument slot before
// its first branch, where a panicking event consumer stops it.
const panicSrc = `
int main() {
	int *p = alloc(100000);
	int *w = (int*)1000000;
	int i;
	p[99999] = 1;
	*w = 2;
	for (i = 0; i < 3; i++) { p[i] = i + 1; }
	return 0;
}`

// TestRunSeesZeroMemory dirties memory through the public API and then
// has a program read the stack and the whole gap between heap and stack:
// every word must be zero, after runs that returned and after one that
// panicked having written.
func TestRunSeesZeroMemory(t *testing.T) {
	sumGap := compileT(t, sumGapSrc)
	checkZero := func(after string) {
		t.Helper()
		res, err := Run(sumGap, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Output != "0" {
			t.Errorf("after %s: %s words of fresh memory are not zero", after, res.Output)
		}
	}
	for _, d := range dirtyRuns {
		_, err := Run(compileT(t, d.src), d.cfg)
		checkRunErr(t, d.name, err, d.wantErr)
	}
	checkZero("the dirty runs")
	panicky := Config{OnEvent: func(Event) { panic("consumer bug") }}
	if _, err := Run(compileT(t, panicSrc), panicky); err == nil {
		t.Fatal("panicking consumer: want an error")
	}
	checkZero("a panicked run")
}

// TestConcurrentRunsMatchSerial runs every program from more goroutines
// than memories are held, and requires each result to equal the serial
// one.
func TestConcurrentRunsMatchSerial(t *testing.T) {
	runs := append(slices.Clone(dirtyRuns), dirtyRun{name: "sum-gap", src: sumGapSrc})
	progs := make([]*mir.Program, len(runs))
	want := make([]*Result, len(runs))
	wantErr := make([]error, len(runs))
	for i, d := range runs {
		progs[i] = compileT(t, d.src)
		want[i], wantErr[i] = Run(progs[i], d.cfg)
	}
	var wg sync.WaitGroup
	for g := 0; g < runtime.GOMAXPROCS(0)+2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range runs {
				i := (g + k) % len(runs)
				res, err := Run(progs[i], runs[i].cfg)
				if errString(err) != errString(wantErr[i]) {
					t.Errorf("%s: err %v, serial %v", runs[i].name, err, wantErr[i])
				}
				if !reflect.DeepEqual(res, want[i]) {
					t.Errorf("%s: concurrent result differs from serial", runs[i].name)
				}
			}
		}(g)
	}
	wg.Wait()
}

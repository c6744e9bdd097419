package interp

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ballarus/internal/mir"
)

// run1 executes a single-procedure program and returns the result.
func run1(t *testing.T, code []mir.Instr, nIRegs, nFRegs int, cfg Config) (*Result, error) {
	t.Helper()
	prog := &mir.Program{
		Procs: []*mir.Proc{{Name: "main", NIRegs: nIRegs, NFRegs: nFRegs, Code: code}},
	}
	if err := prog.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	return Run(prog, cfg)
}

// aluProgram computes `a op b` into RV and halts.
func aluProgram(op mir.Op, a, b int64) []mir.Instr {
	return []mir.Instr{
		{Op: mir.Li, Rd: mir.Int(0), Imm: a},
		{Op: mir.Li, Rd: mir.Int(1), Imm: b},
		{Op: op, Rd: mir.Int(2), Rs: mir.Int(0), Rt: mir.Int(1)},
		{Op: mir.Move, Rd: mir.RV, Rs: mir.Int(2)},
		{Op: mir.Halt},
	}
}

// TestALUAgainstGo is a property test: every integer ALU op must agree
// with the corresponding Go expression on random operands.
func TestALUAgainstGo(t *testing.T) {
	specs := []struct {
		op mir.Op
		f  func(a, b int64) int64
	}{
		{mir.Add, func(a, b int64) int64 { return a + b }},
		{mir.Sub, func(a, b int64) int64 { return a - b }},
		{mir.Mul, func(a, b int64) int64 { return a * b }},
		{mir.And, func(a, b int64) int64 { return a & b }},
		{mir.Or, func(a, b int64) int64 { return a | b }},
		{mir.Xor, func(a, b int64) int64 { return a ^ b }},
		{mir.Slt, func(a, b int64) int64 { return b2i(a < b) }},
		{mir.Sle, func(a, b int64) int64 { return b2i(a <= b) }},
		{mir.Seq, func(a, b int64) int64 { return b2i(a == b) }},
		{mir.Sne, func(a, b int64) int64 { return b2i(a != b) }},
		{mir.Sll, func(a, b int64) int64 { return a << (uint64(b) & 63) }},
		{mir.Srl, func(a, b int64) int64 { return int64(uint64(a) >> (uint64(b) & 63)) }},
		{mir.Sra, func(a, b int64) int64 { return a >> (uint64(b) & 63) }},
	}
	for _, spec := range specs {
		spec := spec
		f := func(a, b int64) bool {
			res, err := run1(t, aluProgram(spec.op, a, b), 3, 0, Config{})
			if err != nil {
				return false
			}
			return res.ExitCode == spec.f(a, b)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("%s: %v", spec.op, err)
		}
	}
}

func TestDivRemAgainstGo(t *testing.T) {
	f := func(a, b int64) bool {
		if b == 0 {
			return true
		}
		res, err := run1(t, aluProgram(mir.Div, a, b), 3, 0, Config{})
		if err != nil || res.ExitCode != a/b {
			return false
		}
		res, err = run1(t, aluProgram(mir.Rem, a, b), 3, 0, Config{})
		return err == nil && res.ExitCode == a%b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestDivisionByZeroFaults(t *testing.T) {
	for _, op := range []mir.Op{mir.Div, mir.Rem} {
		_, err := run1(t, aluProgram(op, 5, 0), 3, 0, Config{})
		if err == nil || !strings.Contains(err.Error(), "zero") {
			t.Errorf("%s by zero: got %v", op, err)
		}
	}
}

func TestMemoryOutOfRangeFaults(t *testing.T) {
	code := []mir.Instr{
		{Op: mir.Li, Rd: mir.Int(0), Imm: -5},
		{Op: mir.Lw, Rd: mir.Int(1), Rs: mir.Int(0)},
		{Op: mir.Halt},
	}
	_, err := run1(t, code, 2, 0, Config{})
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("got %v", err)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	code := []mir.Instr{
		{Op: mir.J, Target: 0},
	}
	res, err := run1(t, code, 0, 0, Config{Budget: 1000})
	if err != ErrBudget {
		t.Errorf("got %v, want ErrBudget", err)
	}
	if res.Steps < 1000 {
		t.Errorf("steps %d before budget stop", res.Steps)
	}
}

func TestStackHeapCollision(t *testing.T) {
	// Drop SP below the heap pointer.
	code := []mir.Instr{
		{Op: mir.Addi, Rd: mir.SP, Rs: mir.SP, Imm: -1 << 22},
		{Op: mir.Halt},
	}
	_, err := run1(t, code, 0, 0, Config{MemWords: 1 << 21})
	if err == nil || !strings.Contains(err.Error(), "stack") {
		t.Errorf("got %v", err)
	}
}

func TestFloatOps(t *testing.T) {
	code := []mir.Instr{
		{Op: mir.FLi, Rd: mir.Float(0), FImm: 2.5},
		{Op: mir.FLi, Rd: mir.Float(1), FImm: 4.0},
		{Op: mir.FMul, Rd: mir.Float(2), Rs: mir.Float(0), Rt: mir.Float(1)},
		{Op: mir.FSw, Rs: mir.GP, Rt: mir.Float(2), Imm: 0},
		{Op: mir.FLw, Rd: mir.Float(3), Rs: mir.GP, Imm: 0},
		{Op: mir.CvtFI, Rd: mir.RV, Rs: mir.Float(3)},
		{Op: mir.Halt},
	}
	res, err := run1(t, code, 0, 4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 10 {
		t.Errorf("2.5*4.0 round-tripped through memory = %d, want 10", res.ExitCode)
	}
}

func TestBranchProfileAndEvents(t *testing.T) {
	// Loop 5 times: bottom test bne counts 4 taken, 1 fall.
	code := []mir.Instr{
		{Op: mir.Li, Rd: mir.Int(0), Imm: 5},
		{Op: mir.Addi, Rd: mir.Int(0), Rs: mir.Int(0), Imm: -1}, // 1: body
		{Op: mir.Bne, Rs: mir.Int(0), Rt: mir.R0, Target: 1},
		{Op: mir.Halt},
	}
	res, err := run1(t, code, 1, 0, Config{CollectEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Profile.Set.Len() != 1 {
		t.Fatalf("%d branches indexed", res.Profile.Set.Len())
	}
	if res.Profile.Taken[0] != 4 || res.Profile.Fall[0] != 1 {
		t.Errorf("profile taken=%d fall=%d, want 4/1", res.Profile.Taken[0], res.Profile.Fall[0])
	}
	if len(res.Events) != 5 {
		t.Fatalf("%d events, want 5", len(res.Events))
	}
	// Event deltas plus the tail must account for every instruction.
	var sum int64
	taken := 0
	for _, ev := range res.Events {
		sum += int64(ev.Delta)
		if ev.Kind != EvBranch || ev.Branch != 0 {
			t.Errorf("unexpected event %+v", ev)
		}
		if ev.Taken {
			taken++
		}
	}
	if taken != 4 {
		t.Errorf("%d taken events, want 4", taken)
	}
	if sum+res.TailLen != res.Steps {
		t.Errorf("delta sum %d + tail %d != steps %d", sum, res.TailLen, res.Steps)
	}
}

func TestJumpTableAndIndirectEvents(t *testing.T) {
	code := []mir.Instr{
		{Op: mir.Li, Rd: mir.Int(0), Imm: 1},
		{Op: mir.Jtab, Rs: mir.Int(0), Table: []int{3, 2, 3}},
		{Op: mir.Li, Rd: mir.RV, Imm: 42}, // selected by index 1
		{Op: mir.Halt},
	}
	res, err := run1(t, code, 1, 0, Config{CollectEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 42 {
		t.Errorf("exit %d, want 42", res.ExitCode)
	}
	if len(res.Events) != 1 || res.Events[0].Kind != EvIndirect {
		t.Errorf("events %+v, want one indirect", res.Events)
	}
	// Out-of-range table index faults.
	code[0].Imm = 9
	if _, err := run1(t, code, 1, 0, Config{}); err == nil {
		t.Error("out-of-range jump table index should fault")
	}
}

func TestCallsAndFrames(t *testing.T) {
	// proc1 doubles its argument; main calls it twice (nested frames via
	// recursion are covered by minic tests; this covers raw jal/jr).
	double := &mir.Proc{Name: "double", NArgs: 1, NIRegs: 1, Code: []mir.Instr{
		{Op: mir.Addi, Rd: mir.SP, Rs: mir.SP, Imm: -2},
		{Op: mir.Sw, Rs: mir.SP, Rt: mir.RA, Imm: 0},
		{Op: mir.Lw, Rd: mir.Int(0), Rs: mir.SP, Imm: 1},
		{Op: mir.Add, Rd: mir.Int(0), Rs: mir.Int(0), Rt: mir.Int(0)},
		{Op: mir.Move, Rd: mir.RV, Rs: mir.Int(0)},
		{Op: mir.Lw, Rd: mir.RA, Rs: mir.SP, Imm: 0},
		{Op: mir.Addi, Rd: mir.SP, Rs: mir.SP, Imm: 2},
		{Op: mir.Jr, Rs: mir.RA},
	}}
	main := &mir.Proc{Name: "main", NIRegs: 1, Code: []mir.Instr{
		{Op: mir.Li, Rd: mir.Int(0), Imm: 21},
		{Op: mir.Sw, Rs: mir.SP, Rt: mir.Int(0), Imm: -1},
		{Op: mir.Jal, Callee: 1},
		{Op: mir.Sw, Rs: mir.SP, Rt: mir.RV, Imm: -1},
		{Op: mir.Jal, Callee: 1},
		{Op: mir.Halt},
	}}
	prog := &mir.Program{Procs: []*mir.Proc{main, double}}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 84 {
		t.Errorf("double(double(21)) = %d, want 84", res.ExitCode)
	}
}

// TestNewFrameRegistersAreZero: a callee's registers start at zero even
// where a returned frame left values in the arena.
func TestNewFrameRegistersAreZero(t *testing.T) {
	set := &mir.Proc{Name: "set", NIRegs: 2, NFRegs: 1, Code: []mir.Instr{
		{Op: mir.Li, Rd: mir.Int(0), Imm: 7},
		{Op: mir.Li, Rd: mir.Int(1), Imm: 8},
		{Op: mir.FLi, Rd: mir.Float(0), FImm: 2.5},
		{Op: mir.Jr, Rs: mir.RA},
	}}
	get := &mir.Proc{Name: "get", NIRegs: 2, NFRegs: 1, Code: []mir.Instr{
		{Op: mir.Add, Rd: mir.RV, Rs: mir.Int(0), Rt: mir.Int(1)},
		{Op: mir.CvtFI, Rd: mir.Int(0), Rs: mir.Float(0)},
		{Op: mir.Add, Rd: mir.RV, Rs: mir.RV, Rt: mir.Int(0)},
		{Op: mir.Jr, Rs: mir.RA},
	}}
	main := &mir.Proc{Name: "main", Code: []mir.Instr{
		{Op: mir.Jal, Callee: 1},
		{Op: mir.Jal, Callee: 2},
		{Op: mir.Halt},
	}}
	prog := &mir.Program{Procs: []*mir.Proc{main, set, get}}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Errorf("fresh frame read %d from its registers, want 0", res.ExitCode)
	}
}

func TestBuiltins(t *testing.T) {
	// Exercise alloc/printi/printc/prints/readi/rand/srand/exit through
	// raw MIR: store the arg, call, check.
	builtin := func(kind mir.BuiltinKind, nargs int) *mir.Proc {
		return &mir.Proc{Name: kind.String(), Builtin: kind, NArgs: nargs}
	}
	procs := []*mir.Proc{
		nil, // main placeholder
		builtin(mir.BAlloc, 1),
		builtin(mir.BPrintI, 1),
		builtin(mir.BPrintC, 1),
		builtin(mir.BReadI, 0),
		builtin(mir.BRand, 0),
		builtin(mir.BSrand, 1),
		builtin(mir.BExit, 1),
	}
	code := []mir.Instr{
		// v = readi()
		{Op: mir.Jal, Callee: 4},
		{Op: mir.Move, Rd: mir.Int(0), Rs: mir.RV},
		// printi(v)
		{Op: mir.Sw, Rs: mir.SP, Rt: mir.Int(0), Imm: -1},
		{Op: mir.Jal, Callee: 2},
		// printc(' ')
		{Op: mir.Li, Rd: mir.Int(1), Imm: ' '},
		{Op: mir.Sw, Rs: mir.SP, Rt: mir.Int(1), Imm: -1},
		{Op: mir.Jal, Callee: 3},
		// p = alloc(3); printi(p)
		{Op: mir.Li, Rd: mir.Int(1), Imm: 3},
		{Op: mir.Sw, Rs: mir.SP, Rt: mir.Int(1), Imm: -1},
		{Op: mir.Jal, Callee: 1},
		{Op: mir.Sw, Rs: mir.SP, Rt: mir.RV, Imm: -1},
		{Op: mir.Jal, Callee: 2},
		// srand(7); r1 = rand(); r2 = rand(); printi(r1 != r2)
		{Op: mir.Li, Rd: mir.Int(1), Imm: 7},
		{Op: mir.Sw, Rs: mir.SP, Rt: mir.Int(1), Imm: -1},
		{Op: mir.Jal, Callee: 6},
		{Op: mir.Jal, Callee: 5},
		{Op: mir.Move, Rd: mir.Int(1), Rs: mir.RV},
		{Op: mir.Jal, Callee: 5},
		{Op: mir.Sne, Rd: mir.Int(1), Rs: mir.Int(1), Rt: mir.RV},
		{Op: mir.Sw, Rs: mir.SP, Rt: mir.Int(1), Imm: -1},
		{Op: mir.Jal, Callee: 2},
		// exit(9)
		{Op: mir.Li, Rd: mir.Int(1), Imm: 9},
		{Op: mir.Sw, Rs: mir.SP, Rt: mir.Int(1), Imm: -1},
		{Op: mir.Jal, Callee: 7},
		{Op: mir.Halt}, // unreachable
	}
	procs[0] = &mir.Proc{Name: "main", NIRegs: 2, Code: code}
	prog := &mir.Program{Procs: procs}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, Config{Input: []int64{1234}})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 9 {
		t.Errorf("exit code %d, want 9", res.ExitCode)
	}
	// readi -> 1234; alloc with no globals -> address 1; rand twice differs.
	if res.Output != "1234 11" {
		t.Errorf("output %q, want %q", res.Output, "1234 11")
	}
}

func TestReadPastEOF(t *testing.T) {
	prog := &mir.Program{Procs: []*mir.Proc{
		{Name: "main", Code: []mir.Instr{
			{Op: mir.Jal, Callee: 1},
			{Op: mir.Halt},
		}},
		{Name: "readi", Builtin: mir.BReadI},
	}}
	res, err := Run(prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != -1 {
		t.Errorf("readi at EOF = %d, want -1", res.ExitCode)
	}
}

func TestWriteToGPFaults(t *testing.T) {
	code := []mir.Instr{
		{Op: mir.Li, Rd: mir.GP, Imm: 5},
		{Op: mir.Halt},
	}
	_, err := run1(t, code, 0, 0, Config{})
	if err == nil || !strings.Contains(err.Error(), "GP") {
		t.Errorf("got %v", err)
	}
}

func TestR0IsHardwiredZero(t *testing.T) {
	code := []mir.Instr{
		{Op: mir.Li, Rd: mir.R0, Imm: 99},
		{Op: mir.Move, Rd: mir.RV, Rs: mir.R0},
		{Op: mir.Halt},
	}
	res, err := run1(t, code, 0, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Errorf("R0 = %d after write, want 0", res.ExitCode)
	}
}

// TestAllBranchOpcodes drives every conditional branch opcode through
// both directions and checks the decision against Go semantics.
func TestAllBranchOpcodes(t *testing.T) {
	intCases := []struct {
		op    mir.Op
		f     func(a, b int64) bool
		twoOp bool
	}{
		{mir.Beq, func(a, b int64) bool { return a == b }, true},
		{mir.Bne, func(a, b int64) bool { return a != b }, true},
		{mir.Bltz, func(a, _ int64) bool { return a < 0 }, false},
		{mir.Blez, func(a, _ int64) bool { return a <= 0 }, false},
		{mir.Bgtz, func(a, _ int64) bool { return a > 0 }, false},
		{mir.Bgez, func(a, _ int64) bool { return a >= 0 }, false},
	}
	vals := []int64{-5, -1, 0, 1, 5}
	for _, c := range intCases {
		for _, a := range vals {
			for _, b := range vals {
				code := []mir.Instr{
					{Op: mir.Li, Rd: mir.Int(0), Imm: a},
					{Op: mir.Li, Rd: mir.Int(1), Imm: b},
					{Op: c.op, Rs: mir.Int(0), Target: 5},
					{Op: mir.Li, Rd: mir.RV, Imm: 0},
					{Op: mir.Halt},
					{Op: mir.Li, Rd: mir.RV, Imm: 1},
					{Op: mir.Halt},
				}
				if c.twoOp {
					code[2].Rt = mir.Int(1)
				}
				res, err := run1(t, code, 2, 0, Config{})
				if err != nil {
					t.Fatal(err)
				}
				want := int64(0)
				if c.f(a, b) {
					want = 1
				}
				if res.ExitCode != want {
					t.Errorf("%s(%d,%d) branched %d, want %d", c.op, a, b, res.ExitCode, want)
				}
			}
		}
	}
	fCases := []struct {
		op mir.Op
		f  func(a, b float64) bool
	}{
		{mir.FBeq, func(a, b float64) bool { return a == b }},
		{mir.FBne, func(a, b float64) bool { return a != b }},
		{mir.FBlt, func(a, b float64) bool { return a < b }},
		{mir.FBle, func(a, b float64) bool { return a <= b }},
		{mir.FBgt, func(a, b float64) bool { return a > b }},
		{mir.FBge, func(a, b float64) bool { return a >= b }},
	}
	fvals := []float64{-1.5, 0, 2.25}
	for _, c := range fCases {
		for _, a := range fvals {
			for _, b := range fvals {
				code := []mir.Instr{
					{Op: mir.FLi, Rd: mir.Float(0), FImm: a},
					{Op: mir.FLi, Rd: mir.Float(1), FImm: b},
					{Op: c.op, Rs: mir.Float(0), Rt: mir.Float(1), Target: 5},
					{Op: mir.Li, Rd: mir.RV, Imm: 0},
					{Op: mir.Halt},
					{Op: mir.Li, Rd: mir.RV, Imm: 1},
					{Op: mir.Halt},
				}
				res, err := run1(t, code, 0, 2, Config{})
				if err != nil {
					t.Fatal(err)
				}
				want := int64(0)
				if c.f(a, b) {
					want = 1
				}
				if res.ExitCode != want {
					t.Errorf("%s(%g,%g) branched %d, want %d", c.op, a, b, res.ExitCode, want)
				}
			}
		}
	}
}

// TestFloatAndStringBuiltins exercises printfl, prints, and readf.
func TestFloatAndStringBuiltins(t *testing.T) {
	prog := &mir.Program{
		Data: []int64{'h', 'i', 0},
		Procs: []*mir.Proc{
			{Name: "main", NIRegs: 1, NFRegs: 1, Code: []mir.Instr{
				// readf -> frv; printfl(frv)
				{Op: mir.Jal, Callee: 3},
				{Op: mir.FSw, Rs: mir.SP, Rt: mir.FRV, Imm: -1},
				{Op: mir.Jal, Callee: 1},
				// prints(0): the "hi" string at address 0
				{Op: mir.Li, Rd: mir.Int(0), Imm: 0},
				{Op: mir.Sw, Rs: mir.SP, Rt: mir.Int(0), Imm: -1},
				{Op: mir.Jal, Callee: 2},
				{Op: mir.Halt},
			}},
			{Name: "printfl", Builtin: mir.BPrintF, NArgs: 1},
			{Name: "prints", Builtin: mir.BPrintS, NArgs: 1},
			{Name: "readf", Builtin: mir.BReadF},
		},
	}
	if err := prog.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, Config{Input: []int64{7}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != "7hi" {
		t.Errorf("output %q, want %q", res.Output, "7hi")
	}
	// readf past EOF yields 0.
	res2, err := Run(prog, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Output != "0hi" {
		t.Errorf("EOF output %q, want %q", res2.Output, "0hi")
	}
}

// TestFloatConversionsAndMinInt covers CvtIF edge values and the wrapped
// MinInt64 division.
func TestFloatConversionsAndMinInt(t *testing.T) {
	res, err := run1(t, aluProgram(mir.Div, math.MinInt64, -1), 3, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != math.MinInt64 {
		t.Errorf("MinInt64 / -1 = %d, want wraparound to MinInt64", res.ExitCode)
	}
	res, err = run1(t, aluProgram(mir.Rem, math.MinInt64, -1), 3, 0, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 0 {
		t.Errorf("MinInt64 %% -1 = %d, want 0", res.ExitCode)
	}
}

// TestRunRecoversInternalPanic: a malformed program that skipped
// validation (here, a read of a register the frame doesn't have) must
// surface as an error with partial state — the dispatch-loop panic may
// never escape Run.
func TestRunRecoversInternalPanic(t *testing.T) {
	prog := &mir.Program{Procs: []*mir.Proc{{
		Name:   "main",
		NIRegs: 1,
		Code: []mir.Instr{
			{Op: mir.Li, Rd: mir.Int(0), Imm: 7},
			{Op: mir.Add, Rd: mir.Int(0), Rs: mir.Int(99), Rt: mir.Int(0)},
			{Op: mir.Halt},
		},
	}}}
	res, err := Run(prog, Config{})
	if err == nil || !strings.Contains(err.Error(), "internal panic") {
		t.Fatalf("err = %v, want internal panic error", err)
	}
	if res == nil || res.Steps == 0 {
		t.Fatalf("partial result not returned: %+v", res)
	}
}

// Package interp executes MIR programs. It stands in for the paper's QPT
// instrumentation: every run produces an edge profile, and optionally a
// compact event trace — one record per executed conditional branch,
// indirect jump, or indirect call, with the instruction count between
// events — which is exactly the information Section 6 of the paper mines
// for instructions-per-break-in-control.
//
// Every run starts from an all-zero memory holding only the program's
// data. Default-size memories are reused across runs: a run that returns
// zeroes every word it wrote before handing its memory back, and a run
// that panics drops its memory, so no run can see another's stores.
package interp

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"ballarus/internal/mir"
	"ballarus/internal/profile"
)

// defaultMemWords is the memory size of a run whose Config leaves
// MemWords at 0: 16 MiB.
const defaultMemWords = 1 << 21

// Config controls one execution.
type Config struct {
	// MemWords is the memory size in words; 0 means 1<<21. The memory is
	// all zero apart from the program's data when the run starts. A
	// default-size memory is taken from the ones earlier runs handed back
	// cleared, so a run pays to zero only what it wrote, not the whole
	// size; any other size is allocated per run.
	MemWords      int
	Budget        int64   // instruction budget; 0 means 64M
	Input         []int64 // input stream for readi/readc/readf
	Seed          int64   // initial rand() seed
	CollectEvents bool    // record the event trace
	// OnEvent, when non-nil, streams each trace event to the callback as
	// the interpreter records it, without materializing Result.Events —
	// the hook consumers like dynamic-predictor tournaments use to
	// process arbitrarily long traces in O(1) memory. The callback runs
	// on the interpreter's goroutine and must not retain the Event's
	// address. Independent of CollectEvents; set both to get the
	// materialized trace too.
	OnEvent func(Event)
	// CollectInstrCounts records how many times each instruction executed
	// (per procedure), from which per-block execution counts derive.
	CollectInstrCounts bool
	// Interrupt, when non-nil, aborts the run with ErrInterrupted shortly
	// after the channel becomes readable (typically a context's Done
	// channel). The check runs every few thousand instructions, so the
	// interpreter stays fast and the abort latency stays bounded.
	Interrupt <-chan struct{}
}

// EventKind classifies a trace event.
type EventKind uint8

// Event kinds.
const (
	EvBranch   EventKind = iota // conditional branch (predictable)
	EvIndirect                  // indirect jump or indirect call: always a break
)

// Event is one control-transfer record. Delta counts the instructions
// executed since the previous event, including the event instruction
// itself, so summing Delta over all events plus the tail gives the total
// instruction count.
type Event struct {
	Delta  int32
	Branch int32 // branch id for EvBranch, -1 otherwise
	Kind   EventKind
	Taken  bool
}

// ErrBudget is returned when the instruction budget is exhausted.
var ErrBudget = errors.New("interp: instruction budget exhausted")

// ErrInterrupted is returned when Config.Interrupt fired mid-run.
var ErrInterrupted = errors.New("interp: run interrupted")

// Result is the outcome of a run.
type Result struct {
	Output   string
	Steps    int64 // instructions executed
	ExitCode int64
	Profile  *profile.Profile
	Events   []Event
	TailLen  int64 // instructions after the last event
	// InstrCounts[proc][instr] is that instruction's execution count; nil
	// unless Config.CollectInstrCounts was set.
	InstrCounts [][]int64
}

// Fault is a runtime error with machine context.
type Fault struct {
	Proc  string
	Instr int
	Msg   string
}

// Error implements the error interface.
func (f *Fault) Error() string {
	return fmt.Sprintf("interp: fault in %s+%d: %s", f.Proc, f.Instr, f.Msg)
}

type machine struct {
	prog *mir.Program
	set  *profile.Set
	cfg  Config

	mem     []int64
	sp      int64
	ra      int64
	rv      int64
	frv     float64
	hp      int64 // heap bump pointer; it only grows
	stackLo int64 // lowest address stored to at or above hp; len(mem) if none

	// Per-activation virtual register files live in arenas; calls push a
	// frame, returns pop it.
	iarena []int64
	farena []float64
	frames []frameMark

	curProc int
	pc      int
	iBase   int
	fBase   int

	in      []int64
	inPos   int
	out     bytes.Buffer
	seed    int64
	icount  int64
	profile *profile.Profile
	events  []Event
	lastEvt int64 // icount at the previous event

	ids    []int32   // branch-id row for the current procedure
	counts [][]int64 // per-proc instruction execution counts (optional)
	cur    []int64   // counts row for the current procedure
}

type frameMark struct {
	iBase, fBase int
	proc, pc     int // caller resume point (for diagnostics only)
}

// Run executes prog under cfg. The returned Result is valid (with partial
// data) even when err is non-nil.
func Run(prog *mir.Program, cfg Config) (*Result, error) {
	if cfg.MemWords == 0 {
		cfg.MemWords = defaultMemWords
	}
	if cfg.Budget == 0 {
		cfg.Budget = 64 << 20
	}
	if cfg.MemWords != defaultMemWords {
		res, _, err := execute(prog, cfg, make([]int64, cfg.MemWords))
		return res, err
	}
	mem := takeMem()
	res, zeroed, err := execute(prog, cfg, mem)
	if zeroed {
		giveMem(mem)
	}
	return res, err
}

// held keeps cleared default-size memories between runs: at most
// GOMAXPROCS of them, one for each run that can execute at once. Every
// held memory is all zero.
var held struct {
	sync.Mutex
	mems [][]int64
}

func takeMem() []int64 {
	held.Lock()
	if n := len(held.mems); n > 0 {
		mem := held.mems[n-1]
		held.mems[n-1] = nil
		held.mems = held.mems[:n-1]
		held.Unlock()
		return mem
	}
	held.Unlock()
	return make([]int64, defaultMemWords)
}

func giveMem(mem []int64) {
	held.Lock()
	if len(held.mems) < runtime.GOMAXPROCS(0) {
		held.mems = append(held.mems, mem)
	}
	held.Unlock()
}

// execute runs prog on mem, which must be all zero, and reports whether
// mem is all zero again afterwards. A run that returns, whether it halted,
// faulted, ran out of budget or was interrupted, clears every word it
// wrote; a run that panicked leaves mem as it stood.
func execute(prog *mir.Program, cfg Config, mem []int64) (*Result, bool, error) {
	set := profile.Index(prog)
	m := &machine{
		prog:    prog,
		set:     set,
		cfg:     cfg,
		mem:     mem,
		in:      cfg.Input,
		seed:    cfg.Seed,
		profile: profile.New(set),
	}
	copy(m.mem, prog.Data)
	// The heap starts just past the globals, but never at address 0: that
	// is the null pointer, and alloc must never return it.
	m.hp = int64(len(prog.Data)) + 1
	m.sp = int64(len(mem))
	m.stackLo = m.sp
	if cfg.CollectInstrCounts {
		m.counts = make([][]int64, len(prog.Procs))
		for i, pr := range prog.Procs {
			m.counts[i] = make([]int64, len(pr.Code))
		}
	}
	// The interpreter must never let an internal bug take down its
	// caller: a panic in the dispatch loop (a malformed program that
	// slipped past validation, an interpreter defect) surfaces as an
	// error alongside whatever partial state the machine accumulated.
	panicked := false
	err := func() (rerr error) {
		defer func() {
			if v := recover(); v != nil {
				panicked = true
				rerr = fmt.Errorf("interp: internal panic: %v", v)
			}
		}()
		return m.run()
	}()
	if !panicked {
		m.clearMem()
	}
	res := &Result{
		Output:      m.out.String(),
		Steps:       m.icount,
		ExitCode:    m.rv,
		Profile:     m.profile,
		Events:      m.events,
		TailLen:     m.icount - m.lastEvt,
		InstrCounts: m.counts,
	}
	return res, !panicked, err
}

// clearMem zeroes every word the run can have written. A store below the
// heap pointer, which only grows, lies in mem[:hp]; a store at or above it
// lowered stackLo, so mem[stackLo:] holds the rest: the stack, the
// argument slots below SP and any wild store between heap and stack.
func (m *machine) clearMem() {
	clear(m.mem[:min(m.hp, int64(len(m.mem)))])
	clear(m.mem[m.stackLo:])
}

// store writes v to address a, which addr has checked.
func (m *machine) store(a, v int64) {
	if a >= m.hp && a < m.stackLo {
		m.stackLo = a
	}
	m.mem[a] = v
}

func (m *machine) fault(format string, args ...any) error {
	return &Fault{Proc: m.prog.Procs[m.curProc].Name, Instr: m.pc, Msg: fmt.Sprintf(format, args...)}
}

func encodeRA(proc, pc int) int64 { return int64(proc)<<32 | int64(pc) }
func decodeRA(v int64) (int, int) { return int(v >> 32), int(v & 0xFFFFFFFF) }

// getI reads an integer register.
func (m *machine) getI(r mir.Reg) int64 {
	switch r {
	case mir.R0:
		return 0
	case mir.RV:
		return m.rv
	case mir.SP:
		return m.sp
	case mir.GP:
		return 0
	case mir.RA:
		return m.ra
	}
	return m.iarena[m.iBase+r.Index()-int(mir.FirstVirtual)]
}

// setI writes an integer register.
func (m *machine) setI(r mir.Reg, v int64) error {
	switch r {
	case mir.R0:
		return nil
	case mir.RV:
		m.rv = v
		return nil
	case mir.SP:
		if v < m.hp || v > int64(len(m.mem)) {
			return m.fault("stack pointer %d collides with heap %d", v, m.hp)
		}
		m.sp = v
		return nil
	case mir.GP:
		return m.fault("write to GP")
	case mir.RA:
		m.ra = v
		return nil
	}
	m.iarena[m.iBase+r.Index()-int(mir.FirstVirtual)] = v
	return nil
}

func (m *machine) getF(r mir.Reg) float64 {
	if r == mir.FRV {
		return m.frv
	}
	return m.farena[m.fBase+r.Index()-int(mir.FirstVirtual)]
}

func (m *machine) setF(r mir.Reg, v float64) {
	if r == mir.FRV {
		m.frv = v
		return
	}
	m.farena[m.fBase+r.Index()-int(mir.FirstVirtual)] = v
}

func (m *machine) addr(base mir.Reg, off int64) (int64, error) {
	a := m.getI(base) + off
	if a < 0 || a >= int64(len(m.mem)) {
		return 0, m.fault("address %d out of range [0,%d)", a, len(m.mem))
	}
	return a, nil
}

// pushFrame enters a procedure's register file.
func (m *machine) pushFrame(callee *mir.Proc) {
	m.frames = append(m.frames, frameMark{iBase: m.iBase, fBase: m.fBase, proc: m.curProc, pc: m.pc})
	m.iBase = len(m.iarena)
	m.fBase = len(m.farena)
	m.iarena = extend(m.iarena, callee.NIRegs)
	m.farena = extend(m.farena, callee.NFRegs)
}

// extend grows s by n zeroed elements. Popped frames leave stale values
// in the capacity past len(s), so the new elements are cleared.
func extend[E any](s []E, n int) []E {
	s = slices.Grow(s, n)[:len(s)+n]
	clear(s[len(s)-n:])
	return s
}

func (m *machine) popFrame() error {
	if len(m.frames) == 0 {
		return m.fault("return with empty call stack")
	}
	fm := m.frames[len(m.frames)-1]
	m.frames = m.frames[:len(m.frames)-1]
	m.iarena = m.iarena[:m.iBase]
	m.farena = m.farena[:m.fBase]
	m.iBase = fm.iBase
	m.fBase = fm.fBase
	return nil
}

func (m *machine) event(kind EventKind, branch int32, taken bool) {
	if !m.cfg.CollectEvents && m.cfg.OnEvent == nil {
		return
	}
	ev := Event{
		Delta:  int32(m.icount - m.lastEvt),
		Branch: branch,
		Kind:   kind,
		Taken:  taken,
	}
	m.lastEvt = m.icount
	if m.cfg.OnEvent != nil {
		m.cfg.OnEvent(ev)
	}
	if m.cfg.CollectEvents {
		m.events = append(m.events, ev)
	}
}

func (m *machine) enter(proc int) {
	m.curProc = proc
	m.pc = 0
	m.ids = m.set.IDRow(proc)
	if m.counts != nil {
		m.cur = m.counts[proc]
	}
}

func (m *machine) run() error {
	m.enter(m.prog.Entry)
	startProc := m.prog.Procs[m.prog.Entry]
	m.pushFrame(startProc)
	code := m.prog.Procs[m.curProc].Code
	for {
		if m.pc < 0 || m.pc >= len(code) {
			return m.fault("pc out of range")
		}
		in := &code[m.pc]
		m.icount++
		if m.icount > m.cfg.Budget {
			return ErrBudget
		}
		if m.cfg.Interrupt != nil && m.icount&0x1FFF == 0 {
			select {
			case <-m.cfg.Interrupt:
				return ErrInterrupted
			default:
			}
		}
		if m.cur != nil {
			m.cur[m.pc]++
		}
		switch in.Op {
		case mir.Nop:
		case mir.Add:
			if err := m.setI(in.Rd, m.getI(in.Rs)+m.getI(in.Rt)); err != nil {
				return err
			}
		case mir.Sub:
			if err := m.setI(in.Rd, m.getI(in.Rs)-m.getI(in.Rt)); err != nil {
				return err
			}
		case mir.Mul:
			if err := m.setI(in.Rd, m.getI(in.Rs)*m.getI(in.Rt)); err != nil {
				return err
			}
		case mir.Div:
			d := m.getI(in.Rt)
			if d == 0 {
				return m.fault("integer division by zero")
			}
			n := m.getI(in.Rs)
			// MinInt64 / -1 overflows; like the hardware, wrap to MinInt64
			// rather than trapping (Go would panic).
			q := n
			if !(n == math.MinInt64 && d == -1) {
				q = n / d
			}
			if err := m.setI(in.Rd, q); err != nil {
				return err
			}
		case mir.Rem:
			d := m.getI(in.Rt)
			if d == 0 {
				return m.fault("integer remainder by zero")
			}
			n := m.getI(in.Rs)
			r := int64(0)
			if !(n == math.MinInt64 && d == -1) {
				r = n % d
			}
			if err := m.setI(in.Rd, r); err != nil {
				return err
			}
		case mir.And:
			if err := m.setI(in.Rd, m.getI(in.Rs)&m.getI(in.Rt)); err != nil {
				return err
			}
		case mir.Or:
			if err := m.setI(in.Rd, m.getI(in.Rs)|m.getI(in.Rt)); err != nil {
				return err
			}
		case mir.Xor:
			if err := m.setI(in.Rd, m.getI(in.Rs)^m.getI(in.Rt)); err != nil {
				return err
			}
		case mir.Sll:
			sh := uint64(m.getI(in.Rt)) & 63
			if err := m.setI(in.Rd, m.getI(in.Rs)<<sh); err != nil {
				return err
			}
		case mir.Srl:
			sh := uint64(m.getI(in.Rt)) & 63
			if err := m.setI(in.Rd, int64(uint64(m.getI(in.Rs))>>sh)); err != nil {
				return err
			}
		case mir.Sra:
			sh := uint64(m.getI(in.Rt)) & 63
			if err := m.setI(in.Rd, m.getI(in.Rs)>>sh); err != nil {
				return err
			}
		case mir.Slt:
			if err := m.setI(in.Rd, b2i(m.getI(in.Rs) < m.getI(in.Rt))); err != nil {
				return err
			}
		case mir.Sle:
			if err := m.setI(in.Rd, b2i(m.getI(in.Rs) <= m.getI(in.Rt))); err != nil {
				return err
			}
		case mir.Seq:
			if err := m.setI(in.Rd, b2i(m.getI(in.Rs) == m.getI(in.Rt))); err != nil {
				return err
			}
		case mir.Sne:
			if err := m.setI(in.Rd, b2i(m.getI(in.Rs) != m.getI(in.Rt))); err != nil {
				return err
			}
		case mir.Li:
			if err := m.setI(in.Rd, in.Imm); err != nil {
				return err
			}
		case mir.Addi:
			if err := m.setI(in.Rd, m.getI(in.Rs)+in.Imm); err != nil {
				return err
			}
		case mir.Move:
			if err := m.setI(in.Rd, m.getI(in.Rs)); err != nil {
				return err
			}
		case mir.FAdd:
			m.setF(in.Rd, m.getF(in.Rs)+m.getF(in.Rt))
		case mir.FSub:
			m.setF(in.Rd, m.getF(in.Rs)-m.getF(in.Rt))
		case mir.FMul:
			m.setF(in.Rd, m.getF(in.Rs)*m.getF(in.Rt))
		case mir.FDiv:
			m.setF(in.Rd, m.getF(in.Rs)/m.getF(in.Rt))
		case mir.FNeg:
			m.setF(in.Rd, -m.getF(in.Rs))
		case mir.FLi:
			m.setF(in.Rd, in.FImm)
		case mir.FMove:
			m.setF(in.Rd, m.getF(in.Rs))
		case mir.CvtIF:
			m.setF(in.Rd, float64(m.getI(in.Rs)))
		case mir.CvtFI:
			if err := m.setI(in.Rd, int64(m.getF(in.Rs))); err != nil {
				return err
			}
		case mir.FSlt:
			if err := m.setI(in.Rd, b2i(m.getF(in.Rs) < m.getF(in.Rt))); err != nil {
				return err
			}
		case mir.FSle:
			if err := m.setI(in.Rd, b2i(m.getF(in.Rs) <= m.getF(in.Rt))); err != nil {
				return err
			}
		case mir.FSeq:
			if err := m.setI(in.Rd, b2i(m.getF(in.Rs) == m.getF(in.Rt))); err != nil {
				return err
			}
		case mir.FSne:
			if err := m.setI(in.Rd, b2i(m.getF(in.Rs) != m.getF(in.Rt))); err != nil {
				return err
			}
		case mir.Lw:
			a, err := m.addr(in.Rs, in.Imm)
			if err != nil {
				return err
			}
			if err := m.setI(in.Rd, m.mem[a]); err != nil {
				return err
			}
		case mir.Sw:
			a, err := m.addr(in.Rs, in.Imm)
			if err != nil {
				return err
			}
			m.store(a, m.getI(in.Rt))
		case mir.FLw:
			a, err := m.addr(in.Rs, in.Imm)
			if err != nil {
				return err
			}
			m.setF(in.Rd, math.Float64frombits(uint64(m.mem[a])))
		case mir.FSw:
			a, err := m.addr(in.Rs, in.Imm)
			if err != nil {
				return err
			}
			m.store(a, int64(math.Float64bits(m.getF(in.Rt))))
		case mir.Beq, mir.Bne, mir.Bltz, mir.Blez, mir.Bgtz, mir.Bgez,
			mir.FBeq, mir.FBne, mir.FBlt, mir.FBle, mir.FBgt, mir.FBge:
			taken := m.evalBranch(in)
			id := m.ids[m.pc]
			m.profile.Count(id, taken)
			m.event(EvBranch, id, taken)
			if taken {
				m.pc = in.Target
				continue
			}
		case mir.J:
			m.pc = in.Target
			continue
		case mir.Jal:
			callee := m.prog.Procs[in.Callee]
			if callee.Builtin != mir.NotBuiltin {
				if err := m.builtin(callee); err != nil {
					if err == errExit {
						return nil
					}
					return err
				}
				break
			}
			m.ra = encodeRA(m.curProc, m.pc+1)
			m.pushFrame(callee)
			m.enter(in.Callee)
			code = callee.Code
			continue
		case mir.Jalr:
			// Indirect call: the register holds a procedure index.
			t := m.getI(in.Rs)
			if t < 0 || t >= int64(len(m.prog.Procs)) {
				return m.fault("indirect call to bad procedure %d", t)
			}
			m.event(EvIndirect, -1, false)
			callee := m.prog.Procs[t]
			if callee.Builtin != mir.NotBuiltin {
				if err := m.builtin(callee); err != nil {
					if err == errExit {
						return nil
					}
					return err
				}
				break
			}
			m.ra = encodeRA(m.curProc, m.pc+1)
			m.pushFrame(callee)
			m.enter(int(t))
			code = callee.Code
			continue
		case mir.Jr:
			if in.Rs != mir.RA {
				return m.fault("jr through non-RA register")
			}
			proc, pc := decodeRA(m.getI(mir.RA))
			if proc < 0 || proc >= len(m.prog.Procs) {
				return m.fault("return to bad procedure %d", proc)
			}
			if err := m.popFrame(); err != nil {
				return err
			}
			m.enter(proc)
			m.pc = pc
			code = m.prog.Procs[proc].Code
			continue
		case mir.Jtab:
			idx := m.getI(in.Rs)
			if idx < 0 || idx >= int64(len(in.Table)) {
				return m.fault("jump table index %d out of range", idx)
			}
			m.event(EvIndirect, -1, false)
			m.pc = in.Table[idx]
			continue
		case mir.Halt:
			return nil
		default:
			return m.fault("unimplemented opcode %s", in.Op)
		}
		m.pc++
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func (m *machine) evalBranch(in *mir.Instr) bool {
	switch in.Op {
	case mir.Beq:
		return m.getI(in.Rs) == m.getI(in.Rt)
	case mir.Bne:
		return m.getI(in.Rs) != m.getI(in.Rt)
	case mir.Bltz:
		return m.getI(in.Rs) < 0
	case mir.Blez:
		return m.getI(in.Rs) <= 0
	case mir.Bgtz:
		return m.getI(in.Rs) > 0
	case mir.Bgez:
		return m.getI(in.Rs) >= 0
	case mir.FBeq:
		return m.getF(in.Rs) == m.getF(in.Rt)
	case mir.FBne:
		return m.getF(in.Rs) != m.getF(in.Rt)
	case mir.FBlt:
		return m.getF(in.Rs) < m.getF(in.Rt)
	case mir.FBle:
		return m.getF(in.Rs) <= m.getF(in.Rt)
	case mir.FBgt:
		return m.getF(in.Rs) > m.getF(in.Rt)
	case mir.FBge:
		return m.getF(in.Rs) >= m.getF(in.Rt)
	}
	return false
}

var errExit = errors.New("exit")

// arg reads builtin argument i from the caller's outgoing slots.
func (m *machine) argI(i int) (int64, error) {
	a := m.sp - int64(1+i)
	if a < 0 || a >= int64(len(m.mem)) {
		return 0, m.fault("builtin argument address out of range")
	}
	return m.mem[a], nil
}

func (m *machine) argF(i int) (float64, error) {
	v, err := m.argI(i)
	return math.Float64frombits(uint64(v)), err
}

func (m *machine) builtin(p *mir.Proc) error {
	switch p.Builtin {
	case mir.BAlloc:
		n, err := m.argI(0)
		if err != nil {
			return err
		}
		if n < 0 {
			return m.fault("alloc(%d): negative size", n)
		}
		// n >= sp-hp is hp+n >= sp without overflowing: a wrapped heap
		// pointer would escape clearMem.
		if n >= m.sp-m.hp {
			return m.fault("alloc(%d): out of memory (heap %d, stack %d)", n, m.hp, m.sp)
		}
		m.rv = m.hp
		m.hp += n
	case mir.BPrintI:
		v, err := m.argI(0)
		if err != nil {
			return err
		}
		fmt.Fprintf(&m.out, "%d", v)
	case mir.BPrintF:
		v, err := m.argF(0)
		if err != nil {
			return err
		}
		fmt.Fprintf(&m.out, "%g", v)
	case mir.BPrintC:
		v, err := m.argI(0)
		if err != nil {
			return err
		}
		m.out.WriteByte(byte(v))
	case mir.BPrintS:
		a, err := m.argI(0)
		if err != nil {
			return err
		}
		for a >= 0 && a < int64(len(m.mem)) && m.mem[a] != 0 {
			m.out.WriteByte(byte(m.mem[a]))
			a++
		}
	case mir.BReadI, mir.BReadC:
		if m.inPos < len(m.in) {
			m.rv = m.in[m.inPos]
			m.inPos++
		} else {
			m.rv = -1
		}
	case mir.BReadF:
		if m.inPos < len(m.in) {
			m.frv = float64(m.in[m.inPos])
			m.inPos++
		} else {
			m.frv = 0
		}
	case mir.BRand:
		m.seed = m.seed*6364136223846793005 + 1442695040888963407
		m.rv = (m.seed >> 33) & 0x7FFFFFFF
	case mir.BSrand:
		v, err := m.argI(0)
		if err != nil {
			return err
		}
		m.seed = v
	case mir.BExit:
		v, err := m.argI(0)
		if err != nil {
			return err
		}
		m.rv = v
		return errExit
	default:
		return m.fault("unimplemented builtin %s", p.Builtin)
	}
	return nil
}

// Package mir defines a MIPS-like register intermediate representation.
//
// The Ball-Larus heuristics were formulated over MIPS R2000/R3000
// executables. This package reproduces the aspects of that instruction set
// the heuristics observe: compare-against-zero conditional branch opcodes
// (bltz, blez, bgtz, bgez), two-register equality branches (beq, bne),
// floating-point compare-and-branch opcodes, loads and stores with a base
// register (so the Pointer heuristic can screen out GP- and SP-relative
// addressing), direct and indirect calls, indirect jumps through tables,
// and procedure returns.
//
// Memory is word addressed: every address names one 64-bit slot holding
// either an integer or a floating-point value. A procedure's code is a flat
// instruction slice; branch targets are instruction indices within the
// procedure, and calls name callee procedures by index in the program.
package mir

import (
	"fmt"
	"strings"
)

// Reg names a machine register. Integer and floating-point registers live
// in one numeric space distinguished by the FloatBit flag. A small set of
// low-numbered integer registers have architectural roles; all registers at
// index FirstVirtual and above are general-purpose virtual registers that
// the interpreter materializes per activation (modelling the paper's
// "-O"-compiled benchmarks, where global register allocation keeps scalars
// in registers).
type Reg uint32

// FloatBit marks a register as floating point.
const FloatBit Reg = 1 << 31

// Architectural integer registers.
const (
	R0 Reg = iota // hardwired zero
	RV            // integer return value (shared across activations)
	SP            // stack pointer (stack grows toward lower addresses)
	GP            // global pointer (base of global data)
	RA            // return address, set by Jal/Jalr

	// FirstVirtual is the first virtual register index in either space.
	FirstVirtual Reg = 8
)

// FRV is the floating-point return value register.
const FRV = FloatBit | 1

// Int returns the n'th virtual integer register.
func Int(n int) Reg { return FirstVirtual + Reg(n) }

// Float returns the n'th virtual floating-point register.
func Float(n int) Reg { return FloatBit | (FirstVirtual + Reg(n)) }

// IsFloat reports whether r is a floating-point register.
func (r Reg) IsFloat() bool { return r&FloatBit != 0 }

// Index returns the register's index within its (int or float) space.
func (r Reg) Index() int { return int(r &^ FloatBit) }

// String renders the register in assembly style.
func (r Reg) String() string {
	if r.IsFloat() {
		if r == FRV {
			return "$frv"
		}
		return fmt.Sprintf("$f%d", r.Index())
	}
	switch r {
	case R0:
		return "$zero"
	case RV:
		return "$rv"
	case SP:
		return "$sp"
	case GP:
		return "$gp"
	case RA:
		return "$ra"
	}
	return fmt.Sprintf("$r%d", r.Index())
}

// Op is an instruction opcode.
type Op uint8

// Instruction opcodes.
const (
	Nop Op = iota

	// Integer ALU. Three-register unless noted.
	Add
	Sub
	Mul
	Div // quotient, truncated toward zero
	Rem
	And
	Or
	Xor
	Sll // shift left logical by Rt
	Srl
	Sra
	Slt // Rd = 1 if Rs < Rt else 0
	Sle
	Seq
	Sne
	Li   // Rd = Imm
	Addi // Rd = Rs + Imm
	Move // Rd = Rs

	// Floating point ALU.
	FAdd
	FSub
	FMul
	FDiv
	FNeg
	FLi   // Fd = FImm
	FMove // Fd = Fs
	CvtIF // Fd = float(Rs)
	CvtFI // Rd = int(Fs), truncated
	FSlt  // Rd = 1 if Fs < Ft (integer destination)
	FSle  //
	FSeq  //
	FSne  //

	// Memory. Addresses are Rs+Imm in words.
	Lw  // Rd = mem[Rs+Imm]
	Sw  // mem[Rs+Imm] = Rt
	FLw // Fd = mem[Rs+Imm]
	FSw // mem[Rs+Imm] = Ft

	// Two-way conditional branches with fixed targets. The taken direction
	// transfers to Target; the fall-through direction is the next
	// instruction. These are the branches the predictor predicts.
	Beq  // if Rs == Rt
	Bne  // if Rs != Rt
	Bltz // if Rs < 0
	Blez // if Rs <= 0
	Bgtz // if Rs > 0
	Bgez // if Rs >= 0
	FBeq // if Fs == Ft
	FBne // if Fs != Ft
	FBlt // if Fs < Ft
	FBle // if Fs <= Ft
	FBgt // if Fs > Ft
	FBge // if Fs >= Ft

	// Control transfer.
	J    // unconditional jump to Target
	Jal  // call Procs[Callee]; sets RA
	Jalr // indirect call through Rs (an encoded return-address value); break in control
	Jr   // jump through register; Jr RA is a procedure return
	Jtab // indirect jump: Target = Table[Rs]; break in control (jump table)

	Halt // stop the machine

	numOps
)

var opNames = [...]string{
	Nop: "nop",
	Add: "add", Sub: "sub", Mul: "mul", Div: "div", Rem: "rem",
	And: "and", Or: "or", Xor: "xor", Sll: "sll", Srl: "srl", Sra: "sra",
	Slt: "slt", Sle: "sle", Seq: "seq", Sne: "sne",
	Li: "li", Addi: "addi", Move: "move",
	FAdd: "fadd", FSub: "fsub", FMul: "fmul", FDiv: "fdiv", FNeg: "fneg",
	FLi: "fli", FMove: "fmove", CvtIF: "cvt.if", CvtFI: "cvt.fi",
	FSlt: "fslt", FSle: "fsle", FSeq: "fseq", FSne: "fsne",
	Lw: "lw", Sw: "sw", FLw: "flw", FSw: "fsw",
	Beq: "beq", Bne: "bne", Bltz: "bltz", Blez: "blez", Bgtz: "bgtz", Bgez: "bgez",
	FBeq: "fbeq", FBne: "fbne", FBlt: "fblt", FBle: "fble", FBgt: "fbgt", FBge: "fbge",
	J: "j", Jal: "jal", Jalr: "jalr", Jr: "jr", Jtab: "jtab",
	Halt: "halt",
}

// String returns the opcode mnemonic.
func (op Op) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsCondBranch reports whether op is a two-way conditional branch with a
// fixed target — the class of branches the paper predicts.
func (op Op) IsCondBranch() bool { return op >= Beq && op <= FBge }

// IsCall reports whether op is a call (direct or indirect).
func (op Op) IsCall() bool { return op == Jal || op == Jalr }

// IsStore reports whether op writes memory.
func (op Op) IsStore() bool { return op == Sw || op == FSw }

// EndsBlock reports whether op terminates a basic block.
func (op Op) EndsBlock() bool {
	return op.IsCondBranch() || op == J || op == Jr || op == Jtab || op == Halt
}

// Instr is one MIR instruction. Field use depends on Op; unused fields are
// zero. For conditional branches, Target is the taken successor's
// instruction index and the fall-through successor is the next instruction.
type Instr struct {
	Op     Op
	Rd     Reg     // destination register
	Rs     Reg     // first source / base register for memory ops
	Rt     Reg     // second source / stored value for Sw and FSw
	Imm    int64   // immediate / word offset for memory ops
	FImm   float64 // floating immediate for FLi
	Target int     // branch/jump target instruction index within the procedure
	Callee int     // callee procedure index for Jal
	Table  []int   // jump table targets for Jtab
}

// IsReturn reports whether the instruction is a procedure return (Jr RA).
func (in *Instr) IsReturn() bool { return in.Op == Jr && in.Rs == RA }

// Uses appends the registers the instruction reads to dst and returns it.
// R0 is included when named; callers that care can skip it.
func (in *Instr) Uses(dst []Reg) []Reg {
	switch in.Op {
	case Nop, Li, FLi, J, Jal, Halt:
	case Add, Sub, Mul, Div, Rem, And, Or, Xor, Sll, Srl, Sra, Slt, Sle, Seq, Sne,
		FAdd, FSub, FMul, FDiv, FSlt, FSle, FSeq, FSne,
		Beq, Bne, FBeq, FBne, FBlt, FBle, FBgt, FBge:
		dst = append(dst, in.Rs, in.Rt)
	case Addi, Move, FMove, FNeg, CvtIF, CvtFI, Lw, FLw, Jr, Jalr, Jtab,
		Bltz, Blez, Bgtz, Bgez:
		dst = append(dst, in.Rs)
	case Sw, FSw:
		dst = append(dst, in.Rs, in.Rt)
	}
	return dst
}

// Def returns the register the instruction writes and whether it writes one.
func (in *Instr) Def() (Reg, bool) {
	switch in.Op {
	case Add, Sub, Mul, Div, Rem, And, Or, Xor, Sll, Srl, Sra, Slt, Sle, Seq, Sne,
		Li, Addi, Move, CvtFI, Lw, FSlt, FSle, FSeq, FSne:
		return in.Rd, true
	case FAdd, FSub, FMul, FDiv, FNeg, FLi, FMove, CvtIF, FLw:
		return in.Rd, true
	case Jal, Jalr:
		return RA, true
	}
	return 0, false
}

// BuiltinKind identifies a runtime service implemented natively by the
// interpreter. Builtin procedures have no code; calling one performs the
// service. They model the C library the paper's benchmarks linked against.
type BuiltinKind uint8

// Builtin procedures.
const (
	NotBuiltin BuiltinKind = iota
	BAlloc                 // RV = address of Arg0 fresh words (bump allocator)
	BPrintI                // print Arg0 as a decimal integer
	BPrintF                // print float Arg0
	BPrintC                // print Arg0 as a character
	BPrintS                // print zero-terminated word string at address Arg0
	BReadI                 // RV = next integer from input, -1 on end
	BReadC                 // RV = next character from input, -1 on end
	BReadF                 // FRV = next value from input as float, 0 on end
	BRand                  // RV = next pseudo-random non-negative integer
	BSrand                 // seed the generator with Arg0
	BExit                  // stop the machine with status Arg0

	numBuiltins
)

var builtinNames = [...]string{
	BAlloc: "alloc", BPrintI: "printi", BPrintF: "printfl", BPrintC: "printc",
	BPrintS: "prints", BReadI: "readi", BReadC: "readc", BReadF: "readf",
	BRand: "rand", BSrand: "srand", BExit: "exit",
}

// String returns the builtin's source-level name.
func (b BuiltinKind) String() string {
	if int(b) < len(builtinNames) && builtinNames[b] != "" {
		return builtinNames[b]
	}
	return fmt.Sprintf("builtin(%d)", uint8(b))
}

// Proc is one procedure. Its stack frame, in words from SP upward, is:
//
//	sp+0                 saved RA
//	sp+1 .. sp+NLocals   locals (arrays, structs, address-taken scalars)
//	sp+1+NLocals ..      incoming arguments (stored by the caller at
//	                     oldSP-1-i for argument i, i.e. highest index first)
//
// so FrameSize = 1 + NLocals + NArgs and argument i lives at
// sp + FrameSize - 1 - i after the prologue drops SP.
type Proc struct {
	Name    string
	Builtin BuiltinKind // nonzero for builtins; Code is then empty
	NArgs   int
	NLocals int // frame words for locals, excluding the RA slot and args
	NIRegs  int // virtual integer registers used (indices FirstVirtual..)
	NFRegs  int // virtual float registers used
	Code    []Instr
}

// FrameSize returns the procedure's frame size in words.
func (p *Proc) FrameSize() int { return 1 + p.NLocals + p.NArgs }

// Program is a whole MIR program.
type Program struct {
	Procs  []*Proc
	Entry  int     // index of the entry procedure
	Data   []int64 // initial global memory image, addressed from GP
	Source string  // optional: the source the program was compiled from
}

// Proc returns the named procedure, or nil.
func (p *Program) Proc(name string) *Proc {
	for _, pr := range p.Procs {
		if pr.Name == name {
			return pr
		}
	}
	return nil
}

// NumInstrs returns the total instruction count over all non-builtin
// procedures. The paper's Table 1 reports object-code size; we report
// NumInstrs×4 bytes, the MIPS encoding size.
func (p *Program) NumInstrs() int {
	n := 0
	for _, pr := range p.Procs {
		n += len(pr.Code)
	}
	return n
}

// Validate checks structural invariants: branch targets in range, callees
// in range, builtins empty, entry valid, register indices within the
// declared counts. It returns the first problem found.
func (p *Program) Validate() error {
	if p.Entry < 0 || p.Entry >= len(p.Procs) {
		return fmt.Errorf("mir: entry %d out of range", p.Entry)
	}
	if p.Procs[p.Entry].Builtin != NotBuiltin {
		return fmt.Errorf("mir: entry %q is a builtin", p.Procs[p.Entry].Name)
	}
	for pi, pr := range p.Procs {
		if pr.Builtin != NotBuiltin {
			if len(pr.Code) != 0 {
				return fmt.Errorf("mir: builtin %q has code", pr.Name)
			}
			continue
		}
		if len(pr.Code) == 0 {
			return fmt.Errorf("mir: procedure %q is empty", pr.Name)
		}
		for i := range pr.Code {
			in := &pr.Code[i]
			if err := p.validateInstr(pr, in); err != nil {
				return fmt.Errorf("mir: %s+%d: %v", pr.Name, i, err)
			}
			_ = pi
		}
		last := pr.Code[len(pr.Code)-1].Op
		if last.IsCondBranch() {
			return fmt.Errorf("mir: procedure %q ends with a conditional branch (no fall-through)", pr.Name)
		}
		if !last.EndsBlock() && last != Jal && last != Jalr {
			// Falling off the end of a procedure is a structural error.
			if !pr.Code[len(pr.Code)-1].IsReturn() {
				return fmt.Errorf("mir: procedure %q falls off the end", pr.Name)
			}
		}
	}
	return nil
}

func (p *Program) validateInstr(pr *Proc, in *Instr) error {
	if in.Op >= numOps {
		return fmt.Errorf("bad opcode %d", in.Op)
	}
	checkTarget := func(t int) error {
		if t < 0 || t >= len(pr.Code) {
			return fmt.Errorf("target %d out of range [0,%d)", t, len(pr.Code))
		}
		return nil
	}
	if in.Op.IsCondBranch() || in.Op == J {
		if err := checkTarget(in.Target); err != nil {
			return err
		}
	}
	if in.Op == Jtab {
		if len(in.Table) == 0 {
			return fmt.Errorf("empty jump table")
		}
		for _, t := range in.Table {
			if err := checkTarget(t); err != nil {
				return err
			}
		}
	}
	if in.Op == Jal {
		if in.Callee < 0 || in.Callee >= len(p.Procs) {
			return fmt.Errorf("callee %d out of range", in.Callee)
		}
	}
	check := func(r Reg) error {
		idx := r.Index()
		if r.IsFloat() {
			if idx != int(FRV&^FloatBit) && (idx < int(FirstVirtual) || idx >= int(FirstVirtual)+pr.NFRegs) {
				return fmt.Errorf("float register %s out of declared range (%d fregs)", r, pr.NFRegs)
			}
			return nil
		}
		if idx < int(FirstVirtual) {
			return nil // architectural register
		}
		if idx >= int(FirstVirtual)+pr.NIRegs {
			return fmt.Errorf("register %s out of declared range (%d iregs)", r, pr.NIRegs)
		}
		return nil
	}
	var regs []Reg
	regs = in.Uses(regs)
	if d, ok := in.Def(); ok {
		regs = append(regs, d)
	}
	for _, r := range regs {
		if err := check(r); err != nil {
			return err
		}
	}
	return nil
}

// String disassembles the instruction.
func (in *Instr) String() string {
	op := in.Op
	switch {
	case op == Nop || op == Halt:
		return op.String()
	case op == Li:
		return fmt.Sprintf("li %s, %d", in.Rd, in.Imm)
	case op == FLi:
		return fmt.Sprintf("fli %s, %g", in.Rd, in.FImm)
	case op == Addi:
		return fmt.Sprintf("addi %s, %s, %d", in.Rd, in.Rs, in.Imm)
	case op == Move || op == FMove || op == FNeg || op == CvtIF || op == CvtFI:
		return fmt.Sprintf("%s %s, %s", op, in.Rd, in.Rs)
	case op == Lw || op == FLw:
		return fmt.Sprintf("%s %s, %d(%s)", op, in.Rd, in.Imm, in.Rs)
	case op == Sw || op == FSw:
		return fmt.Sprintf("%s %s, %d(%s)", op, in.Rt, in.Imm, in.Rs)
	case op == Beq || op == Bne || (op >= FBeq && op <= FBge):
		return fmt.Sprintf("%s %s, %s, @%d", op, in.Rs, in.Rt, in.Target)
	case op == Bltz || op == Blez || op == Bgtz || op == Bgez:
		return fmt.Sprintf("%s %s, @%d", op, in.Rs, in.Target)
	case op == J:
		return fmt.Sprintf("j @%d", in.Target)
	case op == Jal:
		return fmt.Sprintf("jal #%d", in.Callee)
	case op == Jalr || op == Jr:
		return fmt.Sprintf("%s %s", op, in.Rs)
	case op == Jtab:
		parts := make([]string, len(in.Table))
		for i, t := range in.Table {
			parts[i] = fmt.Sprintf("@%d", t)
		}
		return fmt.Sprintf("jtab %s, [%s]", in.Rs, strings.Join(parts, " "))
	default:
		return fmt.Sprintf("%s %s, %s, %s", op, in.Rd, in.Rs, in.Rt)
	}
}

// Disasm renders the procedure as annotated assembly.
func (p *Proc) Disasm() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: (args=%d locals=%d iregs=%d fregs=%d)\n",
		p.Name, p.NArgs, p.NLocals, p.NIRegs, p.NFRegs)
	if p.Builtin != NotBuiltin {
		fmt.Fprintf(&b, "  <builtin %s>\n", p.Builtin)
		return b.String()
	}
	for i := range p.Code {
		fmt.Fprintf(&b, "  %4d: %s\n", i, p.Code[i].String())
	}
	return b.String()
}

// Disasm renders the whole program as annotated assembly.
func (p *Program) Disasm() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program: entry=#%d globals=%d words\n", p.Entry, len(p.Data))
	for i, pr := range p.Procs {
		fmt.Fprintf(&b, "#%d %s", i, pr.Disasm())
	}
	return b.String()
}

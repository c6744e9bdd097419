package mir

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestRegClassification(t *testing.T) {
	if Int(3).IsFloat() {
		t.Error("Int(3) must not be float")
	}
	if !Float(3).IsFloat() {
		t.Error("Float(3) must be float")
	}
	if Int(3).Index() != int(FirstVirtual)+3 {
		t.Errorf("Int(3).Index() = %d", Int(3).Index())
	}
	if Float(3).Index() != int(FirstVirtual)+3 {
		t.Errorf("Float(3).Index() = %d", Float(3).Index())
	}
	names := map[Reg]string{
		R0: "$zero", RV: "$rv", SP: "$sp", GP: "$gp", RA: "$ra",
		FRV: "$frv", Int(0): "$r8", Float(2): "$f10",
	}
	for r, want := range names {
		if got := r.String(); got != want {
			t.Errorf("%v.String() = %q, want %q", uint32(r), got, want)
		}
	}
}

func TestOpClassification(t *testing.T) {
	condBranches := []Op{Beq, Bne, Bltz, Blez, Bgtz, Bgez, FBeq, FBne, FBlt, FBle, FBgt, FBge}
	for _, op := range condBranches {
		if !op.IsCondBranch() {
			t.Errorf("%s should be a conditional branch", op)
		}
		if !op.EndsBlock() {
			t.Errorf("%s should end a block", op)
		}
	}
	for _, op := range []Op{J, Jal, Jalr, Jr, Jtab, Add, Lw, Sw, Halt, Nop} {
		if op.IsCondBranch() {
			t.Errorf("%s should not be a conditional branch", op)
		}
	}
	if !Jal.IsCall() || !Jalr.IsCall() || J.IsCall() {
		t.Error("call classification wrong")
	}
	if !Sw.IsStore() || !FSw.IsStore() || Lw.IsStore() {
		t.Error("store classification wrong")
	}
	// Calls do not end blocks (the paper's CFGs run through calls).
	if Jal.EndsBlock() || Jalr.EndsBlock() {
		t.Error("calls must not end blocks")
	}
	if !J.EndsBlock() || !Jr.EndsBlock() || !Jtab.EndsBlock() || !Halt.EndsBlock() {
		t.Error("jumps/returns/halt must end blocks")
	}
}

func TestUsesAndDef(t *testing.T) {
	cases := []struct {
		in   Instr
		uses []Reg
		def  Reg
		has  bool
	}{
		{Instr{Op: Add, Rd: Int(0), Rs: Int(1), Rt: Int(2)}, []Reg{Int(1), Int(2)}, Int(0), true},
		{Instr{Op: Li, Rd: Int(0), Imm: 5}, nil, Int(0), true},
		{Instr{Op: Lw, Rd: Int(0), Rs: SP, Imm: 1}, []Reg{SP}, Int(0), true},
		{Instr{Op: Sw, Rs: SP, Rt: Int(1), Imm: 1}, []Reg{SP, Int(1)}, 0, false},
		{Instr{Op: Beq, Rs: Int(0), Rt: R0}, []Reg{Int(0), R0}, 0, false},
		{Instr{Op: Bltz, Rs: Int(0)}, []Reg{Int(0)}, 0, false},
		{Instr{Op: Jal, Callee: 0}, nil, RA, true},
		{Instr{Op: Jr, Rs: RA}, []Reg{RA}, 0, false},
		{Instr{Op: FAdd, Rd: Float(0), Rs: Float(1), Rt: Float(2)}, []Reg{Float(1), Float(2)}, Float(0), true},
		{Instr{Op: CvtIF, Rd: Float(0), Rs: Int(1)}, []Reg{Int(1)}, Float(0), true},
		{Instr{Op: Halt}, nil, 0, false},
	}
	for _, c := range cases {
		got := c.in.Uses(nil)
		if len(got) != len(c.uses) {
			t.Errorf("%s: uses %v, want %v", c.in.String(), got, c.uses)
			continue
		}
		for i := range got {
			if got[i] != c.uses[i] {
				t.Errorf("%s: uses %v, want %v", c.in.String(), got, c.uses)
			}
		}
		d, ok := c.in.Def()
		if ok != c.has || (ok && d != c.def) {
			t.Errorf("%s: def %v,%v, want %v,%v", c.in.String(), d, ok, c.def, c.has)
		}
	}
}

func TestIsReturn(t *testing.T) {
	ret := Instr{Op: Jr, Rs: RA}
	if !ret.IsReturn() {
		t.Error("jr $ra is a return")
	}
	notRet := Instr{Op: Jr, Rs: Int(0)}
	if notRet.IsReturn() {
		t.Error("jr through another register is not a return")
	}
}

func validProgram() *Program {
	return &Program{
		Procs: []*Proc{{
			Name:   "main",
			NIRegs: 2,
			Code: []Instr{
				{Op: Li, Rd: Int(0), Imm: 1},
				{Op: Beq, Rs: Int(0), Rt: R0, Target: 3},
				{Op: Addi, Rd: Int(1), Rs: Int(0), Imm: 1},
				{Op: Halt},
			},
		}},
	}
}

func TestValidateOK(t *testing.T) {
	if err := validProgram().Validate(); err != nil {
		t.Errorf("valid program rejected: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Program)
		want string
	}{
		{"bad entry", func(p *Program) { p.Entry = 5 }, "entry"},
		{"bad target", func(p *Program) { p.Procs[0].Code[1].Target = 99 }, "out of range"},
		{"bad callee", func(p *Program) {
			p.Procs[0].Code[0] = Instr{Op: Jal, Callee: 7}
		}, "callee"},
		{"reg out of range", func(p *Program) {
			p.Procs[0].Code[0].Rd = Int(50)
		}, "register"},
		{"freg out of range", func(p *Program) {
			p.Procs[0].Code[2] = Instr{Op: FLi, Rd: Float(0), FImm: 1}
		}, "register"},
		{"trailing cond branch", func(p *Program) {
			p.Procs[0].Code = p.Procs[0].Code[:2]
			p.Procs[0].Code[1].Target = 0
		}, "conditional branch"},
		{"falls off end", func(p *Program) {
			p.Procs[0].Code[3] = Instr{Op: Li, Rd: Int(0), Imm: 2}
		}, "falls off"},
		{"empty proc", func(p *Program) { p.Procs[0].Code = nil }, "empty"},
		{"builtin with code", func(p *Program) {
			p.Procs = append(p.Procs, &Proc{Name: "b", Builtin: BAlloc, Code: []Instr{{Op: Halt}}})
		}, "builtin"},
		{"entry is builtin", func(p *Program) {
			p.Procs[0].Builtin = BAlloc
			p.Procs[0].Code = nil
		}, "builtin"},
		{"empty jump table", func(p *Program) {
			p.Procs[0].Code[1] = Instr{Op: Jtab, Rs: Int(0)}
		}, "jump table"},
	}
	for _, m := range mutations {
		p := validProgram()
		m.mut(p)
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: expected error", m.name)
			continue
		}
		if !strings.Contains(err.Error(), m.want) {
			t.Errorf("%s: error %q does not mention %q", m.name, err, m.want)
		}
	}
}

func TestFrameLayout(t *testing.T) {
	p := &Proc{NArgs: 3, NLocals: 4}
	if p.FrameSize() != 8 {
		t.Errorf("FrameSize = %d, want 8", p.FrameSize())
	}
}

func TestDisasmRoundtrip(t *testing.T) {
	p := validProgram()
	d := p.Disasm()
	for _, want := range []string{"main", "li $r8, 1", "beq $r8, $zero, @3", "halt"} {
		if !strings.Contains(d, want) {
			t.Errorf("disassembly missing %q:\n%s", want, d)
		}
	}
}

func TestNumInstrs(t *testing.T) {
	p := validProgram()
	if p.NumInstrs() != 4 {
		t.Errorf("NumInstrs = %d, want 4", p.NumInstrs())
	}
}

func TestUsesNeverPanics(t *testing.T) {
	// Property: Uses and Def are total over all opcodes.
	f := func(op uint8, rd, rs, rt uint32) bool {
		in := Instr{Op: Op(op % uint8(numOps)), Rd: Reg(rd), Rs: Reg(rs), Rt: Reg(rt)}
		_ = in.Uses(nil)
		_, _ = in.Def()
		_ = in.String()
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

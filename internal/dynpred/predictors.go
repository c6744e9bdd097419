package dynpred

// Default geometry for the table-indexed predictors: sized like the
// small hardware budgets of the era the paper compares against, and
// deliberately smaller than some suite programs' branch counts so the
// aliasing real tables suffer is modeled, not assumed away.
const (
	DefaultBimodalBits   = 12 // 4096-entry bimodal table
	DefaultGshareBits    = 12 // 4096-entry gshare table
	DefaultGshareHistory = 12 // global history bits XORed into the index
)

// oneBit predicts each branch's last direction (reset: not taken).
type oneBit struct {
	last []bool
}

// NewOneBit builds a per-branch last-direction predictor.
func NewOneBit(nBranches int) Predictor {
	return &oneBit{last: make([]bool, nBranches)}
}

func (p *oneBit) Predict(branch int32) bool       { return p.last[branch] }
func (p *oneBit) Update(branch int32, taken bool) { p.last[branch] = taken }

// twoBit keeps a two-bit saturating counter per branch (states 0-3;
// predict taken at 2 and 3), initialized weakly-not-taken.
type twoBit struct {
	state []uint8
}

// NewTwoBit builds a per-branch two-bit saturating-counter predictor.
func NewTwoBit(nBranches int) Predictor {
	p := &twoBit{state: make([]uint8, nBranches)}
	for i := range p.state {
		p.state[i] = 1 // weakly not taken
	}
	return p
}

func (p *twoBit) Predict(branch int32) bool { return p.state[branch] >= 2 }

func (p *twoBit) Update(branch int32, taken bool) {
	p.state[branch] = sat2(p.state[branch], taken)
}

// sat2 advances a two-bit saturating counter.
func sat2(s uint8, taken bool) uint8 {
	if taken {
		if s < 3 {
			s++
		}
	} else if s > 0 {
		s--
	}
	return s
}

// bimodal is the classic PC-indexed counter table: branch IDs index a
// bounded table of two-bit counters modulo its size, so distinct
// branches alias exactly as they do in hardware.
type bimodal struct {
	table []uint8
	mask  int32
}

// NewBimodal builds a 2^bits-entry bimodal table predictor.
func NewBimodal(bits int) Predictor {
	n := 1 << bits
	p := &bimodal{table: make([]uint8, n), mask: int32(n - 1)}
	for i := range p.table {
		p.table[i] = 1 // weakly not taken
	}
	return p
}

func (p *bimodal) Predict(branch int32) bool { return p.table[branch&p.mask] >= 2 }

func (p *bimodal) Update(branch int32, taken bool) {
	i := branch & p.mask
	p.table[i] = sat2(p.table[i], taken)
}

// gshare XORs the global branch-history register into the table index,
// so the same branch trains different counters in different history
// contexts — catching correlated branches bimodal structurally cannot.
type gshare struct {
	table    []uint8
	mask     uint32
	hist     uint32
	histMask uint32
}

// NewGshare builds a 2^bits-entry gshare predictor tracking histBits of
// global history.
func NewGshare(bits, histBits int) Predictor {
	n := 1 << bits
	p := &gshare{
		table:    make([]uint8, n),
		mask:     uint32(n - 1),
		histMask: uint32(1<<histBits - 1),
	}
	for i := range p.table {
		p.table[i] = 1 // weakly not taken
	}
	return p
}

func (p *gshare) index(branch int32) uint32 {
	return (uint32(branch) ^ p.hist) & p.mask
}

func (p *gshare) Predict(branch int32) bool { return p.table[p.index(branch)] >= 2 }

func (p *gshare) Update(branch int32, taken bool) {
	i := p.index(branch)
	p.table[i] = sat2(p.table[i], taken)
	// Branchless history shift: the SupraX idiom.
	p.hist = ((p.hist << 1) | b2u(taken)) & p.histMask
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

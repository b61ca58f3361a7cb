package trace

import (
	"fmt"

	"mediasmt/internal/isa"
)

// Ctx carries the dynamic context handed to address and branch-outcome
// callbacks: the current iteration of the enclosing phase, the current
// round of the whole script, and the script's RNG.
type Ctx struct {
	Iter  int64
	Round int64
	RNG   *RNG
}

// AddrFn computes the effective address of a memory slot for one
// dynamic execution.
type AddrFn func(c *Ctx) uint64

// TakenFn computes the outcome of a conditional branch slot.
type TakenFn func(c *Ctx) bool

// Slot is one static instruction in a phase body. Registers are
// architectural; dynamic fields (address, branch outcome) are produced
// by the callbacks each time the slot executes.
type Slot struct {
	Op        isa.Opcode
	Dst       isa.Reg
	Src1      isa.Reg
	Src2      isa.Reg
	Src3      isa.Reg
	SLen      uint8   // stream length override; 0 = phase VL
	Stride    int32   // stream element stride in bytes (memory ops)
	Addr      AddrFn  // required for memory ops
	Taken     TakenFn // optional for conditional branches
	TargetOff int32   // branch target, in slots relative to this slot
}

// Phase is a static basic-block body executed Iters times per
// activation. Each phase occupies its own code region starting at
// PCBase (4 bytes per slot), which is what the instruction cache sees.
type Phase struct {
	Name   string
	Body   []Slot
	Iters  int64
	ItersF func(round int64, rng *RNG) int64 // optional; overrides Iters
	VL     uint8                             // default stream length for MOM slots
	PCBase uint64
}

// Script generates the dynamic instruction stream of one thread: a
// list of phases executed in order, the whole list repeated rounds
// times. It is deterministic — Reset followed by the same sequence of
// Next calls yields the same stream — and the building block for the
// media workload models.
type Script struct {
	phases []Phase
	rounds int64
	seed   uint64

	rng   RNG
	round int64
	pi    int
	iter  int64
	iters int64
	si    int
	done  bool

	// ctx is the reused callback context. Passing a stack-local Ctx to
	// the Addr/Taken function values makes it escape, costing one heap
	// allocation per memory or branch instruction — on the simulator's
	// hot path that is most of the trace generator's allocation volume.
	ctx Ctx
}

// NewScript builds a script. It validates phase bodies eagerly: memory
// slots need an address callback, branch targets must stay within the
// body (or exit at its end), and phases must run at least one slot.
func NewScript(name string, seed uint64, rounds int64, phases []Phase) (*Script, error) {
	if rounds <= 0 {
		return nil, fmt.Errorf("trace: script %q: rounds must be positive, got %d", name, rounds)
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("trace: script %q: no phases", name)
	}
	for pi := range phases {
		ph := &phases[pi]
		if len(ph.Body) == 0 {
			return nil, fmt.Errorf("trace: script %q: phase %q has empty body", name, ph.Name)
		}
		if ph.Iters <= 0 && ph.ItersF == nil {
			return nil, fmt.Errorf("trace: script %q: phase %q has no iterations", name, ph.Name)
		}
		for si := range ph.Body {
			sl := &ph.Body[si]
			inf := sl.Op.Info()
			if inf.Mem != isa.MemNone && sl.Addr == nil {
				return nil, fmt.Errorf("trace: script %q: phase %q slot %d (%s): memory op without Addr", name, ph.Name, si, sl.Op)
			}
			if inf.Branch {
				tgt := si + int(sl.TargetOff)
				if tgt < 0 || tgt > len(ph.Body) {
					return nil, fmt.Errorf("trace: script %q: phase %q slot %d (%s): branch target %d out of body", name, ph.Name, si, sl.Op, tgt)
				}
			}
		}
	}
	s := &Script{phases: phases, rounds: rounds, seed: seed}
	s.Reset()
	return s, nil
}

// MustScript is NewScript that panics on error; for use in workload
// model construction where the inputs are compile-time constants.
func MustScript(name string, seed uint64, rounds int64, phases []Phase) *Script {
	s, err := NewScript(name, seed, rounds, phases)
	if err != nil {
		panic(err)
	}
	return s
}

// Reset rewinds the script to its initial state.
func (s *Script) Reset() {
	s.rng.Seed(s.seed)
	s.round = 0
	s.pi = 0
	s.iter = 0
	s.si = 0
	s.done = false
	s.iters = s.phaseIters()
}

func (s *Script) phaseIters() int64 {
	ph := &s.phases[s.pi]
	if ph.ItersF != nil {
		n := ph.ItersF(s.round, &s.rng)
		if n < 1 {
			n = 1
		}
		return n
	}
	return ph.Iters
}

// Next fills in the next dynamic instruction and reports whether one
// was produced; false means the script has terminated.
func (s *Script) Next(in *Inst) bool {
	if s.done {
		return false
	}
	// Advance over exhausted bodies/phases/rounds.
	for {
		ph := &s.phases[s.pi]
		if s.si < len(ph.Body) {
			break
		}
		s.si = 0
		s.iter++
		if s.iter < s.iters {
			continue
		}
		s.iter = 0
		s.pi++
		if s.pi < len(s.phases) {
			s.iters = s.phaseIters()
			continue
		}
		s.pi = 0
		s.round++
		if s.round >= s.rounds {
			s.done = true
			return false
		}
		s.iters = s.phaseIters()
	}

	ph := &s.phases[s.pi]
	sl := &ph.Body[s.si]
	inf := sl.Op.Info()

	in.Op = sl.Op
	in.Dst = sl.Dst
	in.Src1 = sl.Src1
	in.Src2 = sl.Src2
	in.Src3 = sl.Src3
	in.PC = ph.PCBase + uint64(s.si)*4
	in.Stride = sl.Stride
	in.Addr = 0
	in.Target = 0
	in.Taken = false

	in.SLen = 1
	if inf.Stream {
		switch {
		case sl.SLen > 0:
			in.SLen = sl.SLen
		case ph.VL > 0:
			in.SLen = ph.VL
		}
		if in.SLen > isa.MaxStreamLen {
			in.SLen = isa.MaxStreamLen
		}
	}

	s.ctx.Iter, s.ctx.Round, s.ctx.RNG = s.iter, s.round, &s.rng
	if inf.Mem != isa.MemNone {
		in.Addr = sl.Addr(&s.ctx)
		if in.Stride == 0 {
			in.Stride = isa.VecElemBytes
		}
	}
	if inf.Branch {
		in.Target = ph.PCBase + uint64(s.si+int(sl.TargetOff))*4
		switch {
		case !inf.Cond:
			in.Taken = true
		case sl.Taken != nil:
			in.Taken = sl.Taken(&s.ctx)
		case sl.TargetOff < 0:
			// Default backward conditional branch: loop back-edge,
			// taken until the phase activation's last iteration.
			in.Taken = s.iter+1 < s.iters
		default:
			in.Taken = false
		}
	}

	s.si++
	return true
}

// Footprint returns the script's static code size in bytes: the sum of
// its phase bodies at 4 bytes per slot. The instruction cache pressure
// of a workload comes from this footprint.
func (s *Script) Footprint() int64 {
	var n int64
	for i := range s.phases {
		n += int64(len(s.phases[i].Body)) * 4
	}
	return n
}

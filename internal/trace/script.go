package trace

import (
	"fmt"

	"mediasmt/internal/isa"
)

// Addr describes the effective address of a memory slot: one of two
// patterns over the region [Base, Base+Size).
//
//   - A walk (Align 0): Base + (Round·RoundSkip + (Iter·PerIter + Off)
//     mod Win) mod Size, where Iter is the iteration of the enclosing
//     phase activation and Round the round of the whole script. The
//     window of Win bytes holds what a kernel revisits; it moves by
//     RoundSkip bytes per round. Win equal to Size is a plain
//     sequential walk.
//   - A random aligned pick (Align > 0): Base + Align·rng.Intn(Size/Align),
//     drawn from the script's RNG (table lookups).
//
// The zero Addr is unusable; NewScript refuses it on a memory slot.
type Addr struct {
	Base      uint64
	Size      uint32 // region bytes; positive
	Win       uint32 // walk: window bytes; positive
	PerIter   uint32 // walk: bytes advanced per iteration
	Off       uint32 // walk: offset within the window
	RoundSkip uint32 // walk: bytes the window moves per round
	Align     uint32 // random pick: alignment in bytes, at most Size
}

// Slot is one static instruction in a phase body. Registers are
// architectural; the dynamic fields of each execution are computed by
// Script.Next from the slot's data: the address from Addr, and a
// conditional branch's outcome from Taken, drawn from the script's RNG
// when positive. A Taken of 0 keeps the default rule: a back-edge loops
// until the activation's last iteration and a forward branch falls
// through. Unconditional branches are always taken. A slot holds no
// pointer, so a phase body is a plain value.
type Slot struct {
	Op        isa.Opcode
	Dst       isa.Reg
	Src1      isa.Reg
	Src2      isa.Reg
	Src3      isa.Reg
	SLen      uint8   // stream length override; 0 = phase VL
	TargetOff int32   // branch target, in slots relative to this slot
	Taken     float64 // conditional branches: taken probability in [0, 1]
	Addr      Addr    // required for memory ops
}

// Phase is a static basic-block body executed Iters times per
// activation, or Iters ± Jitter times (at least once) when Jitter is
// positive: media programs are data dependent, so the amount of entropy
// coding per macroblock changes with content. Each phase occupies its
// own code region starting at PCBase (4 bytes per slot), which is what
// the instruction cache sees.
type Phase struct {
	Name   string
	Body   []Slot
	Iters  int64
	Jitter int64 // iterations drawn uniformly in [Iters-Jitter, Iters+Jitter]
	VL     uint8 // default stream length for MOM slots
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
}

// NewScript builds a script. It validates phase bodies eagerly: memory
// slots need a usable Addr, branch targets must stay within the body
// (or exit at its end) and taken probabilities within [0, 1], and
// phases must run at least one slot.
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
		if ph.Iters <= 0 || ph.Jitter < 0 {
			return nil, fmt.Errorf("trace: script %q: phase %q needs Iters > 0 and Jitter >= 0, got %d and %d", name, ph.Name, ph.Iters, ph.Jitter)
		}
		for si := range ph.Body {
			sl := &ph.Body[si]
			inf := sl.Op.Info()
			if inf.Mem != isa.MemNone && !sl.Addr.usable() {
				return nil, fmt.Errorf("trace: script %q: phase %q slot %d (%s): memory op without a usable Addr %+v", name, ph.Name, si, sl.Op, sl.Addr)
			}
			if inf.Branch {
				tgt := si + int(sl.TargetOff)
				if tgt < 0 || tgt > len(ph.Body) {
					return nil, fmt.Errorf("trace: script %q: phase %q slot %d (%s): branch target %d out of body", name, ph.Name, si, sl.Op, tgt)
				}
				if !(sl.Taken >= 0 && sl.Taken <= 1) {
					return nil, fmt.Errorf("trace: script %q: phase %q slot %d (%s): taken probability %g outside [0, 1]", name, ph.Name, si, sl.Op, sl.Taken)
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

// phaseIters draws the iteration count of the phase activation that
// starts now.
func (s *Script) phaseIters() int64 {
	ph := &s.phases[s.pi]
	if ph.Jitter == 0 {
		return ph.Iters
	}
	return max(1, ph.Iters-ph.Jitter+int64(s.rng.Intn(int(2*ph.Jitter+1))))
}

// usable reports whether every pick of a is defined: an alignment that
// fits in the region, or a nonempty region and window.
func (a *Addr) usable() bool {
	if a.Align > 0 {
		return a.Align <= a.Size
	}
	return a.Size > 0 && a.Win > 0
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
	in.Stride = 0
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

	if a := &sl.Addr; inf.Mem != isa.MemNone {
		if a.Align > 0 {
			in.Addr = a.Base + uint64(a.Align)*uint64(s.rng.Intn(int(a.Size/a.Align)))
		} else {
			walk := (uint64(s.iter)*uint64(a.PerIter) + uint64(a.Off)) % uint64(a.Win)
			in.Addr = a.Base + (uint64(s.round)*uint64(a.RoundSkip)+walk)%uint64(a.Size)
		}
		in.Stride = isa.VecElemBytes
	}
	if inf.Branch {
		in.Target = ph.PCBase + uint64(s.si+int(sl.TargetOff))*4
		switch {
		case !inf.Cond:
			in.Taken = true
		case sl.Taken > 0:
			in.Taken = s.rng.Bool(sl.Taken)
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

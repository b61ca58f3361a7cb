package trace

import "mediasmt/internal/isa"

// Mix is an instruction-mix census of a program: raw dynamic counts and
// equivalent counts (MOM stream instructions expanded by their stream
// length, per the paper's Table 3 accounting).
type Mix struct {
	Counts   [isa.NumClasses]int64 // raw instructions per class
	Equiv    [isa.NumClasses]int64 // stream-expanded instructions per class
	Total    int64
	TotalEq  int64
	Branches int64
	MemElems int64 // element-level memory accesses (stream ops expanded)
}

// Add accumulates one dynamic instruction into the mix.
func (m *Mix) Add(in *Inst) {
	inf := in.Op.Info()
	eq := int64(in.Equiv())
	m.Counts[inf.Class]++
	m.Equiv[inf.Class] += eq
	m.Total++
	m.TotalEq += eq
	if inf.Branch {
		m.Branches++
	}
	if inf.Mem != isa.MemNone {
		m.MemElems += eq
	}
}

// Pct returns the equivalent-count percentage of a class, matching the
// paper's Table 3 presentation.
func (m *Mix) Pct(c isa.Class) float64 {
	if m.TotalEq == 0 {
		return 0
	}
	return 100 * float64(m.Equiv[c]) / float64(m.TotalEq)
}

// CountMix runs a script to completion (resetting it before and after)
// and returns its instruction mix. It is the dry pass used to compute
// Table 3 and the per-benchmark EIPC conversion factors.
func CountMix(p *Script) Mix {
	p.Reset()
	var m Mix
	var in Inst
	for p.Next(&in) {
		m.Add(&in)
	}
	p.Reset()
	return m
}

package core

// PipelineSample is a point-in-time view of pipeline state, delivered
// through Hooks.Sample. Occupancy fields are instantaneous; the
// Committed/stall fields are the cumulative Stats counters at sample
// time, so a consumer can turn them into rates by differencing
// consecutive samples.
type PipelineSample struct {
	Cycle int64

	// QueueOcc and QueueReady index by queue id: int, mem, fp, simd
	// (see QueueNames). Ready entries are un-issued uops whose sources
	// are all available.
	QueueOcc   [4]int
	QueueReady [4]int

	ROBOcc      int // graduation-window entries summed over threads
	FetchQOcc   int // fetch-queue entries summed over threads
	Inflight    int // issued, not yet written back
	ActiveLoads int // loads with outstanding memory elements

	Committed    int64
	ROBStalls    int64
	RenameStalls int64
	QueueStalls  int64
}

// QueueNames names the issue queues in PipelineSample order, for use
// as metric labels.
var QueueNames = [4]string{"int", "mem", "fp", "simd"}

// Hooks is the processor's sampling seam. Sample fires every Every
// EXECUTED cycles — cycles the pipeline actually runs, not cycles the
// event engine provably skips via AdvanceTo. That keeps the hook
// entirely off the NextWakeup/AdvanceTo path: installing hooks never
// changes which cycles execute, so simulation results are identical
// with hooks on or off, and a disabled processor pays one nil check
// per cycle.
type Hooks struct {
	// Every is the sampling period in executed cycles; values < 1 are
	// treated as 1.
	Every int64
	// Sample receives the state snapshot. It runs synchronously inside
	// Cycle, so it must be cheap and must not call back into the
	// Processor.
	Sample func(PipelineSample)
}

// SetHooks installs (or, with nil, removes) the sampling hooks.
func (p *Processor) SetHooks(h *Hooks) {
	if h != nil && h.Sample == nil {
		h = nil
	}
	p.hooks = h
	if h != nil {
		p.hookCountdown = max(h.Every, 1)
	}
}

// sampleHooks fires the installed hook when its countdown expires; the
// caller (Cycle) has already checked p.hooks != nil.
func (p *Processor) sampleHooks() {
	p.hookCountdown--
	if p.hookCountdown > 0 {
		return
	}
	p.hookCountdown = max(p.hooks.Every, 1)
	s := PipelineSample{
		Cycle:        p.now,
		QueueOcc:     [4]int{len(p.q[qidInt]), len(p.q[qidMem]), len(p.q[qidFP]), len(p.q[qidSIMD])},
		QueueReady:   p.readyCount,
		Inflight:     len(p.inflight),
		ActiveLoads:  len(p.activeLoads),
		Committed:    p.st.Committed,
		ROBStalls:    p.st.ROBStalls,
		RenameStalls: p.st.RenameStalls,
		QueueStalls:  p.st.QueueStalls,
	}
	for i := range p.threads {
		s.ROBOcc += p.threads[i].robCount
		s.FetchQOcc += p.threads[i].fqCount
	}
	p.hooks.Sample(s)
}

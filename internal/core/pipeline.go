package core

import (
	"fmt"
	"math/bits"

	"mediasmt/internal/isa"
	"mediasmt/internal/mem"
	"mediasmt/internal/trace"
)

// uop is one in-flight instruction. It keeps only what the stages
// after rename read, packed so it spans fewer cache lines.
type uop struct {
	info        *isa.OpInfo
	seq         uint64
	doneAt      int64
	addrReadyAt int64
	addr        uint64 // first element address (memory operations)
	stride      int32
	equiv       int32 // stream-expanded instruction count
	thread      int32

	dstPhys int32
	oldDst  int32
	srcPhys [3]int32

	// Scoreboard wakeup: waitCount is the number of source registers
	// still outstanding (the uop is ready to issue when it reaches 0).
	waitCount int32

	// Memory state.
	elemsTotal int32
	elemsSent  int32
	elemsDone  int32

	// memTag is the load's slot in Processor.loadSlots while its element
	// accesses are outstanding in the memory system; -1 otherwise. The
	// memory system echoes it back on each Completion, making completion
	// routing an array index instead of a map lookup.
	memTag int32

	dstFile isa.RegFile
	srcFile [3]isa.RegFile
	nsrc    uint8
	qid     uint8 // issue queue holding the uop, for the per-queue ready counters

	mispred   bool
	issued    bool
	completed bool
	isLoad    bool
	isStore   bool
	isVector  bool
	forwarded bool
}

type fqEntry struct {
	in      trace.Inst
	mispred bool
	qid     uint8 // the issue queue it dispatches into, decided at fetch
}

// threadState is one hardware context. The fields every stage reads
// each cycle come first, so a thread's per-cycle checks touch as few
// cache lines as possible.
type threadState struct {
	id           int
	idle         bool
	hasPend      bool
	progEnd      bool
	fetchBlocked bool
	fetchedVec   bool
	stallUntil   int64

	// fq is the fetch queue, a fixed-capacity ring (popping the head
	// must not shift the body: dispatch pops up to DecodeWidth entries
	// per cycle). headQid and headDst copy the head entry's queue and
	// destination while fqCount > 0, so the per-cycle dispatch stall
	// test reads no queue entry.
	fq      []fqEntry
	fqHead  int
	fqCount int
	headQid uint8
	headDst isa.Reg

	rob      []*uop
	robHead  int
	robCount int

	frontCount int // ICOUNT: fetched but not yet issued
	opCount    int // OCOUNT: same, weighted by stream length

	prog    *trace.Script
	factor  float64
	pending trace.Inst

	rmap [6][]int32

	pendingStores []*uop
}

func (t *threadState) robFull() bool { return t.robCount == len(t.rob) }

func (t *threadState) fqFront() *fqEntry { return &t.fq[t.fqHead] }

// The rings wrap by compare, not %: the ROB has 48 entries at eight
// threads, so a modulus there is a hardware divide every cycle.

// fqPush appends an entry to the fetch queue and returns it for the
// caller to fill in.
func (t *threadState) fqPush() *fqEntry {
	i := t.fqHead + t.fqCount
	if i >= len(t.fq) {
		i -= len(t.fq)
	}
	t.fqCount++
	return &t.fq[i]
}

func (t *threadState) fqPop() {
	if t.fqHead++; t.fqHead == len(t.fq) {
		t.fqHead = 0
	}
	if t.fqCount--; t.fqCount > 0 {
		t.headQid, t.headDst = t.fq[t.fqHead].qid, t.fq[t.fqHead].in.Dst
	}
}

func (t *threadState) robPush(u *uop) {
	i := t.robHead + t.robCount
	if i >= len(t.rob) {
		i -= len(t.rob)
	}
	t.rob[i] = u
	t.robCount++
}

func (t *threadState) robPop() {
	t.rob[t.robHead] = nil
	if t.robHead++; t.robHead == len(t.rob) {
		t.robHead = 0
	}
	t.robCount--
}

// advance pulls the next instruction of the program into the lookahead
// slot.
func (t *threadState) advance() {
	if t.prog == nil || t.progEnd {
		t.hasPend = false
		return
	}
	if t.prog.Next(&t.pending) {
		t.hasPend = true
	} else {
		t.hasPend = false
		t.progEnd = true
	}
}

// Processor is the SMT out-of-order core.
type Processor struct {
	cfg     Config
	memsys  mem.System
	pred    *Predictor
	rf      regFiles
	threads []threadState

	// q holds the issue queues indexed by qid, qCap their capacities.
	q    [4][]*uop
	qCap [4]int

	// The summaries below are updated where the fact they record
	// changes, so the per-cycle stages test a word instead of
	// rescanning the structures underneath.
	//
	// readyCount[qid] is the number of un-issued entries in that queue
	// whose sources are all available. Issue scans (and the issue part
	// of NextWakeup) skip a queue whose count is zero, which is most
	// queues on most cycles. fullQ has bit qid set while that queue is
	// at capacity. headDone has bit t set while thread t's graduation
	// window head has completed. fetchable has bit t set while thread t
	// passes canFetch's core-side tests (refreshFetch). nextDone is the
	// earliest doneAt in inflight (NoWakeup when it is empty).
	readyCount [4]int
	fullQ      uint8
	headDone   uint64
	fetchable  uint64
	nextDone   int64

	inflight    []*uop
	activeLoads []*uop

	// loadSlots is the tag space for loads in the memory system: a load
	// occupies one slot from issue until its last element completes, and
	// the slot index is the Request tag. Tags are opaque identity to the
	// memory system, so slot reuse is safe the moment a load completes
	// (no completion can still be in flight for a freed slot: a load
	// completes only after every element it sent has drained).
	loadSlots []*uop
	freeSlots []int32

	// drainFn is the completion callback handed to mem.System.Drain,
	// bound once at construction: rebuilding the closure every executed
	// cycle was one heap allocation per cycle. drainNow carries the
	// cycle argument.
	drainFn  func(mem.Completion)
	drainNow int64

	// uopPool recycles retired uops: by retirement a uop has issued,
	// completed and left every queue, waiter list and lookup structure,
	// so reuse is safe and saves an allocation per instruction.
	uopPool []*uop

	mediaBusyUntil []int64
	fpDivBusyUntil []int64

	simdInFlight int

	now     int64
	seq     uint64
	rr      int
	ordBuf  []int
	keysBuf []int

	// per-cycle issue census
	intIssuedNow  int
	simdIssuedNow int

	// drainSignal is set by retire when a context runs out of program
	// work; TakeDrainSignal hands it to the run loop, which only then
	// needs to scan contexts for relaunch.
	drainSignal bool

	st Stats
}

// New builds a processor over the given memory system.
func New(cfg Config, m mem.System) (*Processor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &Processor{
		cfg:            cfg,
		memsys:         m,
		pred:           NewPredictor(cfg.PredTableBits, cfg.PredHistBits, cfg.Threads),
		rf:             newRegFiles(&cfg),
		mediaBusyUntil: make([]int64, cfg.MediaUnits),
		fpDivBusyUntil: make([]int64, cfg.FPDivs),
		threads:        make([]threadState, cfg.Threads),
		qCap:           [4]int{qidInt: cfg.IQSize, qidMem: cfg.MQSize, qidFP: cfg.FQSize, qidSIMD: cfg.SQSize},
		nextDone:       NoWakeup,
		ordBuf:         make([]int, cfg.Threads),
		keysBuf:        make([]int, cfg.Threads),
	}
	p.drainFn = p.onLoadCompletion
	for qid, c := range p.qCap {
		p.q[qid] = make([]*uop, 0, c)
	}
	p.st.PerThreadCommitted = make([]int64, cfg.Threads)

	for i := range p.threads {
		th := &p.threads[i]
		*th = threadState{
			id:   i,
			idle: true,
			rob:  make([]*uop, cfg.ROBPerThread),
			fq:   make([]fqEntry, cfg.FetchQCap),
		}
		for f := isa.RFInt; f <= isa.RFAcc; f++ {
			n := isa.LogicalRegs(f)
			th.rmap[f] = make([]int32, n)
			for l := 0; l < n; l++ {
				r, ok := p.rf.file(f).alloc()
				if !ok {
					return nil, fmt.Errorf("core: not enough %v physical registers for %d threads", f, cfg.Threads)
				}
				p.rf.file(f).ready[r] = true
				th.rmap[f][l] = r
			}
		}
	}
	return p, nil
}

// Stats returns the accumulated statistics.
func (p *Processor) Stats() *Stats { return &p.st }

// Now returns the current cycle.
func (p *Processor) Now() int64 { return p.now }

// SetProgram installs a program on a hardware context. factor is the
// EIPC conversion weight credited per committed instruction of this
// program (the per-benchmark MMX/MOM instruction-count ratio; 1 for
// MMX runs). The context must be drained.
func (p *Processor) SetProgram(ctx int, prog *trace.Script, factor float64) {
	th := &p.threads[ctx]
	if !p.ContextDrained(ctx) {
		panic(fmt.Sprintf("core: SetProgram on busy context %d", ctx))
	}
	th.prog = prog
	th.factor = factor
	th.progEnd = false
	th.idle = prog == nil
	th.fetchBlocked = false
	th.stallUntil = p.now
	th.fqHead, th.fqCount = 0, 0
	th.frontCount = 0
	th.opCount = 0
	th.hasPend = false
	if prog != nil {
		th.advance()
	}
	p.refreshFetch(th)
}

// ContextDrained reports whether a context has no program work left:
// its program stream is exhausted (or absent) and the pipeline holds
// none of its instructions.
func (p *Processor) ContextDrained(ctx int) bool {
	th := &p.threads[ctx]
	if th.idle {
		return true
	}
	return th.progEnd && !th.hasPend && th.fqCount == 0 && th.robCount == 0
}

// Busy reports whether any context still has work.
func (p *Processor) Busy() bool {
	for i := range p.threads {
		if !p.ContextDrained(i) {
			return true
		}
	}
	return false
}

// Cycle advances the processor by one clock. Stages run in reverse
// pipeline order so same-cycle forwarding needs no double buffering.
func (p *Processor) Cycle() {
	now := p.now
	p.intIssuedNow, p.simdIssuedNow = 0, 0

	// The Drain callback is the pre-bound drainFn (a closure here would
	// cost a heap allocation per executed cycle); drainNow carries now.
	p.drainNow = now
	p.memsys.Drain(now, p.drainFn)
	p.writeback(now)
	p.commit(now)
	p.sendLoadElements(now)
	p.issue(now)
	p.dispatch()
	p.fetch(now)
	p.memsys.Tick(now)

	switch {
	case p.intIssuedNow == 0 && p.simdIssuedNow == 0:
		p.st.CyclesNoIssue++
	case p.simdIssuedNow > 0 && p.intIssuedNow == 0:
		p.st.CyclesOnlyVector++
	case p.simdIssuedNow == 0:
		p.st.CyclesOnlyScalar++
	default:
		p.st.CyclesMixed++
	}

	p.st.Cycles++
	p.now++
}

// fetch selects up to FetchGroups threads by the configured policy and
// pulls up to GroupSize instructions from each, stopping a group at a
// taken branch. A mispredicted conditional branch blocks the thread's
// fetch until the branch resolves (the simulator never fetches a wrong
// path; the misprediction cost is the stall plus the redirect penalty).
func (p *Processor) fetch(now int64) {
	groups := 0
	for _, ti := range p.fetchOrder(now) {
		if groups >= p.cfg.FetchGroups {
			break
		}
		th := &p.threads[ti]
		switch p.memsys.FetchLine(now, ti, th.pending.PC) {
		case mem.FetchBusy:
			p.st.FetchConflict++
			continue
		case mem.FetchMiss:
			p.st.ICacheStalls++
			groups++
			continue
		}
		groups++
		th.fetchedVec = false
		for n := 0; n < p.cfg.GroupSize && th.hasPend && th.fqCount < p.cfg.FetchQCap; n++ {
			e := th.fqPush()
			e.in = th.pending
			in := &e.in
			inf := in.Op.Info()
			e.mispred = false
			if inf.Branch && inf.Cond {
				p.st.CondBranches++
				if p.pred.PredictAndTrain(ti, in.PC, in.Taken) != in.Taken {
					e.mispred = true
					p.st.Mispredicts++
				}
			}
			e.qid = queueOf(inf)
			if th.fqCount == 1 {
				th.headQid, th.headDst = e.qid, in.Dst
			}
			th.frontCount++
			th.opCount += in.Equiv()
			th.fetchedVec = th.fetchedVec || !in.Op.IsScalar()
			th.advance()
			p.st.Fetched++
			if inf.Branch && (e.mispred || in.Taken) {
				if e.mispred {
					th.fetchBlocked = true
				}
				break
			}
		}
		p.refreshFetch(th)
	}
	if p.rr++; p.rr == p.cfg.Threads {
		p.rr = 0
	}
}

// canFetch reports whether a context may fetch this cycle. Another
// context's fetch never changes the answer (an I-cache miss blocks only
// the missing thread), so fetchOrder asks once per cycle.
func (p *Processor) canFetch(th *threadState, now int64) bool {
	return p.fetchable&(1<<th.id) != 0 && now >= th.stallUntil && p.memsys.FetchReady(th.id)
}

// refreshFetch recomputes th's fetchable bit; every writer of the
// fields it tests calls it.
func (p *Processor) refreshFetch(th *threadState) {
	p.fetchable &^= 1 << th.id
	if !th.idle && th.hasPend && !th.fetchBlocked && th.fqCount < p.cfg.FetchQCap {
		p.fetchable |= 1 << th.id
	}
}

// vecPipeEmpty reports whether the vector pipeline has no work (used
// by the BALANCE policy).
func (p *Processor) vecPipeEmpty(now int64) bool {
	if len(p.q[qidSIMD]) > 0 || p.simdInFlight > 0 {
		return false
	}
	for _, b := range p.mediaBusyUntil {
		if b > now {
			return false
		}
	}
	return true
}

// fetchOrder ranks the contexts that can fetch this cycle according
// to the configured policy.
func (p *Processor) fetchOrder(now int64) []int {
	order, keys := p.ordBuf[:0], p.keysBuf[:0]
	empty := p.cfg.Policy == PolicyBALANCE && p.vecPipeEmpty(now)
	for set := p.rotated(p.fetchable); set != 0; set &= set - 1 {
		t := p.threadAt(bits.TrailingZeros64(set))
		if th := &p.threads[t]; p.canFetch(th, now) {
			k := 0
			switch p.cfg.Policy {
			case PolicyICOUNT:
				k = th.frontCount
			case PolicyOCOUNT:
				k = th.opCount
			case PolicyBALANCE:
				if th.fetchedVec != empty {
					k = 1
				}
			}
			order, keys = append(order, t), append(keys, k)
		}
	}
	// Stable insertion sort: ties keep round-robin rotation order.
	for i := 1; i < len(order); i++ {
		t, k := order[i], keys[i]
		j := i - 1
		for j >= 0 && keys[j] > k {
			order[j+1], keys[j+1] = order[j], keys[j]
			j--
		}
		order[j+1], keys[j+1] = t, k
	}
	return order
}

// rotated returns a thread mask rotated right by rr, so that bit i
// names thread threadAt(i): walking the set bits lowest first visits
// threads in round-robin order.
func (p *Processor) rotated(m uint64) uint64 {
	n, r := uint(p.cfg.Threads), uint(p.rr)
	return (m>>r | m<<(n-r)) & (1<<n - 1)
}

func (p *Processor) threadAt(i int) int {
	if t := p.rr + i; t < p.cfg.Threads {
		return t
	}
	return p.rr + i - p.cfg.Threads
}

// dispatch renames and inserts fetched instructions into the
// graduation window and issue queues, in order within each thread,
// round-robin across threads, up to DecodeWidth per cycle. live holds
// the threads with fetched instructions that have not stalled this
// cycle; a round that dispatches nothing empties it.
func (p *Processor) dispatch() {
	var live uint64
	for i := range p.threads {
		if p.threads[i].fqCount > 0 {
			live |= 1 << i
		}
	}
	for budget := p.cfg.DecodeWidth; live != 0 && budget > 0; {
		for set := p.rotated(live); set != 0 && budget > 0; set &= set - 1 {
			ti := p.threadAt(bits.TrailingZeros64(set))
			th := &p.threads[ti]
			if !p.dispatchOne(th) {
				live &^= 1 << ti // in-order within a thread: stop on stall
				continue
			}
			budget--
			if th.fqCount == 0 {
				live &^= 1 << ti
			}
		}
	}
}

// Issue-queue identifiers, indexing Processor.readyCount.
const (
	qidInt uint8 = iota
	qidMem
	qidFP
	qidSIMD
)

// queueOf returns the issue queue an instruction dispatches into.
func queueOf(inf *isa.OpInfo) uint8 {
	switch {
	case inf.Mem != isa.MemNone:
		return qidMem
	case inf.Unit == isa.UnitMedia:
		return qidSIMD
	case inf.Class == isa.ClassFP:
		return qidFP
	}
	return qidInt
}

// dispatchStall returns the counter charged when the thread's oldest
// fetched instruction cannot dispatch — no graduation-window room, a
// full issue queue, or no free destination register, tested in that
// order — or nil when it can. dispatchOne charges it once per blocked
// attempt, AdvanceTo once per skipped cycle, and canDispatchAny asks
// whether it is nil.
func (p *Processor) dispatchStall(th *threadState) *int64 {
	switch {
	case th.robFull():
		return &p.st.ROBStalls
	case p.fullQ&(1<<th.headQid) != 0:
		return &p.st.QueueStalls
	case th.headDst != isa.RegNone && len(p.rf.file(th.headDst.File()).free) == 0:
		return &p.st.RenameStalls
	}
	return nil
}

// dispatchOne renames the thread's oldest fetched instruction. It
// reports false on a structural stall (window, queue or rename pool).
func (p *Processor) dispatchOne(th *threadState) bool {
	if c := p.dispatchStall(th); c != nil {
		*c++
		return false
	}
	e := th.fqFront()

	var u *uop
	if n := len(p.uopPool); n > 0 {
		u = p.uopPool[n-1]
		p.uopPool[n-1] = nil
		p.uopPool = p.uopPool[:n-1]
		*u = uop{}
	} else {
		u = new(uop)
	}
	inf := e.in.Op.Info()
	u.info = inf
	u.addr, u.stride, u.equiv = e.in.Addr, e.in.Stride, int32(e.in.Equiv())
	u.thread = int32(th.id)
	u.mispred = e.mispred
	u.dstPhys, u.oldDst = -1, -1
	u.srcPhys[0], u.srcPhys[1], u.srcPhys[2] = -1, -1, -1

	// Rename sources against the current map.
	for i, r := range [3]isa.Reg{e.in.Src1, e.in.Src2, e.in.Src3} {
		if r == isa.RegNone {
			continue
		}
		u.srcFile[i] = r.File()
		u.srcPhys[i] = th.rmap[r.File()][r.Idx()]
		u.nsrc = uint8(i + 1)
	}

	// Allocate the destination (dispatchStall saw a free register).
	if d := e.in.Dst; d != isa.RegNone {
		f := d.File()
		phys, _ := p.rf.file(f).alloc()
		u.dstFile = f
		u.dstPhys = phys
		u.oldDst = th.rmap[f][d.Idx()]
		th.rmap[f][d.Idx()] = phys
	}

	u.seq = p.seq
	p.seq++

	if inf.Mem != isa.MemNone {
		u.isLoad = inf.Mem == isa.MemLoad
		u.isStore = inf.Mem == isa.MemStore
		u.isVector = !e.in.Op.IsScalar()
		u.elemsTotal = u.equiv
	}

	th.fqPop()
	p.refreshFetch(th)
	th.robPush(u)
	if u.isStore {
		th.pendingStores = append(th.pendingStores, u)
	}

	// Scoreboard registration: park the uop on each outstanding source;
	// wakeReg counts it ready when the last producer completes. A ready
	// bit can only flip true→false through alloc, and a register is
	// never reallocated while a consumer still waits on it (in-order
	// retire frees the previous mapping only after all its readers have
	// retired), so readiness memoized here stays valid.
	qid := e.qid
	u.qid = qid
	for i := range int(u.nsrc) {
		if u.srcPhys[i] < 0 {
			continue
		}
		f := p.rf.file(u.srcFile[i])
		if !f.ready[u.srcPhys[i]] {
			f.waiters[u.srcPhys[i]] = append(f.waiters[u.srcPhys[i]], u)
			u.waitCount++
		}
	}
	if u.waitCount == 0 {
		p.readyCount[qid]++
	}
	if p.q[qid] = append(p.q[qid], u); len(p.q[qid]) >= p.qCap[qid] {
		p.fullQ |= 1 << qid
	}
	return true
}

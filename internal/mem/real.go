package mem

// Real is the detailed memory hierarchy: write-through banked L1 with
// MSHRs and a coalescing write buffer, banked instruction cache, 2-way
// write-back L2 with its own MSHRs, and the Direct Rambus channel. It
// implements both the conventional organization (four general-purpose
// memory ports into L1, Fig. 7a) and the decoupled organization (two
// double-pumped scalar ports into L1 plus two vector ports straight
// into the two-bank L2 through a crossbar, with an exclusive-bit
// coherence policy, Fig. 7b).

const l2QueueCap = 16

type mshrTarget struct {
	tag        uint64
	acceptedAt int64
}

type mshrEntry struct {
	valid    bool
	line     uint64 // L1-line aligned
	vector   bool
	prefetch bool // created by the stream prefetcher
	targets  []mshrTarget
}

type icMissEntry struct {
	valid bool
	line  uint64
}

type wbEntry struct {
	valid bool
	line  uint64 // L1-line aligned
}

// l2 request kinds.
const (
	l2FillL1  uint8 = iota // ctx = L1 MSHR index
	l2FillIC               // ctx = thread id
	l2VecLoad              // tag/acceptedAt carry the requester
	l2VecStore
	l2WBWrite // write-through drain from the write buffer
)

type l2req struct {
	kind       uint8
	started    bool
	addr       uint64
	tag        uint64
	acceptedAt int64
	ctx        int
	readyAt    int64
}

type l2MSHR struct {
	valid    bool
	line     uint64 // L2-line aligned
	sentDRAM bool
	waiters  []l2req
}

type donePair struct {
	c       Completion
	readyAt int64
}

// vecMSHR coalesces vector element accesses onto one wide L2 access
// per L2 line: the decoupled hierarchy's vector ports feed the two L2
// banks through a crossbar at line width, so a unit-stride stream of
// 16 packed registers costs one or two L2 accesses, not sixteen.
type vecMSHR struct {
	valid   bool
	line    uint64 // L2-line aligned
	store   bool
	targets []mshrTarget
}

// Real implements System.
type Real struct {
	cfg Config
	st  Stats

	l1 *cacheArray
	ic *cacheArray
	l2 *cacheArray

	l1LineShift uint
	icLineShift uint
	l2LineShift uint

	// Per-cycle port and bank usage, keyed to useCycle: the counters
	// reset lazily on the first Access/FetchLine of a new cycle (not in
	// Tick), so skipping idle cycles cannot leave stale claims behind.
	useCycle   int64
	genUsed    int
	scaUsed    int
	vecUsed    int
	icPorts    int
	l1BankUsed []bool
	icBankUsed []bool

	l1m    []mshrEntry
	icm    []icMissEntry // one outstanding I-miss per thread
	wb     []wbEntry
	l2q    []l2req // requests being serviced (owned by Tick)
	l2qIn  []l2req // inbox: new requests land here, drained by Tick
	l2m    []l2MSHR
	l2Bank []int64
	vecm   []vecMSHR

	// Maintained summaries, so the per-tick retry loops, Drain and
	// NextEvent can skip their scans on the (common) cycles where
	// nothing is due: wbValid counts valid write-buffer entries,
	// l2mUnsent counts valid L2 MSHRs that have not reached the DRAM
	// controller queue yet, l2qNext is the earliest cycle at which an
	// l2q request can start (its bank's free time) or resolve (its
	// readyAt), and doneNext is the earliest readyAt in done. Both
	// horizons are NoEvent when their queue is empty.
	wbValid   int
	l2mUnsent int
	l2qNext   int64
	doneNext  int64

	dram *dram

	done []donePair
}

// NewReal builds the detailed hierarchy for ModeConventional or
// ModeDecoupled.
func NewReal(cfg Config) *Real {
	m := &Real{
		cfg:         cfg,
		l1:          newCacheArray(cfg.L1Size, cfg.L1Line, cfg.L1Assoc),
		ic:          newCacheArray(cfg.ISize, cfg.ILine, cfg.IAssoc),
		l2:          newCacheArray(cfg.L2Size, cfg.L2Line, cfg.L2Assoc),
		l1LineShift: log2(cfg.L1Line),
		icLineShift: log2(cfg.ILine),
		l2LineShift: log2(cfg.L2Line),
		l1BankUsed:  make([]bool, cfg.L1Banks),
		icBankUsed:  make([]bool, cfg.IBanks),
		l1m:         make([]mshrEntry, cfg.L1MSHRs),
		icm:         make([]icMissEntry, MaxHWContexts),
		wb:          make([]wbEntry, cfg.WBDepth),
		l2m:         make([]l2MSHR, cfg.L2MSHRs),
		l2Bank:      make([]int64, cfg.L2Banks),
		vecm:        make([]vecMSHR, cfg.L2MSHRs),
		l2qNext:     NoEvent,
		doneNext:    NoEvent,
	}
	m.dram = newDRAM(cfg.DRAM, &m.st, cfg.L2Line)
	return m
}

// Stats implements System.
func (m *Real) Stats() *Stats { return &m.st }

func (m *Real) l1Line(addr uint64) uint64 { return addr >> m.l1LineShift << m.l1LineShift }
func (m *Real) l2Line(addr uint64) uint64 { return addr >> m.l2LineShift << m.l2LineShift }

// wbFind returns the write-buffer slot holding the line, or -1. The
// occupancy count makes the empty-buffer probe — the common case on
// load-dominated phases — a single compare instead of a scan.
func (m *Real) wbFind(line uint64) int {
	if m.wbValid == 0 {
		return -1
	}
	for i := range m.wb {
		if m.wb[i].valid && m.wb[i].line == line {
			return i
		}
	}
	return -1
}

func (m *Real) l2qLen() int { return len(m.l2q) + len(m.l2qIn) }

// syncCycle resets the per-cycle port and bank arbitration when the
// clock has moved since the last access. Idle cycles need no reset
// call, which is what lets the event engine skip them.
func (m *Real) syncCycle(now int64) {
	if now == m.useCycle {
		return
	}
	m.useCycle = now
	m.genUsed, m.scaUsed, m.vecUsed, m.icPorts = 0, 0, 0, 0
	for i := range m.l1BankUsed {
		m.l1BankUsed[i] = false
	}
	for i := range m.icBankUsed {
		m.icBankUsed[i] = false
	}
}

// Access implements System.
func (m *Real) Access(now int64, r Request) bool {
	m.syncCycle(now)
	if m.cfg.Mode == ModeDecoupled && r.Vector {
		return m.vectorAccess(now, r)
	}

	// Port arbitration.
	if m.cfg.Mode == ModeConventional {
		if m.genUsed >= m.cfg.GeneralPorts {
			m.st.PortRejects++
			return false
		}
	} else {
		// Decoupled scalar side: double-pumped single-banked L1.
		if m.scaUsed >= m.cfg.ScalarPorts {
			m.st.PortRejects++
			return false
		}
	}

	// Bank arbitration (the decoupled L1 is single-banked and
	// double-pumped, so only the conventional organization suffers
	// bank conflicts).
	bank := -1
	if m.cfg.Mode == ModeConventional {
		bank = int((r.Addr >> m.l1LineShift) & uint64(m.cfg.L1Banks-1))
		if m.l1BankUsed[bank] {
			m.st.L1BankConflicts++
			return false
		}
	}

	line := m.l1Line(r.Addr)

	// The access occupies its port and bank from here on, even when a
	// structural hazard (write buffer or MSHRs full) rejects it: the
	// probe that discovers the hazard still consumed L1 bandwidth, and
	// the retry will consume more. This wasted-probe bandwidth is a
	// large part of the multithreaded cache degradation.
	m.claimScalarPort(bank)

	if r.Store {
		// Write-through, no-allocate: update L1 if resident, coalesce
		// into the write buffer.
		if i := m.wbFind(line); i >= 0 {
			m.st.WBCoalesces++
		} else {
			free := -1
			for i := range m.wb {
				if !m.wb[i].valid {
					free = i
					break
				}
			}
			if free < 0 {
				m.st.WBFull++
				return false
			}
			m.wb[free] = wbEntry{valid: true, line: line}
			m.wbValid++
		}
		m.st.StoreAccesses++
		if r.Vector {
			m.st.VecAccesses++
		}
		m.l1.markDirty(r.Addr) // refresh LRU; WT data stays clean in L2's view
		return true
	}

	// Load.
	if r.Vector {
		m.st.VecAccesses++
	}

	// Selective flush / forward: a load that matches a pending store
	// line is satisfied from the write buffer.
	if m.wbFind(line) >= 0 {
		m.st.L1Accesses++
		m.st.L1WBForwards++
		m.noteLoadDone(r.Tag, now, int32(m.cfg.L1HitLat)+1)
		return true
	}

	if m.l1.lookup(r.Addr, true) {
		m.st.L1Accesses++
		m.st.L1Hits++
		// Tagged prefetch: the first demand hit on a prefetched line
		// keeps the stream running one line ahead.
		if m.l1.takePref(r.Addr) {
			m.prefetch(now, line+2*uint64(m.cfg.L1Line))
		}
		m.noteLoadDone(r.Tag, now, int32(m.cfg.L1HitLat))
		return true
	}

	// Miss: merge into or allocate an MSHR.
	merged := false
	for i := range m.l1m {
		e := &m.l1m[i]
		if e.valid && e.line == line {
			if len(e.targets) >= m.cfg.MSHRTargets {
				m.st.MSHRFull++
				return false
			}
			e.targets = append(e.targets, mshrTarget{tag: r.Tag, acceptedAt: now})
			merged = true
			break
		}
	}
	if !merged {
		free := m.freeL1MSHR()
		if free < 0 || m.l2qLen() >= l2QueueCap {
			m.st.MSHRFull++
			return false
		}
		m.l1m[free] = mshrEntry{
			valid:   true,
			line:    line,
			vector:  r.Vector,
			targets: append(m.l1m[free].targets[:0], mshrTarget{tag: r.Tag, acceptedAt: now}),
		}
		m.l2qIn = append(m.l2qIn, l2req{kind: l2FillL1, addr: line, ctx: free, acceptedAt: now})
	}
	m.st.L1Accesses++
	if merged {
		m.st.L1DelayedHits++
	} else {
		m.st.L1Misses++
		// Sequential stream prefetch: media kernels walk memory line
		// after line, and era media code issues prefetch hints with
		// its μ-SIMD loads (paper §2), so a demand miss runs the
		// prefetcher two lines ahead (one line is not enough to cover
		// the L2 hit latency at kernel consumption rates).
		m.prefetch(now, line+uint64(m.cfg.L1Line))
		m.prefetch(now, line+2*uint64(m.cfg.L1Line))
	}
	return true
}

func (m *Real) freeL1MSHR() int {
	for i := range m.l1m {
		if !m.l1m[i].valid {
			return i
		}
	}
	return -1
}

// prefetch installs a targetless miss for a line, modelling the stream
// prefetch hints that accompany media kernels. It silently gives up on
// any structural hazard.
func (m *Real) prefetch(now int64, line uint64) {
	if m.l1.lookup(line, false) || m.wbFind(line) >= 0 {
		return
	}
	for i := range m.l1m {
		if m.l1m[i].valid && m.l1m[i].line == line {
			return
		}
	}
	free := m.freeL1MSHR()
	if free < 0 || m.l2qLen() >= l2QueueCap {
		return
	}
	m.l1m[free] = mshrEntry{valid: true, line: line, prefetch: true, targets: m.l1m[free].targets[:0]}
	m.l2qIn = append(m.l2qIn, l2req{kind: l2FillL1, addr: line, ctx: free, acceptedAt: now})
	m.st.L1Prefetches++
}

func (m *Real) claimScalarPort(bank int) {
	if m.cfg.Mode == ModeConventional {
		m.genUsed++
		if bank >= 0 {
			m.l1BankUsed[bank] = true
		}
	} else {
		m.scaUsed++
	}
}

// vectorAccess is the decoupled-hierarchy vector path: element accesses
// go through the dedicated vector ports straight to the L2 banks.
func (m *Real) vectorAccess(now int64, r Request) bool {
	if m.vecUsed >= m.cfg.VectorPorts {
		m.st.PortRejects++
		return false
	}
	if m.l2qLen() >= l2QueueCap {
		m.st.PortRejects++
		return false
	}
	line := m.l2Line(r.Addr)
	if r.Store {
		// Exclusive-bit coherence: the vector write owns the line, so a
		// stale L1 copy must be dropped.
		if m.l1.invalidate(r.Addr) {
			m.st.VecInvalidations++
		}
		// Coalesce store elements onto one wide line write.
		for i := range m.vecm {
			e := &m.vecm[i]
			if e.valid && e.store && e.line == line {
				m.vecUsed++
				m.st.VecAccesses++
				m.st.StoreAccesses++
				return true
			}
		}
		free := m.freeVecMSHR()
		if free < 0 || m.l2qLen() >= l2QueueCap {
			m.st.MSHRFull++
			return false
		}
		m.vecm[free] = vecMSHR{valid: true, line: line, store: true, targets: m.vecm[free].targets[:0]}
		m.l2qIn = append(m.l2qIn, l2req{kind: l2VecStore, addr: line, ctx: free, acceptedAt: now})
		m.vecUsed++
		m.st.VecAccesses++
		m.st.VecL2Direct++
		m.st.StoreAccesses++
		return true
	}
	// A vector load that matches a pending scalar store forwards from
	// the write buffer (both drain into L2, which is the coherence
	// point).
	if m.wbFind(m.l1Line(r.Addr)) >= 0 {
		m.vecUsed++
		m.st.VecAccesses++
		m.st.L1WBForwards++
		m.noteVecLoadDone(r.Tag, now, int32(m.cfg.L1HitLat)+1)
		return true
	}
	// Coalesce load elements onto one wide line read.
	for i := range m.vecm {
		e := &m.vecm[i]
		if e.valid && !e.store && e.line == line {
			if len(e.targets) >= 4*m.cfg.MSHRTargets {
				m.st.MSHRFull++
				return false
			}
			e.targets = append(e.targets, mshrTarget{tag: r.Tag, acceptedAt: now})
			m.vecUsed++
			m.st.VecAccesses++
			return true
		}
	}
	free := m.freeVecMSHR()
	if free < 0 || m.l2qLen() >= l2QueueCap {
		m.st.MSHRFull++
		return false
	}
	m.vecm[free] = vecMSHR{
		valid:   true,
		line:    line,
		targets: append(m.vecm[free].targets[:0], mshrTarget{tag: r.Tag, acceptedAt: now}),
	}
	m.l2qIn = append(m.l2qIn, l2req{kind: l2VecLoad, addr: line, ctx: free, acceptedAt: now})
	m.vecUsed++
	m.st.VecAccesses++
	m.st.VecL2Direct++
	return true
}

func (m *Real) freeVecMSHR() int {
	for i := range m.vecm {
		if !m.vecm[i].valid {
			return i
		}
	}
	return -1
}

func (m *Real) noteLoadDone(tag uint64, now int64, lat int32) {
	m.st.L1LoadLatSum += int64(lat)
	m.st.L1LoadCount++
	m.pushDone(tag, now, lat)
}

func (m *Real) noteVecLoadDone(tag uint64, now int64, lat int32) {
	m.st.VecLoadLatSum += int64(lat)
	m.st.VecLoadCount++
	m.pushDone(tag, now, lat)
}

func (m *Real) pushDone(tag uint64, now int64, lat int32) {
	readyAt := now + int64(lat)
	m.done = append(m.done, donePair{c: Completion{Tag: tag, Lat: lat}, readyAt: readyAt})
	m.doneNext = min(m.doneNext, readyAt)
}

// Drain implements System.
func (m *Real) Drain(now int64, fn func(Completion)) {
	if m.doneNext > now {
		return // most cycles deliver nothing
	}
	next, w := NoEvent, 0
	for _, p := range m.done {
		if p.readyAt <= now {
			fn(p.c)
			continue
		}
		m.done[w] = p
		w++
		next = min(next, p.readyAt)
	}
	m.done = m.done[:w]
	m.doneNext = next
}

// FetchLine implements System.
func (m *Real) FetchLine(now int64, thread int, pc uint64) FetchResult {
	m.syncCycle(now)
	if m.icm[thread].valid {
		return FetchBusy
	}
	if m.icPorts >= 2 {
		return FetchBusy
	}
	bank := int((pc >> m.icLineShift) & uint64(m.cfg.IBanks-1))
	if m.icBankUsed[bank] {
		return FetchBusy
	}
	m.icPorts++
	m.icBankUsed[bank] = true
	m.st.ICAccesses++
	if m.ic.lookup(pc, true) {
		m.st.ICHits++
		return FetchHit
	}
	m.st.ICMisses++
	line := pc >> m.icLineShift << m.icLineShift
	m.icm[thread] = icMissEntry{valid: true, line: line}
	// Instruction fills may exceed the data-queue cap: stalling fetch
	// on a full queue would deadlock it against its own data traffic.
	m.l2qIn = append(m.l2qIn, l2req{kind: l2FillIC, addr: line, ctx: thread, acceptedAt: now})
	return FetchMiss
}

// FetchReady implements System.
func (m *Real) FetchReady(thread int) bool { return !m.icm[thread].valid }

// Tick implements System.
func (m *Real) Tick(now int64) {
	// DRAM first: fills installed this cycle can satisfy L2 waiters.
	m.dram.tick(now, func(ctx int) { m.dramFill(now, ctx) })

	// Retry L2 MSHRs that could not reach the DRAM controller queue.
	if m.l2mUnsent > 0 {
		for i := range m.l2m {
			if m.l2m[i].valid && !m.l2m[i].sentDRAM {
				m.sendDRAM(i)
			}
		}
	}

	// L2 pipeline: drain the inbox, then start waiting requests on
	// free banks and resolve finished ones. New requests generated
	// while processing (prefetch chains, fills) land in the inbox and
	// are picked up next cycle. With an empty inbox and nothing able
	// to start or resolve before l2qNext, the pass would change
	// nothing.
	if len(m.l2qIn) > 0 || m.l2qNext <= now {
		m.tickL2Queue(now)
	}

	// Drain one write-buffer entry per cycle into L2.
	if m.wbValid > 0 && m.l2qLen() < l2QueueCap {
		for i := range m.wb {
			if m.wb[i].valid {
				m.l2qIn = append(m.l2qIn, l2req{kind: l2WBWrite, addr: m.wb[i].line, acceptedAt: now})
				m.wb[i].valid = false
				m.wbValid--
				m.st.WBDrains++
				break
			}
		}
	}

	// Per-cycle arbitration state resets lazily in syncCycle, so an
	// idle (skipped) cycle needs no Tick at all.
}

// tickL2Queue is one pass of the L2 pipeline over the inbox and l2q,
// recomputing l2qNext. A request left unstarted saw its bank busy, and
// a later request cannot start on a busy bank, so its bank's free time
// is final when the request is passed.
func (m *Real) tickL2Queue(now int64) {
	m.l2q = append(m.l2q, m.l2qIn...)
	m.l2qIn = m.l2qIn[:0]
	next, w := NoEvent, 0
	for _, rq := range m.l2q {
		at := rq.readyAt
		if !rq.started {
			bank := int((rq.addr >> m.l2LineShift) & uint64(m.cfg.L2Banks-1))
			if at = m.l2Bank[bank]; at <= now {
				m.l2Bank[bank] = now + int64(m.cfg.L2BankOcc)
				rq.started = true
				rq.readyAt = now + int64(m.cfg.L2HitLat)
				at = rq.readyAt
				m.st.L2QWaitSum += now - rq.acceptedAt
				m.st.L2QWaitCount++
			}
		} else if rq.readyAt <= now && m.resolveL2(now, rq) {
			continue
		}
		// Otherwise the request waits; one that could not resolve (L2
		// MSHRs exhausted) retries next cycle.
		m.l2q[w] = rq
		w++
		next = min(next, at)
	}
	m.l2q = m.l2q[:w]
	m.l2qNext = next
}

// NextEvent implements System. Per-cycle-rate activities — draining the
// inbox or the write buffer, retrying an unsent L2 MSHR — pin the next
// event to now; purely latency-bound activities (a started L2 access, a
// DRAM transfer in flight, a pending completion) report their ready
// time, which is what lets the core jump over memory-bound stalls.
func (m *Real) NextEvent(now int64) int64 {
	// A pending completion, and an l2q request starting as soon as its
	// bank frees or resolving (or retrying resolution) at readyAt.
	t := min(m.doneNext, m.l2qNext)
	switch {
	case t <= now:
		return now
	case len(m.l2qIn) > 0:
		return now // the inbox drains on the next tick
	case m.l2mUnsent > 0:
		return now // retries the DRAM controller queue every tick
	case m.wbValid > 0:
		return now // the write buffer drains one entry per tick
	}
	return min(t, m.dram.nextEvent(now))
}

// resolveL2 completes one L2 access: on hit it performs the request's
// action; on miss it merges into or allocates an L2 MSHR and fetches
// the line from DRAM. It reports whether the request was consumed.
func (m *Real) resolveL2(now int64, rq l2req) bool {
	m.st.L2Accesses++
	if m.l2.lookup(rq.addr, true) {
		m.st.L2Hits++
		m.performL2Action(now, rq)
		return true
	}
	if rq.kind == l2WBWrite || rq.kind == l2VecStore {
		// Write-validate: stores install their line without fetching it
		// from memory first (the write-through traffic is line-sized by
		// the coalescing buffer), so writes never occupy an L2 MSHR.
		evicted, wasValid, wasDirty := m.l2.fill(rq.addr, true)
		if wasValid && wasDirty {
			m.st.L2DirtyWritebacks++
			m.dram.enqueue(dramReq{lineAddr: evicted, write: true, ctx: -1})
		}
		m.st.L2Misses++
		if rq.kind == l2VecStore {
			m.vecm[rq.ctx].valid = false
		}
		return true
	}
	line := m.l2Line(rq.addr)
	for i := range m.l2m {
		e := &m.l2m[i]
		if e.valid && e.line == line {
			e.waiters = append(e.waiters, rq)
			m.st.L2DelayedHits++
			return true
		}
	}
	for i := range m.l2m {
		e := &m.l2m[i]
		if !e.valid {
			e.valid = true
			e.line = line
			e.sentDRAM = false
			e.waiters = append(e.waiters[:0], rq)
			m.l2mUnsent++
			m.st.L2Misses++
			m.sendDRAM(i)
			return true
		}
	}
	m.st.MSHRFull++
	return false
}

func (m *Real) sendDRAM(idx int) {
	e := &m.l2m[idx]
	if e.sentDRAM || m.dram.full() {
		return
	}
	m.dram.enqueue(dramReq{lineAddr: e.line, ctx: idx})
	e.sentDRAM = true
	m.l2mUnsent--
}

// dramFill installs a line returned by DRAM into L2 and replays the
// MSHR's waiting requests.
func (m *Real) dramFill(now int64, ctx int) {
	e := &m.l2m[ctx]
	if !e.valid {
		return
	}
	evicted, wasValid, wasDirty := m.l2.fill(e.line, false)
	if wasValid && wasDirty {
		m.st.L2DirtyWritebacks++
		m.dram.enqueue(dramReq{lineAddr: evicted, write: true, ctx: -1})
	}
	for _, rq := range e.waiters {
		m.performL2Action(now, rq)
	}
	e.valid = false
	e.waiters = e.waiters[:0]
}

// performL2Action delivers the payload of an L2 access whose line is
// now resident.
func (m *Real) performL2Action(now int64, rq l2req) {
	switch rq.kind {
	case l2FillL1:
		e := &m.l1m[rq.ctx]
		if !e.valid {
			return
		}
		m.l1.fill(e.line, false)
		switch {
		case e.prefetch && len(e.targets) == 0:
			// Untouched prefetch: arm the tag so the first demand hit
			// continues the stream.
			m.l1.markPref(e.line)
		case e.prefetch:
			// Demand caught up with the prefetch in flight: keep the
			// stream running ahead.
			m.prefetch(now, e.line+2*uint64(m.cfg.L1Line))
		}
		for _, t := range e.targets {
			lat := now - t.acceptedAt + 1
			m.st.FillLatSum += lat
			m.st.FillLatCount++
			if lat > m.st.FillLatMax {
				m.st.FillLatMax = lat
			}
			m.noteLoadDone(t.tag, now, int32(lat))
		}
		e.valid = false
		e.targets = e.targets[:0]
	case l2FillIC:
		m.ic.fill(m.icm[rq.ctx].line, false)
		m.icm[rq.ctx].valid = false
	case l2VecLoad:
		e := &m.vecm[rq.ctx]
		for _, t := range e.targets {
			lat := now - t.acceptedAt + 1
			m.st.FillLatSum += lat
			m.st.FillLatCount++
			if lat > m.st.FillLatMax {
				m.st.FillLatMax = lat
			}
			m.noteVecLoadDone(t.tag, now, int32(lat))
		}
		e.valid = false
		e.targets = e.targets[:0]
	case l2VecStore:
		m.l2.markDirty(rq.addr)
		m.vecm[rq.ctx].valid = false
	case l2WBWrite:
		m.l2.markDirty(rq.addr)
	}
}

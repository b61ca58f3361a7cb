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

// mshr is one miss-status holding register: a line in flight and the
// requests waiting for it. Each file uses one flag: the L1's prefetch
// (opened by the stream prefetcher), the vector file's store (a wide
// line write, which has no targets) and the L2's sent (the DRAM read
// is in the controller queue).
type mshr[T any] struct {
	valid    bool
	prefetch bool
	store    bool
	sent     bool
	line     uint64
	targets  []T
}

// mshrFile is a file of MSHRs. The L1 and vector files hold the loads
// waiting for a line (mshrTarget); the vector file coalesces vector
// element accesses onto one wide L2 access per L2 line, since the
// decoupled hierarchy's vector ports feed the L2 banks through a
// crossbar at line width. The L2 file holds the L2 requests waiting
// for a DRAM read (l2req).
type mshrFile[T any] []mshr[T]

// find returns the index of the valid entry for line whose store flag
// is store, or -1.
func (f mshrFile[T]) find(line uint64, store bool) int {
	for i := range f {
		if f[i].valid && f[i].line == line && f[i].store == store {
			return i
		}
	}
	return -1
}

// alloc claims the lowest free entry for line, reusing its target
// storage, and returns its index, or -1 when every entry is busy.
func (f mshrFile[T]) alloc(line uint64) int {
	for i := range f {
		if !f[i].valid {
			f[i] = mshr[T]{valid: true, line: line, targets: f[i].targets[:0]}
			return i
		}
	}
	return -1
}

type mshrTarget struct {
	tag        uint64
	acceptedAt int64
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
	l2FillL1   uint8 = iota // ctx = L1 MSHR index
	l2FillIC                // ctx = thread id
	l2VecLoad               // ctx = vector MSHR index
	l2VecStore              // ctx = vector MSHR index
	l2WBWrite               // write-through drain from the write buffer
)

type l2req struct {
	kind       uint8
	started    bool
	addr       uint64
	acceptedAt int64
	ctx        int
	readyAt    int64
}

// Real implements System.
type Real struct {
	doneQueue
	cfg Config
	st  Stats

	l1 *cacheArray
	ic *cacheArray
	l2 *cacheArray

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

	l1m    mshrFile[mshrTarget]
	icm    []icMissEntry // one outstanding I-miss per thread
	wb     []wbEntry
	l2q    []l2req // requests being serviced (owned by Tick)
	l2qIn  []l2req // inbox: new requests land here, drained by Tick
	l2m    mshrFile[l2req]
	l2Bank []int64
	vecm   mshrFile[mshrTarget]

	// Maintained summaries, so the per-tick retry loops and NextEvent
	// can skip their scans on the (common) cycles where nothing is due:
	// wbValid counts valid write-buffer entries, l2mUnsent counts valid
	// L2 MSHRs that have not reached the DRAM controller queue yet, and
	// l2qNext is the earliest cycle at which an l2q request can start
	// (its bank's free time) or resolve (its readyAt), NoEvent when l2q
	// is empty.
	wbValid   int
	l2mUnsent int
	l2qNext   int64

	dram *dram
}

// NewReal builds the detailed hierarchy for ModeConventional or
// ModeDecoupled.
func NewReal(cfg Config) *Real {
	m := &Real{
		doneQueue:  doneQueue{doneNext: NoEvent},
		cfg:        cfg,
		l1:         newCacheArray(cfg.L1Size, cfg.L1Line, cfg.L1Assoc),
		ic:         newCacheArray(cfg.ISize, cfg.ILine, cfg.IAssoc),
		l2:         newCacheArray(cfg.L2Size, cfg.L2Line, cfg.L2Assoc),
		l1BankUsed: make([]bool, cfg.L1Banks),
		icBankUsed: make([]bool, cfg.IBanks),
		l1m:        make(mshrFile[mshrTarget], cfg.L1MSHRs),
		icm:        make([]icMissEntry, MaxHWContexts),
		wb:         make([]wbEntry, cfg.WBDepth),
		l2m:        make(mshrFile[l2req], cfg.L2MSHRs),
		l2Bank:     make([]int64, cfg.L2Banks),
		vecm:       make(mshrFile[mshrTarget], cfg.L2MSHRs),
		l2qNext:    NoEvent,
	}
	m.dram = newDRAM(cfg.DRAM, &m.st, cfg.L2Line)
	return m
}

// Stats implements System.
func (m *Real) Stats() *Stats { return &m.st }

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

	// Port and bank arbitration. The access occupies its port and bank
	// from here on, even when a structural hazard (write buffer or
	// MSHRs full) rejects it: the probe that discovers the hazard still
	// consumed L1 bandwidth, and the retry will consume more. This
	// wasted-probe bandwidth is a large part of the multithreaded cache
	// degradation.
	if m.cfg.Mode == ModeConventional {
		bank := int((r.Addr >> m.l1.lineShift) & uint64(m.cfg.L1Banks-1))
		if m.genUsed >= m.cfg.GeneralPorts {
			m.st.PortRejects++
			return false
		}
		if m.l1BankUsed[bank] {
			m.st.L1BankConflicts++
			return false
		}
		m.genUsed++
		m.l1BankUsed[bank] = true
	} else {
		// Decoupled scalar side: double-pumped single-banked L1, so
		// only the conventional organization suffers bank conflicts.
		if m.scaUsed >= m.cfg.ScalarPorts {
			m.st.PortRejects++
			return false
		}
		m.scaUsed++
	}

	line := m.l1.lineAddr(r.Addr)
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
		m.loadDone(r.Tag, now, int32(m.cfg.L1HitLat)+1, false)
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
		m.loadDone(r.Tag, now, int32(m.cfg.L1HitLat), false)
		return true
	}

	// Miss: merge into or allocate an MSHR.
	i := m.l1m.find(line, false)
	merged := i >= 0
	if !merged {
		i = m.allocL1(now, line)
	}
	if i < 0 || merged && len(m.l1m[i].targets) >= m.cfg.MSHRTargets {
		m.st.MSHRFull++
		return false
	}
	m.l1m[i].targets = append(m.l1m[i].targets, mshrTarget{tag: r.Tag, acceptedAt: now})
	m.st.L1Accesses++
	if merged {
		m.st.L1DelayedHits++
		return true
	}
	m.st.L1Misses++
	// Sequential stream prefetch: media kernels walk memory line after
	// line, and era media code issues prefetch hints with its μ-SIMD
	// loads (paper §2), so a demand miss runs the prefetcher two lines
	// ahead (one line is not enough to cover the L2 hit latency at
	// kernel consumption rates).
	m.prefetch(now, line+uint64(m.cfg.L1Line))
	m.prefetch(now, line+2*uint64(m.cfg.L1Line))
	return true
}

// allocL1 claims the lowest free L1 MSHR for line and queues its fill
// from L2. It returns the entry's index, or -1 when the MSHRs or the L2
// queue are full.
func (m *Real) allocL1(now int64, line uint64) int {
	if m.l2qLen() >= l2QueueCap {
		return -1
	}
	i := m.l1m.alloc(line)
	if i >= 0 {
		m.l2qIn = append(m.l2qIn, l2req{kind: l2FillL1, addr: line, ctx: i, acceptedAt: now})
	}
	return i
}

// prefetch installs a targetless miss for a line, modelling the stream
// prefetch hints that accompany media kernels. It silently gives up on
// any structural hazard.
func (m *Real) prefetch(now int64, line uint64) {
	if m.l1.lookup(line, false) || m.wbFind(line) >= 0 || m.l1m.find(line, false) >= 0 {
		return
	}
	if i := m.allocL1(now, line); i >= 0 {
		m.l1m[i].prefetch = true
		m.st.L1Prefetches++
	}
}

// vectorAccess is the decoupled-hierarchy vector path: element accesses
// go through the dedicated vector ports straight to the L2 banks.
func (m *Real) vectorAccess(now int64, r Request) bool {
	if m.vecUsed >= m.cfg.VectorPorts || m.l2qLen() >= l2QueueCap {
		m.st.PortRejects++
		return false
	}
	if r.Store {
		// Exclusive-bit coherence: the vector write owns the line, so a
		// stale L1 copy must be dropped.
		if m.l1.invalidate(r.Addr) {
			m.st.VecInvalidations++
		}
	} else if m.wbFind(m.l1.lineAddr(r.Addr)) >= 0 {
		// A vector load that matches a pending scalar store forwards
		// from the write buffer (both drain into L2, which is the
		// coherence point).
		m.vecUsed++
		m.st.VecAccesses++
		m.st.L1WBForwards++
		m.loadDone(r.Tag, now, int32(m.cfg.L1HitLat)+1, true)
		return true
	}
	// Coalesce elements onto one wide line read or write; a load waits
	// on the line's entry, a store just joins the write.
	line := m.l2.lineAddr(r.Addr)
	i := m.vecm.find(line, r.Store)
	if i < 0 {
		if i = m.vecm.alloc(line); i < 0 {
			m.st.MSHRFull++
			return false
		}
		m.vecm[i].store = r.Store
		kind := l2VecLoad
		if r.Store {
			kind = l2VecStore
		}
		m.l2qIn = append(m.l2qIn, l2req{kind: kind, addr: line, ctx: i, acceptedAt: now})
		m.st.VecL2Direct++
	} else if !r.Store && len(m.vecm[i].targets) >= 4*m.cfg.MSHRTargets {
		m.st.MSHRFull++
		return false
	}
	m.vecUsed++
	m.st.VecAccesses++
	if r.Store {
		m.st.StoreAccesses++
	} else {
		m.vecm[i].targets = append(m.vecm[i].targets, mshrTarget{tag: r.Tag, acceptedAt: now})
	}
	return true
}

// loadDone queues a load's completion and adds its latency to the L1
// load statistics, or to the vector ones for the decoupled vector path.
func (m *Real) loadDone(tag uint64, now int64, lat int32, vector bool) {
	if vector {
		m.st.VecLoadLatSum += int64(lat)
		m.st.VecLoadCount++
	} else {
		m.st.L1LoadLatSum += int64(lat)
		m.st.L1LoadCount++
	}
	m.push(tag, now, lat)
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
	bank := int((pc >> m.ic.lineShift) & uint64(m.cfg.IBanks-1))
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
	line := m.ic.lineAddr(pc)
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
			if m.l2m[i].valid && !m.l2m[i].sent {
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
			bank := int((rq.addr >> m.l2.lineShift) & uint64(m.cfg.L2Banks-1))
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
		m.fillL2(rq.addr, true)
		m.st.L2Misses++
		if rq.kind == l2VecStore {
			m.vecm[rq.ctx].valid = false
		}
		return true
	}
	line := m.l2.lineAddr(rq.addr)
	i := m.l2m.find(line, false)
	if i >= 0 {
		m.st.L2DelayedHits++
	} else if i = m.l2m.alloc(line); i >= 0 {
		m.l2mUnsent++
		m.st.L2Misses++
		m.sendDRAM(i)
	} else {
		m.st.MSHRFull++
		return false
	}
	m.l2m[i].targets = append(m.l2m[i].targets, rq)
	return true
}

func (m *Real) sendDRAM(i int) {
	e := &m.l2m[i]
	if e.sent || m.dram.full() {
		return
	}
	m.dram.enqueue(dramReq{lineAddr: e.line, ctx: i})
	e.sent = true
	m.l2mUnsent--
}

// fillL2 installs a line in L2 and writes a dirty victim back to DRAM.
func (m *Real) fillL2(addr uint64, dirty bool) {
	if evicted, wasValid, wasDirty := m.l2.fill(addr, dirty); wasValid && wasDirty {
		m.st.L2DirtyWritebacks++
		m.dram.enqueue(dramReq{lineAddr: evicted, write: true, ctx: -1})
	}
}

// dramFill installs a line returned by DRAM into L2 and replays the
// MSHR's waiting requests.
func (m *Real) dramFill(now int64, ctx int) {
	e := &m.l2m[ctx]
	m.fillL2(e.line, false)
	for _, rq := range e.targets {
		m.performL2Action(now, rq)
	}
	e.valid = false
}

// performL2Action delivers the payload of an L2 access whose line is
// now resident.
func (m *Real) performL2Action(now int64, rq l2req) {
	switch rq.kind {
	case l2FillL1:
		e := &m.l1m[rq.ctx]
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
		m.deliver(e, now, false)
	case l2FillIC:
		m.ic.fill(m.icm[rq.ctx].line, false)
		m.icm[rq.ctx].valid = false
	case l2VecLoad:
		m.deliver(&m.vecm[rq.ctx], now, true)
	case l2VecStore:
		m.l2.markDirty(rq.addr)
		m.vecm[rq.ctx].valid = false
	case l2WBWrite:
		m.l2.markDirty(rq.addr)
	}
}

// deliver completes the loads waiting on a filled L1 or vector MSHR,
// each recording its fill latency before its completion, and frees the
// entry.
func (m *Real) deliver(e *mshr[mshrTarget], now int64, vector bool) {
	for _, t := range e.targets {
		lat := now - t.acceptedAt + 1
		m.st.FillLatSum += lat
		m.st.FillLatCount++
		m.st.FillLatMax = max(m.st.FillLatMax, lat)
		m.loadDone(t.tag, now, int32(lat), vector)
	}
	e.valid = false
}

package core

import (
	"math/bits"

	"mediasmt/internal/isa"
	"mediasmt/internal/mem"
)

// onLoadCompletion is the Drain callback: it routes one finished load
// element to its uop by slot index and completes the load when its last
// element arrived.
func (p *Processor) onLoadCompletion(c mem.Completion) {
	u := p.loadSlots[c.Tag]
	if u == nil {
		return
	}
	u.elemsDone++
	if u.elemsDone == u.elemsTotal {
		p.loadSlots[c.Tag] = nil
		p.freeSlots = append(p.freeSlots, u.memTag)
		u.memTag = -1
		p.complete(u, p.drainNow)
	}
}

// writeback completes scheduled operations whose results are ready.
// nextDone says whether any is, so most cycles return at once.
func (p *Processor) writeback(now int64) {
	if p.nextDone > now {
		return
	}
	next, w := NoWakeup, 0
	for i, u := range p.inflight {
		if u.doneAt <= now {
			p.complete(u, now)
			continue
		}
		// Rewriting an unchanged pointer costs a GC write barrier.
		if w < i {
			p.inflight[w] = u
		}
		w++
		next = min(next, u.doneAt)
	}
	p.inflight = p.inflight[:w]
	p.nextDone = next
}

// schedule puts an issued operation in flight until doneAt.
func (p *Processor) schedule(u *uop, doneAt int64) {
	u.doneAt = doneAt
	p.inflight = append(p.inflight, u)
	p.nextDone = min(p.nextDone, doneAt)
}

// complete retires an operation from the execution core: its result
// becomes visible, dependents wake, and a mispredicted branch restarts
// its thread's fetch after the redirect penalty.
func (p *Processor) complete(u *uop, now int64) {
	u.completed = true
	th := &p.threads[u.thread]
	if th.rob[th.robHead] == u {
		p.headDone |= 1 << u.thread
	}
	if u.dstPhys >= 0 {
		p.wakeReg(u.dstFile, u.dstPhys)
	}
	if u.info.Unit == isa.UnitMedia {
		p.simdInFlight--
	}
	if u.mispred {
		th.fetchBlocked = false
		th.stallUntil = now + int64(p.cfg.BranchPenalty)
		p.refreshFetch(th)
	}
}

// wakeReg marks a physical register's value available and wakes the
// queue entries parked on it (scoreboard wakeup registered at
// dispatch).
func (p *Processor) wakeReg(f isa.RegFile, r int32) {
	pf := p.rf.file(f)
	pf.ready[r] = true
	ws := pf.waiters[r]
	if len(ws) == 0 {
		return
	}
	for i, u := range ws {
		u.waitCount--
		if u.waitCount == 0 {
			p.readyCount[u.qid]++
		}
		ws[i] = nil
	}
	pf.waiters[r] = ws[:0]
}

// issue scans the four queues oldest-first and starts every ready
// operation the functional units can accept this cycle. A queue with
// no ready entry (by its scoreboard counter) is skipped outright.
func (p *Processor) issue(now int64) {
	if p.readyCount[qidInt] > 0 {
		p.issueInt(now)
	}
	if p.readyCount[qidFP] > 0 {
		p.issueFP(now)
	}
	if p.readyCount[qidSIMD] > 0 {
		p.issueSIMD(now)
	}
	if p.readyCount[qidMem] > 0 {
		p.issueMem(now)
	}
}

func (p *Processor) noteIssued(u *uop) {
	th := &p.threads[u.thread]
	th.frontCount--
	th.opCount -= int(u.equiv)
	u.issued = true
	p.readyCount[u.qid]--
}

// compactQueue removes the n entries issued this cycle from queue qid.
// first is the index of the oldest: the issue loop already knows it,
// and starting there skips rescanning the unissued prefix — rewriting
// unchanged pointers would also cost a GC write barrier each. Past the
// last issued entry the tail moves down by copy, without reading a
// uop.
func (p *Processor) compactQueue(qid uint8, first, n int) {
	if n == 0 {
		return
	}
	q := p.q[qid]
	w := first
	for i := first; ; i++ {
		if !q[i].issued {
			q[w] = q[i]
			w++
		} else if n--; n == 0 {
			w += copy(q[w:], q[i+1:])
			break
		}
	}
	p.q[qid] = q[:w]
	p.fullQ &^= 1 << qid
}

func (p *Processor) issueInt(now int64) {
	alus, muls, issued, first := 0, 0, 0, -1
	ready := p.readyCount[qidInt] // once all are seen, the rest wait
	for qi, u := range p.q[qidInt] {
		if issued >= p.cfg.IssueInt || ready == 0 {
			break
		}
		if u.waitCount != 0 {
			continue
		}
		ready--
		switch u.info.Unit {
		case isa.UnitIMul:
			if muls >= p.cfg.IntMuls {
				continue
			}
			muls++
		default:
			if alus >= p.cfg.IntALUs {
				continue
			}
			alus++
		}
		p.noteIssued(u)
		p.schedule(u, now+int64(u.info.Lat))
		issued++
		p.intIssuedNow++
		if first < 0 {
			first = qi
		}
	}
	p.compactQueue(qidInt, first, issued)
}

func (p *Processor) issueFP(now int64) {
	adds, mulsUsed, issued, first := 0, 0, 0, -1
	ready := p.readyCount[qidFP] // once all are seen, the rest wait
	for qi, u := range p.q[qidFP] {
		if issued >= p.cfg.IssueFP || ready == 0 {
			break
		}
		if u.waitCount != 0 {
			continue
		}
		ready--
		switch u.info.Unit {
		case isa.UnitFPDiv:
			// Unpipelined divide/sqrt: find a free unit.
			unit := -1
			for i, b := range p.fpDivBusyUntil {
				if b <= now {
					unit = i
					break
				}
			}
			if unit < 0 {
				continue
			}
			p.fpDivBusyUntil[unit] = now + int64(u.info.II)
		case isa.UnitFPMul:
			if mulsUsed >= p.cfg.FPMuls {
				continue
			}
			mulsUsed++
		default:
			if adds >= p.cfg.FPAdds {
				continue
			}
			adds++
		}
		p.noteIssued(u)
		p.schedule(u, now+int64(u.info.Lat))
		issued++
		if first < 0 {
			first = qi
		}
	}
	p.compactQueue(qidFP, first, issued)
}

// issueSIMD starts media operations. With the MMX configuration two
// independent pipelined media units accept up to two operations per
// cycle. With the MOM configuration a single media unit with
// MediaPipes parallel vector pipes accepts one stream instruction,
// which occupies the unit for ceil(SLen/pipes) cycles and delivers its
// last sub-operation result after that occupancy plus the op latency.
func (p *Processor) issueSIMD(now int64) {
	issued, first := 0, -1
	ready := p.readyCount[qidSIMD] // once all are seen, the rest wait
	for qi, u := range p.q[qidSIMD] {
		if issued >= p.cfg.IssueSIMD || ready == 0 {
			break
		}
		if u.waitCount != 0 {
			continue
		}
		ready--
		unit := -1
		for i, b := range p.mediaBusyUntil {
			if b <= now {
				unit = i
				break
			}
		}
		if unit < 0 {
			break
		}
		occ := int64(1)
		if u.equiv > 1 {
			pipes := int64(p.cfg.MediaPipes)
			occ = (int64(u.equiv) + pipes - 1) / pipes
		}
		p.mediaBusyUntil[unit] = now + occ
		p.noteIssued(u)
		p.schedule(u, now+int64(u.info.Lat)+occ-1)
		p.simdInFlight++
		issued++
		p.simdIssuedNow++
		if first < 0 {
			first = qi
		}
	}
	p.compactQueue(qidSIMD, first, issued)
}

// issueMem starts memory operations: one cycle of address generation,
// then loads stream their element accesses into the memory system
// while stores complete (their data drains into the write buffer at
// commit). A load whose line matches an older in-flight store of the
// same thread forwards from the store queue.
func (p *Processor) issueMem(now int64) {
	issued, first := 0, -1
	ready := p.readyCount[qidMem] // once all are seen, the rest wait
	for qi, u := range p.q[qidMem] {
		if issued >= p.cfg.IssueMem || ready == 0 {
			break
		}
		if u.waitCount != 0 {
			continue
		}
		ready--
		p.noteIssued(u)
		issued++
		if first < 0 {
			first = qi
		}
		u.addrReadyAt = now + 1
		if u.isStore {
			p.schedule(u, now+1)
			continue
		}
		// Load: try store-to-load forwarding (scalar loads only; vector
		// element granularity makes forwarding impractical in hardware
		// of this era, so streams always go to memory).
		if !u.isVector {
			if st := p.forwardingStore(u); st != nil {
				u.forwarded = true
				p.st.LoadsForwarded++
				p.schedule(u, max(st.addrReadyAt+1, now+2))
				continue
			}
		}
		// Allocate the load's memory tag: a slot index the memory system
		// echoes back on each element completion.
		var slot int32
		if n := len(p.freeSlots); n > 0 {
			slot = p.freeSlots[n-1]
			p.freeSlots = p.freeSlots[:n-1]
		} else {
			slot = int32(len(p.loadSlots))
			p.loadSlots = append(p.loadSlots, nil)
		}
		u.memTag = slot
		p.loadSlots[slot] = u
		p.activeLoads = append(p.activeLoads, u)
	}
	p.compactQueue(qidMem, first, issued)
}

// forwardingStore returns the youngest older issued store of the same
// thread whose line matches the load, if any.
func (p *Processor) forwardingStore(ld *uop) *uop {
	const lineMask = ^uint64(31)
	th := &p.threads[ld.thread]
	var best *uop
	for _, st := range th.pendingStores {
		if st.seq >= ld.seq || !st.issued {
			continue
		}
		if st.addr&lineMask == ld.addr&lineMask {
			if best == nil || st.seq > best.seq {
				best = st
			}
		}
	}
	return best
}

// sendLoadElements pushes pending load element accesses into the
// memory system, oldest load first, as long as ports accept them.
func (p *Processor) sendLoadElements(now int64) {
	finished := false
	for _, u := range p.activeLoads {
		if now >= u.addrReadyAt && p.sendElements(now, u, uint64(u.memTag), &p.st.LoadElemSent) {
			finished = true
		}
	}
	if !finished {
		return
	}
	w := 0
	for _, u := range p.activeLoads {
		if u.elemsSent < u.elemsTotal {
			p.activeLoads[w] = u
			w++
		}
	}
	p.activeLoads = p.activeLoads[:w]
}

// commit retires completed instructions in order within each thread,
// round-robin across threads, up to CommitWidth per cycle. Stores
// drain their elements into the write buffer here (write-through at
// retirement); a store blocks its thread's commit until all elements
// are accepted.
//
// A round visits the threads whose head has completed, from headDone
// at the start of the round: only a thread's own retirement changes
// its head, and a thread is visited once per round.
func (p *Processor) commit(now int64) {
	budget := p.cfg.CommitWidth
	for p.headDone != 0 && budget > 0 {
		progress := false
		for set := p.rotated(p.headDone); set != 0 && budget > 0; set &= set - 1 {
			th := &p.threads[p.threadAt(bits.TrailingZeros64(set))]
			u := th.rob[th.robHead]
			if u.isStore && !p.sendElements(now, u, u.seq, &p.st.StoreElemSent) {
				continue
			}
			p.retire(th, u)
			budget--
			progress = true
		}
		if !progress {
			break
		}
	}
}

// sendElements pushes u's remaining element accesses into the memory
// system until one is refused, counting each accepted one in *sent; it
// reports whether all were accepted. tag is the identity the memory
// system echoes on a load's completions.
func (p *Processor) sendElements(now int64, u *uop, tag uint64, sent *int64) bool {
	for ; u.elemsSent < u.elemsTotal; u.elemsSent++ {
		addr := u.addr + uint64(u.elemsSent)*uint64(u.stride)
		if !p.memsys.Access(now, mem.Request{Tag: tag, Addr: addr, Thread: uint8(u.thread), Store: u.isStore, Vector: u.isVector}) {
			return false
		}
		*sent++
	}
	return true
}

// retire removes the instruction from the graduation window, frees the
// previous mapping of its destination and accumulates statistics.
func (p *Processor) retire(th *threadState, u *uop) {
	th.robPop()
	if th.robCount > 0 && th.rob[th.robHead].completed {
		p.headDone |= 1 << th.id
	} else {
		p.headDone &^= 1 << th.id
	}
	if u.oldDst >= 0 {
		p.rf.file(u.dstFile).release(u.oldDst)
	}
	if u.isStore {
		// Stores retire in program order: u is the oldest pending one.
		th.pendingStores = append(th.pendingStores[:0], th.pendingStores[1:]...)
	}
	eq := int64(u.equiv)
	p.st.Committed++
	p.st.CommittedEquiv += eq
	p.st.Weighted += th.factor
	p.st.CommittedByClass[u.info.Class]++
	p.st.CommittedEqByCls[u.info.Class] += eq
	p.st.PerThreadCommitted[th.id]++
	if th.robCount == 0 && th.progEnd && !th.hasPend && th.fqCount == 0 {
		p.drainSignal = true
	}
	p.uopPool = append(p.uopPool, u)
}

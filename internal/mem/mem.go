// Package mem implements the simulated memory system of the paper's SMT
// media processor: a banked write-through L1 data cache with MSHRs and a
// coalescing write buffer, a banked 2-way instruction cache, an on-chip
// 2-way write-back L2, and a Direct Rambus DRAM channel. Three system
// organizations are provided:
//
//   - Ideal: neither cache misses nor bank conflicts (paper §5.2),
//   - Conventional: four general-purpose memory ports into L1 (Fig. 7a),
//   - Decoupled: two double-pumped scalar ports into L1 plus two vector
//     ports directly into a two-bank L2 through a crossbar, with an
//     exclusive-bit coherence policy between vector and scalar data
//     (paper §5.4, Fig. 7b).
package mem

import "math"

// Request is one element-level data access issued by the core. Stream
// (vector) memory instructions are expanded by the core into one
// Request per element.
type Request struct {
	Tag    uint64 // caller-assigned identity, echoed in the Completion
	Addr   uint64
	Thread uint8
	Store  bool
	Vector bool // issued by a vector (μ-SIMD stream) memory instruction
}

// Completion reports a finished load access.
type Completion struct {
	Tag uint64
	Lat int32 // cycles from acceptance to data ready
}

// FetchResult is the outcome of an instruction-cache line fetch.
type FetchResult uint8

const (
	// FetchHit: the line is available this cycle.
	FetchHit FetchResult = iota
	// FetchMiss: a miss was started; the thread must stall until
	// FetchReady reports true again.
	FetchMiss
	// FetchBusy: a structural conflict (bank or port); retry next cycle.
	FetchBusy
)

// NoEvent is NextEvent's sentinel for a fully quiescent memory system:
// no pending completion, no queued work, nothing in flight.
const NoEvent = int64(math.MaxInt64)

// MaxHWContexts bounds the number of hardware contexts a machine
// configuration may declare. It lives here — the lowest layer that
// sizes fixed per-thread structures (the per-thread I-miss table in
// Real) — and internal/core re-exports it as core.MaxHWContexts for
// its own per-thread pipeline structures and Validate bound, so the
// two layers cannot drift apart. (core imports mem, so the constant
// cannot live in core without an import cycle.)
const MaxHWContexts = 32

// System is the memory-system interface consumed by the pipeline.
//
// Protocol per cycle t: the core first calls Drain to collect load
// completions with ready time <= t, then issues Access/FetchLine calls
// for cycle t (each may be refused, in which case the core retries on a
// later cycle), and finally calls Tick(t) to advance the system state.
//
// The per-cycle protocol may skip idle cycles: when NextEvent(t)
// returns a cycle t' > t, the caller may jump straight to t' without
// calling Drain/Tick for the cycles in between, and the system behaves
// exactly as if it had been ticked through them. Per-cycle port and
// bank arbitration therefore resets on the first access of each new
// cycle, not in Tick.
type System interface {
	// Access attempts to start a data access in cycle now. A false
	// return means a structural hazard (port, bank, MSHR or write
	// buffer full); the caller must retry.
	Access(now int64, r Request) bool
	// Drain hands all completions that are ready at cycle now to fn.
	Drain(now int64, fn func(Completion))
	// FetchLine attempts to read the instruction-cache line holding pc.
	FetchLine(now int64, thread int, pc uint64) FetchResult
	// FetchReady reports whether the thread has no outstanding
	// instruction-cache miss.
	FetchReady(thread int) bool
	// Tick advances the memory system at the end of cycle now.
	Tick(now int64)
	// NextEvent reports the earliest cycle >= now at which the system
	// could make observable progress — complete a load, move an internal
	// queue, drain the write buffer, start or deliver a DRAM transfer —
	// assuming no new Access/FetchLine calls arrive before then. It
	// returns NoEvent when the system is quiescent. Skipping Drain/Tick
	// for every cycle in [now, NextEvent(now)) is safe and exact.
	NextEvent(now int64) int64
	// Stats exposes the accumulated statistics.
	Stats() *Stats
}

// Mode selects the system organization.
type Mode uint8

const (
	// ModeIdeal is the perfect memory of §5.2.
	ModeIdeal Mode = iota
	// ModeConventional shares four general memory ports (Fig. 7a).
	ModeConventional
	// ModeDecoupled splits scalar L1 ports from vector L2 ports (Fig. 7b).
	ModeDecoupled
)

func (m Mode) String() string {
	switch m {
	case ModeIdeal:
		return "ideal"
	case ModeConventional:
		return "conventional"
	case ModeDecoupled:
		return "decoupled"
	}
	return "mode?"
}

// New builds a memory system for the given mode.
func New(cfg Config) System {
	if cfg.Mode == ModeIdeal {
		return NewIdeal(cfg)
	}
	return NewReal(cfg)
}

// doneQueue holds load completions until their ready cycle. doneNext
// is the earliest ready cycle in done, NoEvent when it is empty, so
// Drain returns at once on the cycles that deliver nothing and
// NextEvent needs no scan. Real and Ideal embed the queue, so its
// Drain is theirs, and inlines where a caller holds the concrete type.
type doneQueue struct {
	done     []donePair
	doneNext int64
}

type donePair struct {
	c       Completion
	readyAt int64
}

// push queues the completion of the load tag, ready lat cycles after now.
func (q *doneQueue) push(tag uint64, now int64, lat int32) {
	readyAt := now + int64(lat)
	q.done = append(q.done, donePair{c: Completion{Tag: tag, Lat: lat}, readyAt: readyAt})
	q.doneNext = min(q.doneNext, readyAt)
}

// Drain implements System.
func (q *doneQueue) Drain(now int64, fn func(Completion)) {
	if q.doneNext > now {
		return // most cycles deliver nothing
	}
	next, w := NoEvent, 0
	for _, p := range q.done {
		if p.readyAt <= now {
			fn(p.c)
			continue
		}
		q.done[w] = p
		w++
		next = min(next, p.readyAt)
	}
	q.done = q.done[:w]
	q.doneNext = next
}

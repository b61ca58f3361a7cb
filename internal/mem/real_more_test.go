package mem

import "testing"

func TestRealMSHRTargetCapRejects(t *testing.T) {
	cfg := DefaultConfig(ModeConventional)
	m := NewReal(cfg)
	// First load allocates the MSHR; merge up to the target cap, then
	// reject. Keep the fill from arriving by not ticking.
	if !m.Access(0, Request{Tag: 1, Addr: 0x1000}) {
		t.Fatal("first load rejected")
	}
	for i := 0; i < cfg.MSHRTargets-1; i++ {
		resetCycle(m)
		if !m.Access(0, Request{Tag: uint64(2 + i), Addr: 0x1008}) {
			t.Fatalf("merge %d rejected early", i)
		}
	}
	resetCycle(m)
	if m.Access(0, Request{Tag: 99, Addr: 0x1010}) {
		t.Fatal("merge beyond the target cap must be rejected")
	}
	if m.Stats().MSHRFull == 0 {
		t.Error("MSHRFull must count the rejection")
	}
}

func TestRealL1MSHRExhaustion(t *testing.T) {
	cfg := DefaultConfig(ModeConventional)
	cfg.L1MSHRs = 2
	m := NewReal(cfg)
	// Two misses to distinct lines fill both MSHRs (each also tries a
	// prefetch, which may consume nothing extra since the pool is
	// tiny); a third distinct line must reject.
	if !m.Access(0, Request{Tag: 1, Addr: 0x1000}) {
		t.Fatal("miss 1 rejected")
	}
	resetCycle(m)
	if !m.Access(0, Request{Tag: 2, Addr: 0x8000}) {
		// Acceptable: the prefetcher took the second MSHR.
		t.Skip("prefetcher consumed the second MSHR; exhaustion already proven")
	}
	resetCycle(m)
	if m.Access(0, Request{Tag: 3, Addr: 0x20000}) {
		t.Fatal("third distinct miss with 2 MSHRs must be rejected")
	}
}

func TestRealPrefetchChainRunsAhead(t *testing.T) {
	m := convSystem()
	got := map[uint64]int64{}
	// Touch one line, let the system settle, and verify multiple
	// prefetches were issued (tagged prefetch keeps running ahead).
	if !m.Access(0, Request{Tag: 1, Addr: 0x100000}) {
		t.Fatal("reject")
	}
	drive(m, 0, 300, got)
	first := m.Stats().L1Prefetches
	if first == 0 {
		t.Fatal("demand miss must trigger a prefetch")
	}
	// A hit on the prefetched next line must extend the chain.
	if !m.Access(300, Request{Tag: 2, Addr: 0x100020}) {
		t.Fatal("reject")
	}
	drive(m, 300, 50, got)
	if m.Stats().L1Prefetches <= first {
		t.Error("hit on a prefetched line must trigger a further prefetch (tagged prefetch)")
	}
	if got[2] != 1 {
		t.Errorf("prefetched line hit latency %d, want 1", got[2])
	}
}

func TestDecoupledVectorStoreCoalesces(t *testing.T) {
	m := decSystem()
	// 16 store elements in one L2 line: one wide store access.
	now := int64(0)
	for e := 0; e < 16; e++ {
		addr := uint64(0x70000 + e*8)
		for !m.Access(now, Request{Tag: uint64(e), Addr: addr, Store: true, Vector: true}) {
			m.Tick(now)
			now++
		}
	}
	if m.Stats().VecL2Direct != 1 {
		t.Errorf("wide store accesses = %d, want 1", m.Stats().VecL2Direct)
	}
	if m.Stats().StoreAccesses != 16 {
		t.Errorf("store elements = %d, want 16", m.Stats().StoreAccesses)
	}
}

func TestL2DirtyWritebackReachesDRAM(t *testing.T) {
	cfg := DefaultConfig(ModeConventional)
	cfg.L2Size = 4 << 10 // 32 lines of 128B: tiny, to force evictions
	m := NewReal(cfg)
	got := map[uint64]int64{}
	now := int64(0)
	// Write-validate dirty lines over more than the L2 capacity.
	for i := 0; i < 128; i++ {
		addr := uint64(0x100000 + i*128)
		for !m.Access(now, Request{Tag: uint64(i), Addr: addr, Store: true}) {
			m.Tick(now)
			now++
		}
		m.Tick(now)
		now++
	}
	drive(m, now, 2000, got)
	st := m.Stats()
	if st.L2DirtyWritebacks == 0 {
		t.Error("evicting dirty L2 lines must write back")
	}
	if st.DRAMWrites == 0 {
		t.Error("writebacks must reach DRAM")
	}
}

func TestRealVectorElementsConventionalUseL1(t *testing.T) {
	m := convSystem()
	got := map[uint64]int64{}
	// In the conventional organization, vector elements go through L1
	// like scalars (there are no dedicated vector ports).
	if !m.Access(0, Request{Tag: 1, Addr: 0x1000, Vector: true}) {
		t.Fatal("reject")
	}
	drive(m, 0, 300, got)
	st := m.Stats()
	if st.VecL2Direct != 0 {
		t.Error("conventional mode must not bypass L1")
	}
	if st.L1Accesses != 1 || st.VecAccesses != 1 {
		t.Errorf("l1=%d vec=%d, want 1 and 1", st.L1Accesses, st.VecAccesses)
	}
}

func TestDRAMAdmissionBound(t *testing.T) {
	var st Stats
	cfg := DefaultConfig(ModeConventional).DRAM
	d := newDRAM(cfg, &st, 128)
	if d.full() {
		t.Fatal("fresh controller must not be full")
	}
	for i := 0; i < cfg.QueueCap; i++ {
		d.enqueue(dramReq{lineAddr: uint64(i * 128), ctx: i})
	}
	if !d.full() {
		t.Error("controller at QueueCap must report full")
	}
	// Draining makes room again.
	for now := int64(0); now < 5000 && d.full(); now++ {
		d.tick(now, func(int) {})
	}
	if d.full() {
		t.Error("controller never drained")
	}
}

func TestIdealVectorAndStoreAccounting(t *testing.T) {
	m := NewIdeal(DefaultConfig(ModeIdeal))
	if !m.Access(0, Request{Tag: 1, Addr: 0x10, Vector: true}) {
		t.Fatal("reject")
	}
	if !m.Access(0, Request{Tag: 2, Addr: 0x20, Store: true}) {
		t.Fatal("reject")
	}
	st := m.Stats()
	if st.VecAccesses != 1 || st.StoreAccesses != 1 {
		t.Errorf("vec=%d stores=%d, want 1 and 1", st.VecAccesses, st.StoreAccesses)
	}
	// Stores complete silently: only the load gets a completion.
	m.Tick(0)
	n := 0
	m.Drain(1, func(Completion) { n++ })
	if n != 1 {
		t.Errorf("completions = %d, want 1 (loads only)", n)
	}
}

func TestRealDeterminism(t *testing.T) {
	run := func() (int64, int64) {
		m := convSystem()
		got := map[uint64]int64{}
		now := int64(0)
		for i := 0; i < 200; i++ {
			addr := uint64(0x1000 + (i*7919)%4096*32)
			for !m.Access(now, Request{Tag: uint64(i), Addr: addr, Store: i%3 == 0}) {
				m.Drain(now, func(c Completion) { got[c.Tag] = int64(c.Lat) })
				m.Tick(now)
				now++
			}
			m.Drain(now, func(c Completion) { got[c.Tag] = int64(c.Lat) })
			m.Tick(now)
			now++
		}
		var sum int64
		for _, v := range got {
			sum += v
		}
		return m.Stats().L1Hits, sum
	}
	h1, s1 := run()
	h2, s2 := run()
	if h1 != h2 || s1 != s2 {
		t.Errorf("memory system is nondeterministic: (%d,%d) vs (%d,%d)", h1, s1, h2, s2)
	}
}

// TestDecoupledVectorFillRecordsFillLatency pins the fix for a stats
// under-reporting bug: the l2VecLoad delivery arm completed vector
// fills without recording FillLatSum/FillLatCount/FillLatMax, so
// decoupled-mode fill-latency diagnostics silently covered only the
// scalar l2FillL1 arm. Every delivered vector-load element must now
// contribute one FillLat sample, with the same acceptance-to-delivery
// latency the element's completion reports.
func TestDecoupledVectorFillRecordsFillLatency(t *testing.T) {
	m := decSystem()
	got := map[uint64]int64{}
	// 4 vector elements in one L2 line: one wide L2 access, 4 targets.
	now := int64(0)
	for e := 0; e < 4; e++ {
		addr := uint64(0x90000 + e*8)
		for !m.Access(now, Request{Tag: uint64(200 + e), Addr: addr, Vector: true}) {
			m.Drain(now, func(c Completion) { got[c.Tag] = int64(c.Lat) })
			m.Tick(now)
			now++
		}
	}
	drive(m, now, 300, got)
	st := m.Stats()
	if st.VecLoadCount != 4 {
		t.Fatalf("vector load completions = %d, want 4", st.VecLoadCount)
	}
	if st.FillLatCount != st.VecLoadCount {
		t.Errorf("FillLatCount = %d, want %d (one sample per delivered vector fill target)",
			st.FillLatCount, st.VecLoadCount)
	}
	if st.FillLatSum != st.VecLoadLatSum {
		t.Errorf("FillLatSum = %d, want %d (fill latency must match the delivered element latency)",
			st.FillLatSum, st.VecLoadLatSum)
	}
	var max int64
	for _, lat := range got {
		if lat > max {
			max = lat
		}
	}
	if st.FillLatMax != max {
		t.Errorf("FillLatMax = %d, want %d (slowest delivered element)", st.FillLatMax, max)
	}
}

// TestIMissTableCoversMaxHWContexts pins the per-thread I-miss table's
// size to the single-sourced hardware-context bound: FetchLine indexes
// icm by thread id, so a table smaller than MaxHWContexts would panic
// (and one hard-coded larger, as the old literal 64 was, silently
// hides a bound mismatch).
func TestIMissTableCoversMaxHWContexts(t *testing.T) {
	m := convSystem()
	if got := len(m.icm); got != MaxHWContexts {
		t.Fatalf("icm table size = %d, want MaxHWContexts (%d)", got, MaxHWContexts)
	}
	// The highest legal thread id must be usable without panicking.
	if r := m.FetchLine(0, MaxHWContexts-1, 0x1000); r != FetchMiss {
		t.Fatalf("FetchLine(thread %d) = %v, want FetchMiss", MaxHWContexts-1, r)
	}
}

// TestDecoupledVectorLoadForwardsFromWriteBuffer covers the decoupled
// vector path's write-buffer forward: a vector load whose L1 line has
// a pending scalar store is served from the buffer at L1HitLat+1 and
// is accounted as a vector load.
func TestDecoupledVectorLoadForwardsFromWriteBuffer(t *testing.T) {
	m := decSystem()
	got := map[uint64]int64{}
	if !m.Access(0, Request{Tag: 1, Addr: 0x30000, Store: true}) {
		t.Fatal("scalar store rejected")
	}
	if !m.Access(0, Request{Tag: 2, Addr: 0x30008, Vector: true}) {
		t.Fatal("vector load rejected")
	}
	drive(m, 0, 10, got)
	want := int64(m.cfg.L1HitLat) + 1
	if got[2] != want {
		t.Errorf("forwarded vector load latency %d, want %d", got[2], want)
	}
	st := m.Stats()
	if st.L1WBForwards != 1 || st.VecLoadCount != 1 || st.VecLoadLatSum != want {
		t.Errorf("forwards=%d vec loads=%d vec latency sum=%d, want 1, 1 and %d",
			st.L1WBForwards, st.VecLoadCount, st.VecLoadLatSum, want)
	}
}

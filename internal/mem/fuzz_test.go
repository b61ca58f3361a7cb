package mem

import "testing"

// FuzzMemConfig: the detailed hierarchy built from any config Validate
// accepts survives a fixed stream of scalar and vector loads and
// stores plus instruction fetches without panicking, and keeps its
// maintained horizons after every tick. It never completes more loads
// than it accepted, and all of them once it goes quiet. Sizes, lines
// and bank counts are fuzzed as powers of two, the other fields as
// small integers, so most inputs pass Validate; the rest are skipped.
func FuzzMemConfig(f *testing.F) {
	f.Add(false, uint8(15), uint8(5), uint8(3), uint8(20), uint8(7), uint8(1),
		int8(1), int8(2), int8(8), int8(8), int8(8), int8(4), int8(4), int8(16), uint8(12), uint8(16))
	f.Add(true, uint8(15), uint8(5), uint8(3), uint8(20), uint8(7), uint8(1),
		int8(1), int8(2), int8(8), int8(8), int8(8), int8(4), int8(2), int8(16), uint8(12), uint8(16))
	f.Add(true, uint8(10), uint8(6), uint8(0), uint8(12), uint8(6), uint8(0),
		int8(2), int8(1), int8(1), int8(1), int8(1), int8(1), int8(1), int8(1), uint8(1), uint8(64))
	f.Fuzz(func(t *testing.T, decoupled bool, l1Size, l1Line, l1Banks, l2Size, l2Line, l2Banks uint8,
		l1Assoc, l2Assoc, l1Mshrs, l2Mshrs, wbDepth, targets, ports, queueCap int8, l2HitLat, beatBytes uint8) {
		cfg := DefaultConfig(ModeConventional)
		if decoupled {
			cfg.Mode = ModeDecoupled
		}
		cfg.L1Size, cfg.L1Line, cfg.L1Banks = 1<<(l1Size%32), 1<<(l1Line%16), 1<<(l1Banks%16)
		cfg.L2Size, cfg.L2Line, cfg.L2Banks = 1<<(l2Size%32), 1<<(l2Line%16), 1<<(l2Banks%16)
		cfg.L1Assoc, cfg.L2Assoc = int(l1Assoc), int(l2Assoc)
		cfg.L1MSHRs, cfg.L2MSHRs, cfg.WBDepth, cfg.MSHRTargets = int(l1Mshrs), int(l2Mshrs), int(wbDepth), int(targets)
		cfg.GeneralPorts, cfg.ScalarPorts, cfg.VectorPorts = int(ports), int(ports), int(ports)
		cfg.DRAM.QueueCap, cfg.L2HitLat, cfg.DRAM.BeatBytes = int(queueCap), int(l2HitLat), int(beatBytes)
		if cfg.Validate() != nil {
			t.Skip()
		}
		m := NewReal(cfg)
		loads, delivered := 0, 0
		count := func(Completion) { delivered++ }
		tick := func(now int64) {
			m.Drain(now, count)
			m.Tick(now)
			if err := CheckHorizons(m); err != nil {
				t.Fatalf("cycle %d: %v", now, err)
			}
		}
		x := uint64(1)
		now := int64(0)
		for ; now < 3000; now++ {
			for k := uint64(0); k < 4; k++ {
				x = x*6364136223846793005 + 1442695040888963407
				r := Request{Tag: uint64(now)*4 + k, Addr: 0x100000 + (x>>40)%(1<<17)&^7,
					Thread: uint8(k), Store: x>>20&3 == 0, Vector: x>>22&1 == 0}
				if m.Access(now, r) && !r.Store {
					loads++
				}
			}
			m.FetchLine(now, int(now%4), 0x4000000+uint64(now/8%4096)*16)
			tick(now)
		}
		// Let the system settle for a bounded number of events (a slow
		// DRAM can take millions of cycles to drain its writebacks).
		for events := 0; events < 20_000 && m.NextEvent(now) != NoEvent; events++ {
			now = m.NextEvent(now)
			tick(now)
			now++
		}
		if delivered > loads || m.NextEvent(now) == NoEvent && delivered != loads {
			t.Fatalf("%d completions for %d accepted loads", delivered, loads)
		}
	})
}

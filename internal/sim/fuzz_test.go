package sim

import (
	"bytes"
	"strings"
	"testing"

	"mediasmt/internal/core"
	"mediasmt/internal/mem"
)

// fuzzSeedConfig is a fully-populated config whose encoding seeds both
// fuzzers: it exercises the optional override pointers and the
// program-list field, the parts of the wire format most likely to
// break under mutation.
func fuzzSeedConfig() Config {
	ccfg := core.ConfigForThreads(core.ISAMMX, 2)
	mcfg := mem.DefaultConfig(mem.ModeConventional)
	return Config{
		ISA: core.ISAMMX, Threads: 2, Policy: core.PolicyICOUNT,
		Memory: mem.ModeConventional, Scale: 0.02, Seed: 7,
		CoreOverride: &ccfg, MemOverride: &mcfg,
		Programs: []string{"mpeg2dec", "mpeg2enc"},
	}
}

// FuzzDecodeConfig: DecodeConfig must never panic, and any input it
// accepts must re-encode and decode back to the same config — the
// dist worker endpoint feeds it bytes straight off the network.
func FuzzDecodeConfig(f *testing.F) {
	seed, err := EncodeConfig(fuzzSeedConfig())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{"threads":1}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"threads":0}`))
	f.Add([]byte(`{"threads":1}{"threads":2}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := DecodeConfig(data)
		if err != nil {
			return
		}
		if cfg.Threads < 1 {
			t.Fatalf("DecodeConfig accepted a threadless config: %+v", cfg)
		}
		enc, err := EncodeConfig(cfg)
		if err != nil {
			t.Fatalf("accepted config failed to re-encode: %v", err)
		}
		again, err := DecodeConfig(enc)
		if err != nil {
			t.Fatalf("re-encoded config failed to decode: %v", err)
		}
		enc2, err := EncodeConfig(again)
		if err != nil {
			t.Fatalf("round-tripped config failed to re-encode: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip is not stable:\nfirst  %s\nsecond %s", enc, enc2)
		}
	})
}

// FuzzDecodeResult: DecodeResult must never panic, and any result it
// accepts must carry a usable config and survive a re-encode cycle —
// the on-disk cache and the dist coordinator both trust its output.
func FuzzDecodeResult(f *testing.F) {
	r, err := Run(Config{ISA: core.ISAMOM, Threads: 1, Memory: mem.ModeIdeal, Scale: 0.02, Seed: 7})
	if err != nil {
		f.Fatal(err)
	}
	seed, err := EncodeResult(r)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`null`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"cfg":{"threads":1}}`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		res, err := DecodeResult(data)
		if err != nil {
			return
		}
		if res.Cfg.Threads < 1 {
			t.Fatalf("DecodeResult accepted a threadless result: %+v", res)
		}
		// Key() walks the whole config; it must not panic on anything
		// the decoder let through.
		_ = res.Cfg.Key()
		enc, err := EncodeResult(res)
		if err != nil {
			t.Fatalf("accepted result failed to re-encode: %v", err)
		}
		if _, err := DecodeResult(enc); err != nil {
			t.Fatalf("re-encoded result failed to decode: %v", err)
		}
	})
}

// runKnobs are the override fields FuzzRun sets: widths, unit counts,
// queue sizes, register files, predictor bits and the memory fields the
// ablations sweep. A register file's value is its spare registers over
// the architected state, so one small integer probes its lower bound
// at every thread count.
var runKnobs = []struct {
	name string
	set  func(*core.Config, *mem.Config, int)
}{
	{"FetchQCap", func(c *core.Config, _ *mem.Config, v int) { c.FetchQCap = v }},
	{"IssueSIMD", func(c *core.Config, _ *mem.Config, v int) { c.IssueSIMD = v }},
	{"IntALUs", func(c *core.Config, _ *mem.Config, v int) { c.IntALUs = v }},
	{"FPDivs", func(c *core.Config, _ *mem.Config, v int) { c.FPDivs = v }},
	{"MediaUnits", func(c *core.Config, _ *mem.Config, v int) { c.MediaUnits = v }},
	{"IQSize", func(c *core.Config, _ *mem.Config, v int) { c.IQSize = v }},
	{"MQSize", func(c *core.Config, _ *mem.Config, v int) { c.MQSize = v }},
	{"FQSize", func(c *core.Config, _ *mem.Config, v int) { c.FQSize = v }},
	{"SQSize", func(c *core.Config, _ *mem.Config, v int) { c.SQSize = v }},
	{"ROBPerThread", func(c *core.Config, _ *mem.Config, v int) { c.ROBPerThread = v }},
	{"PhysInt", func(c *core.Config, _ *mem.Config, v int) { c.PhysInt = 32*c.Threads + v }},
	{"PhysMOM", func(c *core.Config, _ *mem.Config, v int) { c.PhysMOM = 16*c.Threads + v }},
	{"PhysAcc", func(c *core.Config, _ *mem.Config, v int) { c.PhysAcc = 2*c.Threads + v }},
	{"PredTableBits", func(c *core.Config, _ *mem.Config, v int) { c.PredTableBits = v }},
	{"PredHistBits", func(c *core.Config, _ *mem.Config, v int) { c.PredHistBits = v }},
	{"WBDepth", func(_ *core.Config, m *mem.Config, v int) { m.WBDepth = v }},
	{"L1MSHRs", func(_ *core.Config, m *mem.Config, v int) { m.L1MSHRs = v }},
	{"VectorPorts", func(_ *core.Config, m *mem.Config, v int) { m.VectorPorts = v }},
	{"L2MSHRs", func(_ *core.Config, m *mem.Config, v int) { m.L2MSHRs = v }},
	{"DRAM.QueueCap", func(_ *core.Config, m *mem.Config, v int) { m.DRAM.QueueCap = v }},
}

// knob encodes one FuzzRun override: the knob's index and its value.
func knob(name string, v int8) []byte {
	for i, k := range runKnobs {
		if k.name == name {
			return []byte{byte(i), byte(v)}
		}
	}
	panic("no knob " + name)
}

// FuzzRun: every config Validate accepts runs through Run without
// panicking, and Run refuses it for nothing but its cycle cap (scale
// 0.01 and 20000 cycles keep each run short, so most hit it). ISA,
// fetch policy and memory organization are fuzzed raw, the thread
// count as an index into the paper's 1, 2, 4 and 8, and each pair of
// override bytes sets one of runKnobs (the first byte, modulo the
// table) to a small integer (the second, as an int8). Whatever Validate
// refuses is skipped. The seeds are the core probes that panicked or
// spun a run before Validate bounded them, and the ablation families'
// sweeps.
func FuzzRun(f *testing.F) {
	for _, isa := range []uint8{0, 1} {
		for _, memory := range []uint8{0, 1, 2} {
			f.Add(isa, uint8(0), memory, uint8(0), []byte(nil))
		}
	}
	for _, p := range []struct {
		name string
		v    int8
	}{
		{"FetchQCap", -1}, {"FetchQCap", 0}, {"FPDivs", -1}, {"FPDivs", 0},
		{"MediaUnits", -1}, {"MediaUnits", 0}, {"IQSize", -1}, {"IQSize", 0},
		{"MQSize", -1}, {"FQSize", 0}, {"SQSize", -1}, {"IntALUs", 0}, {"IntALUs", -1},
		{"PhysMOM", 0}, {"PhysMOM", 1}, {"PhysAcc", -1}, {"PhysAcc", 1}, {"PhysInt", 1},
		{"PredTableBits", -1}, {"PredTableBits", 1}, {"PredTableBits", 100},
		{"PredHistBits", -1}, {"PredHistBits", 63}, {"IQSize", 1}, {"ROBPerThread", 8},
	} {
		f.Add(uint8(0), uint8(0), uint8(1), uint8(0), knob(p.name, p.v))
	}
	for _, v := range []int8{2, 4, 8, 16} {
		f.Add(uint8(0), uint8(1), uint8(1), uint8(3), knob("WBDepth", v))
		f.Add(uint8(1), uint8(2), uint8(1), uint8(3), knob("L1MSHRs", v))
	}
	for _, v := range []int8{1, 2, 4} {
		f.Add(uint8(1), uint8(2), uint8(2), uint8(3), knob("VectorPorts", v))
	}
	for _, v := range []int8{16, 32, 48, 96} {
		f.Add(uint8(0), uint8(1), uint8(1), uint8(3), knob("ROBPerThread", v))
	}
	f.Fuzz(func(t *testing.T, isa, policy, memory, thread uint8, knobs []byte) {
		threads := []int{1, 2, 4, 8}[thread%4]
		ccfg := core.ConfigForThreads(core.ISAKind(isa), threads)
		mcfg := mem.DefaultConfig(mem.Mode(memory))
		for i := 0; i+1 < len(knobs); i += 2 {
			runKnobs[int(knobs[i])%len(runKnobs)].set(&ccfg, &mcfg, int(int8(knobs[i+1])))
		}
		cfg := Config{
			ISA: core.ISAKind(isa), Threads: threads, Policy: core.Policy(policy), Memory: mem.Mode(memory),
			Scale: 0.01, Seed: 7, MaxCycles: 20_000, CoreOverride: &ccfg, MemOverride: &mcfg,
		}
		if cfg.Validate() != nil {
			t.Skip()
		}
		if _, err := Run(cfg); err != nil && !strings.Contains(err.Error(), "hit MaxCycles") {
			t.Fatalf("Run refused a config Validate accepted: %v", err)
		}
	})
}

package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"mediasmt/internal/core"
	"mediasmt/internal/mem"
)

// goldenDigest is the SHA-256 over EncodeResult of every goldenConfigs
// run, in order. The cross-engine matrix compares two run loops over
// the same Cycle, so a core change that alters both still passes it;
// this digest pins the absolute results.
const goldenDigest = "251fe1c9461288177b8f078613dffeb4bd09d9635bf76ff5d57af47aa790e011"

// goldenConfigs is the pinned matrix: both ISAs at 1, 2, 4 and 8
// threads on every memory mode under ICOUNT, plus the other three
// fetch policies at 8 threads on conventional memory.
func goldenConfigs() []Config {
	var cfgs []Config
	add := func(isa core.ISAKind, threads int, pol core.Policy, mode mem.Mode) {
		cfgs = append(cfgs, Config{
			ISA: isa, Threads: threads, Policy: pol, Memory: mode,
			Scale: 0.01, Seed: 12345,
		})
	}
	for _, isa := range []core.ISAKind{core.ISAMMX, core.ISAMOM} {
		for _, threads := range []int{1, 2, 4, 8} {
			for _, mode := range []mem.Mode{mem.ModeIdeal, mem.ModeConventional, mem.ModeDecoupled} {
				add(isa, threads, core.PolicyICOUNT, mode)
			}
		}
		for _, pol := range []core.Policy{core.PolicyRR, core.PolicyOCOUNT, core.PolicyBALANCE} {
			add(isa, 8, pol, mem.ModeConventional)
		}
	}
	return cfgs
}

// TestGoldenResultDigest pins what the simulator produces. A change
// that only makes the simulator faster must leave the digest alone; a
// deliberate model change updates goldenDigest and bumps Version in
// the same commit.
func TestGoldenResultDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full golden matrix; skipped with -short")
	}
	h := sha256.New()
	for _, cfg := range goldenConfigs() {
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Key(), err)
		}
		data, err := EncodeResult(r)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(data)
		h.Write([]byte{'\n'})
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenDigest {
		t.Fatalf("golden result digest %s, want %s: simulator results changed. "+
			"A deliberate model change updates goldenDigest together with sim.Version (%s); "+
			"a performance-only change must leave both alone", got, goldenDigest, Version)
	}
}

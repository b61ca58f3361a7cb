package mem

import (
	"strings"
	"testing"
)

// TestConfigValidate: the paper's configs pass, and every memory
// override that panicked (index out of range, integer divide by zero,
// invalid geometry, makeslice), spun a run to its cycle cap, silently
// modelled a different machine or grew the heap without bound before
// Validate existed is refused with an error naming its field.
func TestConfigValidate(t *testing.T) {
	for _, mode := range []Mode{ModeIdeal, ModeConventional, ModeDecoupled} {
		if err := DefaultConfig(mode).Validate(); err != nil {
			t.Errorf("DefaultConfig(%v): %v", mode, err)
		}
	}
	for _, c := range []struct {
		field string
		set   func(*Config)
	}{
		{"L1Banks", func(c *Config) { c.L1Banks = 0 }},
		{"IBanks", func(c *Config) { c.IBanks = 0 }},
		{"L2Banks", func(c *Config) { c.L2Banks = 0 }},
		{"DRAM.RowBytes", func(c *Config) { c.DRAM.RowBytes = 0 }},
		{"DRAM.Banks", func(c *Config) { c.DRAM.Banks = 0 }},
		{"DRAM.BeatBytes", func(c *Config) { c.DRAM.BeatBytes = 0 }},
		{"L1Line", func(c *Config) { c.L1Line = 0 }},
		{"L1Line", func(c *Config) { c.L1Line = 48 }},
		{"WBDepth", func(c *Config) { c.WBDepth = -1 }},
		{"WBDepth", func(c *Config) { c.WBDepth = 0 }},
		{"DRAM.QueueCap", func(c *Config) { c.DRAM.QueueCap = 0 }},
		{"L2MSHRs", func(c *Config) { c.L2MSHRs = 0 }},
		{"L1MSHRs", func(c *Config) { c.L1MSHRs = 0 }},
		{"GeneralPorts", func(c *Config) { c.GeneralPorts = 0 }},
		{"L1Banks", func(c *Config) { c.L1Banks = 3 }},
		{"L2Size", func(c *Config) { c.L2Size = 1 << 30 }},
		{"L1Size", func(c *Config) { c.L1Size = 48 << 10 }},
		{"Mode", func(c *Config) { c.Mode = ModeDecoupled + 1 }},
	} {
		cfg := DefaultConfig(ModeConventional)
		c.set(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("override of %s: Validate() = %v, want an error naming it", c.field, err)
		}
	}
}

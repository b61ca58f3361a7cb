package serve

import (
	"bytes"
	"errors"
	"testing"

	"mediasmt/internal/core"
	"mediasmt/internal/mem"
	"mediasmt/internal/sim"
)

// FuzzDecodeJobRequest: the job-submission decoder must never panic,
// and every rejection must be a *requestError (a 400 naming the
// field) — arbitrary client bytes must never surface as a 500.
func FuzzDecodeJobRequest(f *testing.F) {
	f.Add([]byte(`{"experiments":["table4"]}`))
	f.Add([]byte(`{"experiments":["table4"],"scale":0.02,"seed":7,"workers":2,"max_cycles":100000}`))
	f.Add([]byte(`{"experiments":[]}`))
	f.Add([]byte(`{"experiments":["nope"]}`))
	f.Add([]byte(`{"experiments":["table4"],"scale":-1}`))
	f.Add([]byte(`{"experiments":["table4"]}{}`))
	f.Add([]byte(`{"unknown":true}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		ids, _, _, err := decodeJobRequest(bytes.NewReader(data))
		if err != nil {
			var re *requestError
			if !errors.As(err, &re) {
				t.Fatalf("rejection is not a *requestError (would 500): %T %v", err, err)
			}
			return
		}
		if len(ids) == 0 {
			t.Fatal("accepted request resolved to zero experiments")
		}
	})
}

// FuzzDecodeSimRequest: the worker endpoint's config decoder must
// never panic, must reject everything out of bounds with a
// *requestError, exactly like the CLI flag validation, and must accept
// only configs sim.Config.Validate passes. The memory probes seed it.
func FuzzDecodeSimRequest(f *testing.F) {
	for _, p := range memProbes {
		data, err := sim.EncodeConfig(memProbe(p.set))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"threads":1,"scale":0.02,"seed":7}`))
	f.Add([]byte(`{"threads":0}`))
	f.Add([]byte(`{"threads":1,"scale":99}`))
	f.Add([]byte(`{"Threads":1,"Scale":0.02,"Seed":5,"ISA":7}`))
	f.Add([]byte(`{"Threads":1,"Scale":0.02,"Seed":5,"Policy":9}`))
	f.Add([]byte(`{"Threads":1,"Scale":0.02,"Seed":5,"Memory":5}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := decodeSimRequest(bytes.NewReader(data))
		if err != nil {
			var re *requestError
			if !errors.As(err, &re) {
				t.Fatalf("rejection is not a *requestError (would 500): %T %v", err, err)
			}
			return
		}
		if cfg.Threads < 1 {
			t.Fatalf("decodeSimRequest accepted a threadless config: %+v", cfg)
		}
		if cfg.ISA > core.ISAMOM || cfg.Policy > core.PolicyBALANCE || cfg.Memory > mem.ModeDecoupled {
			t.Fatalf("decodeSimRequest accepted an enum value that names nothing: %+v", cfg)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("decodeSimRequest accepted a config Validate refuses: %v", err)
		}
	})
}

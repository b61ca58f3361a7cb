package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"mediasmt/internal/cliflags"
	"mediasmt/internal/exp"
	"mediasmt/internal/sim"
)

// maxRequestBody bounds a job submission; experiment lists are tiny,
// so anything larger is a mistake or abuse.
const maxRequestBody = 1 << 20

// JobRequest is the POST /v1/jobs body. Experiments lists built-in
// experiment ids ("all", an empty list or omission mean every
// experiment). The scalar fields are pointers so the decoder can tell
// "omitted, use the default" from an explicit out-of-range zero, which
// is rejected — the same contract as the exps flags, with the same
// bounds (internal/cliflags).
type JobRequest struct {
	Experiments []string `json:"experiments"`
	Scale       *float64 `json:"scale"`
	Seed        *uint64  `json:"seed"`
	Workers     *int     `json:"workers"`
	MaxCycles   *int64   `json:"max_cycles"`
	// Priority orders this job's simulations against other jobs' when
	// the executor supports priority scheduling (dist.Priority): higher
	// runs first, equal classes stay FIFO. Omitted means 0.
	Priority *int `json:"priority"`
}

// requestError is a validation failure the handler maps to a 400; any
// other decode-path error stays a 500.
type requestError struct{ msg string }

func (e *requestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &requestError{msg: fmt.Sprintf(format, args...)}
}

// decodeJobRequest parses and validates one submission body into the
// experiment id list and suite options for the job. Every rejection is
// a *requestError: a client sending out-of-range parameters must see a
// 400 naming the field, never a 500.
func decodeJobRequest(body io.Reader) (ids []string, opts exp.Options, prio int, err error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req JobRequest
	if err := dec.Decode(&req); err != nil {
		return nil, exp.Options{}, 0, badRequest("invalid JSON body: %v", err)
	}
	if dec.More() {
		return nil, exp.Options{}, 0, badRequest("invalid JSON body: trailing data after the request object")
	}
	ids, err = resolveExperimentIDs(req.Experiments)
	if err != nil {
		return nil, exp.Options{}, 0, err
	}

	opts = exp.Options{Scale: sim.DefaultScale, Seed: sim.DefaultSeed}
	if req.Scale != nil {
		if err := cliflags.Scale("scale", *req.Scale); err != nil {
			return nil, exp.Options{}, 0, badRequest("%v", err)
		}
		opts.Scale = *req.Scale
	}
	if req.Seed != nil {
		if err := cliflags.Seed("seed", *req.Seed); err != nil {
			return nil, exp.Options{}, 0, badRequest("%v", err)
		}
		opts.Seed = *req.Seed
	}
	if req.Workers != nil {
		if err := cliflags.Workers("workers", *req.Workers); err != nil {
			return nil, exp.Options{}, 0, badRequest("%v", err)
		}
		opts.Workers = *req.Workers
	}
	if req.MaxCycles != nil {
		if err := cliflags.MaxCycles("max_cycles", *req.MaxCycles); err != nil {
			return nil, exp.Options{}, 0, badRequest("%v", err)
		}
		opts.MaxCycles = *req.MaxCycles
	}
	if req.Priority != nil {
		if err := cliflags.Priority("priority", *req.Priority); err != nil {
			return nil, exp.Options{}, 0, badRequest("%v", err)
		}
		prio = *req.Priority
	}
	return ids, opts, prio, nil
}

// decodeSimRequest parses and validates the worker endpoint's body:
// one sim.Config in the EncodeConfig wire format. The cliflags bounds
// refuse the explicit zeros Normalize would silently replace, and
// sim.Config.Validate checks the machine — a worker must refuse an
// out-of-range config exactly like the CLIs refuse out-of-range flags,
// never silently normalize it into a different simulation than the
// coordinator keyed. (Coordinators send normalized configs, so in-range
// zero-valued fields never reach these checks.)
func decodeSimRequest(body io.Reader) (sim.Config, error) {
	data, err := io.ReadAll(body)
	if err != nil {
		return sim.Config{}, badRequest("read body: %v", err)
	}
	cfg, err := sim.DecodeConfig(data)
	if err != nil {
		return sim.Config{}, badRequest("%v", err)
	}
	for _, check := range []error{
		cliflags.Scale("scale", cfg.Scale),
		cliflags.Seed("seed", cfg.Seed),
		cliflags.MaxCycles("max_cycles", cfg.MaxCycles),
		cfg.Validate(),
	} {
		if check != nil {
			return sim.Config{}, badRequest("%v", check)
		}
	}
	return cfg, nil
}

// resolveExperimentIDs expands and validates the requested experiment
// list. An empty list (or the single element "all") means every
// built-in, in paper order; unknown ids are rejected naming the valid
// set, mirroring exps -run.
func resolveExperimentIDs(req []string) ([]string, error) {
	if len(req) == 0 || (len(req) == 1 && req[0] == "all") {
		return exp.IDs(), nil
	}
	ids := make([]string, 0, len(req))
	for _, id := range req {
		id = strings.TrimSpace(id)
		if _, ok := exp.ByID(id); !ok {
			return nil, badRequest("unknown experiment %q (have: %s)", id, strings.Join(exp.IDs(), ", "))
		}
		ids = append(ids, id)
	}
	return ids, nil
}

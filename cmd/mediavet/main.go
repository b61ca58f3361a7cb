// Command mediavet is the mediasmt static-analysis suite: custom
// analyzers that enforce the simulator's invariants at lint time
// instead of trusting runtime panics and test luck. It speaks cmd/go's
// vet tool protocol, so CI runs it as
//
//	go build -o mediavet ./cmd/mediavet
//	go vet -vettool=$PWD/mediavet ./...
//
// Run on package patterns, it re-execs that same go vet command with
// itself as the tool, so both forms report the same findings and exit
// non-zero on any (standalone mode exits 2):
//
//	go run ./cmd/mediavet ./...
//
// Analyzers (each can be disabled with -<name>=false):
//
//	simdeterminism  no wall-clock, ambient randomness, goroutines or
//	                unordered map iteration in the simulator core
//	errenvelope     every internal/serve failure goes through the v1
//	                error envelope with a stable code
//	metricnames     constant snake_case metric names, conventional
//	                suffixes, one kind per name across the program
//	execseam        sim.Run/sim.RunReference only behind dist.Executor
//
// A violation that is deliberate carries its justification inline:
//
//	//mediavet:ignore <reason>
//
// trailing the offending line, or alone on the line above it.
package main

import (
	"os"

	"mediasmt/internal/analysis"
	"mediasmt/internal/analysis/errenvelope"
	"mediasmt/internal/analysis/execseam"
	"mediasmt/internal/analysis/metricnames"
	"mediasmt/internal/analysis/simdeterminism"
)

// module scopes the suite to this repository's packages.
const module = "mediasmt"

// Suite is the full analyzer set, in reporting order.
var suite = []*analysis.Analyzer{
	simdeterminism.Analyzer,
	errenvelope.Analyzer,
	metricnames.Analyzer,
	execseam.Analyzer,
}

func main() {
	os.Exit(analysis.Main(module, suite, os.Args[1:]))
}

package simdeterminism_test

import (
	"testing"

	"mediasmt/internal/analysis/analysistest"
	"mediasmt/internal/analysis/simdeterminism"
)

func TestMain(m *testing.M) { analysistest.Main(m, simdeterminism.Analyzer) }

func TestSimDeterminism(t *testing.T) {
	analysistest.Run(t, "testdata", "mediasmt/internal/sim", "mediasmt/internal/notcovered")
}

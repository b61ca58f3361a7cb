package execseam_test

import (
	"testing"

	"mediasmt/internal/analysis/analysistest"
	"mediasmt/internal/analysis/execseam"
)

func TestMain(m *testing.M) { analysistest.Main(m, execseam.Analyzer) }

func TestExecSeam(t *testing.T) {
	analysistest.Run(t, "testdata",
		"mediasmt/internal/dist", "mediasmt/internal/obs", "mediasmt/internal/exp",
		"mediasmt/cmd/smtsim", "mediasmt/cmd/exps")
}

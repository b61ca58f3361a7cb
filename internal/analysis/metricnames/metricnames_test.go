package metricnames_test

import (
	"testing"

	"mediasmt/internal/analysis/analysistest"
	"mediasmt/internal/analysis/metricnames"
)

func TestMain(m *testing.M) { analysistest.Main(m, metricnames.Analyzer) }

func TestMetricNames(t *testing.T) {
	analysistest.Run(t, "testdata", "mediasmt/internal/enc", "mediasmt/internal/obs2")
}

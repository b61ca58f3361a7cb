package errenvelope_test

import (
	"os"
	"strings"
	"testing"

	"mediasmt/internal/analysis/analysistest"
	"mediasmt/internal/analysis/errenvelope"
)

func TestMain(m *testing.M) { analysistest.Main(m, errenvelope.Analyzer) }

func TestErrEnvelope(t *testing.T) {
	analysistest.Run(t, "testdata", "mediasmt/internal/serve")
}

// TestStandalone runs the test binary the way a user runs mediavet,
// on package patterns: it must re-exec go vet, print the fixture's
// findings and exit 2, and it must pass -errenvelope=false on to go
// vet, which then finds nothing.
func TestStandalone(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := analysistest.Command("testdata", exe, "./...")
	out, _ := cmd.CombinedOutput()
	if code, n := cmd.ProcessState.ExitCode(), strings.Count(string(out), "(mediavet:errenvelope)\n"); code != 2 || n != 5 {
		t.Errorf("mediavet ./... exited %d with %d errenvelope diagnostics, want 2 with the fixture's 5:\n%s", code, n, out)
	}
	if out, err := analysistest.Command("testdata", exe, "-errenvelope=false", "./...").CombinedOutput(); err != nil {
		t.Errorf("mediavet -errenvelope=false ./...: %v\n%s", err, out)
	}
}

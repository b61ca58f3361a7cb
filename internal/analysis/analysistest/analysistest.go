// Package analysistest runs one analyzer over a fixture module through
// the driver CI runs, `go vet -vettool`, and matches its diagnostics
// against expectations embedded in the fixture source, in the style of
// golang.org/x/tools' go/analysis/analysistest:
//
//	r, _ := http.Get(url) // want `http.Error bypasses`
//
// Each `// want` comment carries one or more Go string literals, each
// a regexp that must match a diagnostic reported on that line; a want
// comment alone on a line states expectations for the line below it.
// Every diagnostic must be wanted and every want must be matched.
//
// The test binary itself is the vet tool, so each analyzer's tests
// need a TestMain that hands the binary to Main:
//
//	func TestMain(m *testing.M) { analysistest.Main(m, simdeterminism.Analyzer) }
//
// Fixtures live under testdata/src/mediasmt — a self-contained module
// named like the real one, so analyzers' package-path gates see the
// paths they will see in production.
package analysistest

import (
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"mediasmt/internal/analysis"
)

// module mirrors the real module path so fixture packages sit at the
// import paths the analyzers guard.
const module = "mediasmt"

// toolEnv, set in the environment of the commands Command builds,
// makes the test binary act as the vet tool instead of running tests.
const toolEnv = "MEDIAVET_ANALYSISTEST_TOOL"

// Main is the body of an analyzer test binary's TestMain. When
// Command's environment marks the binary as the vet tool, it runs
// mediavet's driver (analysis.Main) with a as the only analyzer;
// otherwise it runs the tests.
func Main(m *testing.M, a *analysis.Analyzer) {
	if os.Getenv(toolEnv) != "" {
		os.Exit(analysis.Main(module, []*analysis.Analyzer{a}, os.Args[1:]))
	}
	os.Exit(m.Run())
}

// Command returns name run with args in the fixture module under
// testdata, with this test binary as the vet tool of Main's analyzer,
// outside any workspace and without the caller's GOFLAGS. GORACE drops
// the race runtime's one-second exit sleep, which a race-built tool
// would pay once per package go vet hands it.
func Command(testdata, name string, args ...string) *exec.Cmd {
	cmd := exec.Command(name, args...)
	cmd.Dir = filepath.Join(testdata, "src", module)
	cmd.Env = append(cmd.Environ(), toolEnv+"=1", "GOWORK=off", "GOFLAGS=", "GORACE=atexit_sleep_ms=0")
	return cmd
}

// diagRx parses the driver's documented diagnostic line,
// file:line:col: message (mediavet:analyzer).
var diagRx = regexp.MustCompile(`^(.+?):(\d+):\d+: (.*) \(mediavet:(\w+)\)$`)

// Run vets the patterns of the fixture module under testdata with
// `go vet -vettool=<test binary>` and reports on t any mismatch
// between the diagnostics and the `// want` expectations. Any line of
// go vet's output that is neither a diagnostic nor a `# pkg` header
// fails the test.
func Run(t *testing.T, testdata string, patterns ...string) {
	t.Helper()
	moduleDir, err := filepath.Abs(filepath.Join(testdata, "src", module))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(moduleDir, "go.mod")); err != nil {
		t.Fatalf("fixture module missing: %v", err)
	}
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	wants, err := collectWants(moduleDir)
	if err != nil {
		t.Fatalf("parse want comments: %v", err)
	}

	out, vetErr := Command(testdata, "go", append([]string{"vet", "-vettool=" + exe}, patterns...)...).CombinedOutput()
	diags := 0
	for _, text := range strings.Split(string(out), "\n") {
		if text == "" || strings.HasPrefix(text, "# ") {
			continue
		}
		m := diagRx.FindStringSubmatch(text)
		if m == nil {
			t.Fatalf("go vet printed %q, not a diagnostic (%v); full output:\n%s", text, vetErr, out)
		}
		diags++
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(moduleDir, file) // go vet shortens paths under its working directory
		}
		line, _ := strconv.Atoi(m[2])
		if !claim(wants, file, line, m[3]) {
			t.Errorf("%s: unexpected diagnostic: %s (mediavet:%s)", file, m[3], m[4])
		}
	}
	if vetErr != nil && diags == 0 {
		t.Fatalf("go vet failed without diagnostics: %v\n%s", vetErr, out)
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.pattern)
		}
	}
}

// want is one expectation: a regexp that must match a diagnostic
// message on (file, line).
type want struct {
	file    string
	line    int
	pattern string
	re      *regexp.Regexp
	matched bool
}

// claim marks the first unmatched want covering the diagnostic.
func claim(wants []*want, file string, line int, message string) bool {
	for _, w := range wants {
		if w.matched || w.line != line || w.file != filepath.Clean(file) {
			continue
		}
		if w.re.MatchString(message) {
			w.matched = true
			return true
		}
	}
	return false
}

// wantRx finds the expectation comment; string literals after it are
// extracted with the Go scanner rules (quoted or backquoted).
var wantRx = regexp.MustCompile(`//\s*want\s+(.*)$`)

// collectWants scans every fixture .go file for want comments.
func collectWants(moduleDir string) ([]*want, error) {
	var wants []*want
	err := filepath.WalkDir(moduleDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return rerr
		}
		abs, aerr := filepath.Abs(path)
		if aerr != nil {
			return aerr
		}
		for i, lineText := range strings.Split(string(data), "\n") {
			m := wantRx.FindStringSubmatchIndex(lineText)
			if m == nil {
				continue
			}
			line := i + 1 // 1-based
			if strings.TrimSpace(lineText[:m[0]]) == "" {
				line++ // own-line comment: expectations are for the next line
			}
			patterns, perr := parsePatterns(lineText[m[2]:m[3]])
			if perr != nil {
				return fmt.Errorf("%s:%d: %v", path, i+1, perr)
			}
			for _, p := range patterns {
				re, cerr := regexp.Compile(p)
				if cerr != nil {
					return fmt.Errorf("%s:%d: bad want regexp: %v", path, i+1, cerr)
				}
				wants = append(wants, &want{file: abs, line: line, pattern: p, re: re})
			}
		}
		return nil
	})
	return wants, err
}

// parsePatterns splits `"a" "b"` / backquoted forms into their string
// values.
func parsePatterns(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		var quote byte = s[0]
		if quote != '"' && quote != '`' {
			return nil, fmt.Errorf("want expectations must be quoted or backquoted strings (got %q)", s)
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			return nil, fmt.Errorf("unterminated want string in %q", s)
		}
		lit := s[:end+2]
		val, err := strconv.Unquote(lit)
		if err != nil {
			return nil, fmt.Errorf("bad want string %q: %v", lit, err)
		}
		out = append(out, val)
		s = strings.TrimSpace(s[end+2:])
	}
	return out, nil
}

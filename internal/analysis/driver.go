package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Main is the entry point shared by cmd/mediavet's two personalities,
// which run one driver:
//
//   - `go vet -vettool=mediavet ./...` — cmd/go first probes the tool
//     with -V=full (version/build-ID handshake for result caching) and
//     -flags (JSON flag inventory), then invokes it once per package
//     with a generated vet.cfg path as the only positional argument;
//   - `mediavet [patterns]` — standalone mode: re-exec
//     `go vet -vettool=<this binary>` on the patterns (default ./...),
//     passing each disabled analyzer on as -<name>=false.
//
// module scopes the suite: only packages inside it are analyzed.
// Returns the process exit code.
func Main(module string, analyzers []*Analyzer, args []string) int {
	fs := flag.NewFlagSet("mediavet", flag.ContinueOnError)
	versionFlag := fs.String("V", "", "print version and exit (vet tool protocol)")
	flagsFlag := fs.Bool("flags", false, "print analyzer flags in JSON (vet tool protocol)")
	toggles := make(map[string]*bool, len(analyzers))
	for _, a := range analyzers {
		toggles[a.Name] = fs.Bool(a.Name, true, synopsis(a))
	}
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: mediavet [flags] [package patterns | vet.cfg]\n\n"+
			"mediavet checks the mediasmt tree against its simulator invariants.\n"+
			"Run it on package patterns (it re-execs go vet), or through go vet -vettool.\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(fs.Output(), "  %-16s %s\n", a.Name, synopsis(a))
		}
		fmt.Fprintf(fs.Output(), "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *versionFlag != "" {
		printVersion(os.Stdout)
		return 0
	}
	if *flagsFlag {
		printFlagDefs(os.Stdout, analyzers)
		return 0
	}

	enabled := make(map[string]bool, len(toggles))
	for name, on := range toggles {
		enabled[name] = *on
	}

	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return runUnit(rest[0], module, analyzers, enabled)
	}
	return vet(analyzers, enabled, rest)
}

// vet is standalone mode: `go vet` with this binary as the vet tool,
// so a direct run reports exactly what CI's vettool step reports.
// go vet prints the diagnostics; vet exits 2 when go vet fails.
func vet(analyzers []*Analyzer, enabled map[string]bool, patterns []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "mediavet: %v\n", err)
		return 1
	}
	args := []string{"vet", "-vettool=" + exe}
	for _, a := range analyzers {
		if !enabled[a.Name] {
			args = append(args, "-"+a.Name+"=false")
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cmd := exec.Command("go", append(args, patterns...)...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			fmt.Fprintf(os.Stderr, "mediavet: %v\n", err)
		}
		return 2
	}
	return 0
}

// printVersion answers cmd/go's -V=full handshake. The line must read
// `<name> version devel ... buildID=<id>`; the build ID is a content
// hash of the binary so go vet's result cache invalidates whenever the
// tool is rebuilt with different analyzers.
func printVersion(w io.Writer) {
	name := "mediavet"
	if len(os.Args) > 0 {
		name = filepath.Base(os.Args[0])
	}
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			id = fmt.Sprintf("%x", sha256.Sum256(data))
		}
	}
	fmt.Fprintf(w, "%s version devel buildID=%s\n", name, id)
}

// printFlagDefs answers cmd/go's -flags probe: the JSON inventory of
// flags `go vet` may pass through to the tool.
func printFlagDefs(w io.Writer, analyzers []*Analyzer) {
	type flagDef struct {
		Name  string
		Bool  bool
		Usage string
	}
	defs := make([]flagDef, 0, len(analyzers))
	for _, a := range analyzers {
		defs = append(defs, flagDef{Name: a.Name, Bool: true, Usage: synopsis(a)})
	}
	data, _ := json.Marshal(defs)
	fmt.Fprintf(w, "%s\n", data)
}

// synopsis is the first line of a's Doc: its flag usage.
func synopsis(a *Analyzer) string {
	doc, _, _ := strings.Cut(a.Doc, "\n")
	return doc
}

// Command qqlvet is the engine's invariant checker: a multichecker over
// the analyzers in internal/lint, machine-checking the conventions the
// compiler cannot see — storage lock discipline (locksafe), deterministic
// pool release (releasepair), pointer-based Value comparison on hot paths
// (valuecopy), construction-time metrics registration (metricsreg) and
// zero-clone query scans with compiled expressions only (sharedscan).
//
// It runs in two modes:
//
//	qqlvet ./...
//
// Standalone: resolves the patterns with the go tool, type-checks against
// build-cache export data and runs the suite. Unless -novet is given it
// first runs the standard `go vet` passes over the same patterns, so one
// command gives the union of stock vet and the engine's own invariants —
// this is what CI runs, and why the invariant checks cannot drift out of
// the default developer flow.
//
//	go vet -vettool=$(command -v qqlvet) ./...
//
// Vet-tool mode: qqlvet speaks the cmd/go vet protocol (-V=full version
// handshake, JSON vet.cfg unit inputs, export-data type checking), so it
// slots into `go vet` and `go test -vet` wherever those run. In this mode
// only the custom analyzers run — the stock passes are the ones being
// replaced — which is why CI uses standalone mode.
//
// Exit status is non-zero when any analyzer reports a finding. There is
// no suppression mechanism by design: a finding is fixed, or the analyzer
// is wrong and gets fixed instead.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"os/exec"
	"strings"

	"repro/internal/lint"
)

func main() {
	// The cmd/go handshake: every vet tool must answer -V=full with
	// "<name> version <id>" before it is trusted with unit configs. The id
	// must change whenever the analyzers change — cmd/go caches vet
	// results keyed by it, so a constant id would serve stale diagnostics
	// from a previous build of the tool. Hashing the executable itself is
	// how x/tools' unitchecker solves the same problem.
	if len(os.Args) == 2 && strings.HasPrefix(os.Args[1], "-V") {
		fmt.Printf("qqlvet version %s\n", buildID())
		return
	}
	// cmd/go also probes `<vettool> -flags` for the JSON list of analyzer
	// flags it should accept on the vet command line; qqlvet exposes none.
	if len(os.Args) == 2 && os.Args[1] == "-flags" {
		fmt.Println("[]")
		return
	}
	// Vet-tool mode: cmd/go passes a single *.cfg argument per package.
	if len(os.Args) == 2 && strings.HasSuffix(os.Args[1], ".cfg") {
		os.Exit(unitcheck(os.Args[1]))
	}

	novet := flag.Bool("novet", false, "skip the embedded standard `go vet` passes")
	runOnly := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("analyzers", false, "list registered analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout instead of text on stderr")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: qqlvet [-novet] [-json] [-run a,b] packages...\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, strings.SplitN(a.Doc, "\n", 2)[0])
		}
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%s: %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		flag.Usage()
		os.Exit(2)
	}

	failed := false
	if !*novet {
		// Embed the stock passes: qqlvet replaces the bare `go vet` step,
		// so it must be a superset of it.
		cmd := exec.Command("go", append([]string{"vet"}, patterns...)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			failed = true
		}
	}

	analyzers := selectAnalyzers(*runOnly)
	// LoadProgram returns the matched packages, their test variants and
	// every in-module dependency in dependency order, so RunProgram's
	// facts (lock acquisition sets, always-nil errors, enum membership)
	// flow from defining package to user.
	pkgs, err := lint.LoadProgram(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qqlvet: %v\n", err)
		os.Exit(1)
	}
	diags, _, err := lint.RunProgram(pkgs, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qqlvet: %v\n", err)
		os.Exit(1)
	}
	if *jsonOut {
		printJSON(pkgs, diags)
	} else {
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", position(pkgs, d), d.Analyzer, d.Message)
		}
	}
	if failed || len(diags) > 0 {
		os.Exit(1)
	}
}

// buildID derives the -V=full version id from the running executable's
// content, so rebuilding the tool invalidates cmd/go's cached vet results.
func buildID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

// position renders a diagnostic's position; every loaded package shares
// one FileSet, so the first package's suffices.
func position(pkgs []*lint.Package, d lint.Diagnostic) token.Position {
	if len(pkgs) == 0 {
		return token.Position{}
	}
	return pkgs[0].Fset.Position(d.Pos)
}

// jsonDiagnostic is the structured form of one finding, stable for CI
// tooling: the same fields the text format prints, split out.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func printJSON(pkgs []*lint.Package, diags []lint.Diagnostic) {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		pos := position(pkgs, d)
		out = append(out, jsonDiagnostic{
			File:     pos.Filename,
			Line:     pos.Line,
			Column:   pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	_ = enc.Encode(out)
}

func selectAnalyzers(runOnly string) []*lint.Analyzer {
	all := lint.All()
	if runOnly == "" {
		return all
	}
	want := map[string]bool{}
	for _, n := range strings.Split(runOnly, ",") {
		want[strings.TrimSpace(n)] = true
	}
	var out []*lint.Analyzer
	for _, a := range all {
		if want[a.Name] {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		fmt.Fprintf(os.Stderr, "qqlvet: -run %q matches no analyzers\n", runOnly)
		os.Exit(2)
	}
	return out
}

// Command atpgvet is the repository's custom static-analysis suite: five
// analyzers that mechanically enforce the generation engine's sharp-edged
// invariants (trail frame pairing, scratch-slice aliasing, deterministic
// merge, zero-alloc hot paths, cancelable consume loops).  See
// docs/ARCHITECTURE.md, "Enforced invariants".
//
// It runs standalone, like staticcheck, over the production sources of the
// packages named (./... by default), and exits 1 when it reports anything:
//
//	go run ./tools/atpgvet ./...
//
// Suppress a finding with a trailing comment carrying a mandatory reason:
//
//	//atpgvet:ignore <analyzer> -- <reason>
//
// The suite is built on the stdlib-only kernel in tools/atpgvet/analysis;
// it has no module dependencies, so there is no golang.org/x/tools version
// to manage — the analyzers port to the x/tools multichecker by swapping
// that import if the dependency is ever introduced (see analysis package
// doc).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/tools/atpgvet/analysis"
	"repro/tools/atpgvet/analyzers/ctxloop"
	"repro/tools/atpgvet/analyzers/detmerge"
	"repro/tools/atpgvet/analyzers/hotalloc"
	"repro/tools/atpgvet/analyzers/scratchalias"
	"repro/tools/atpgvet/analyzers/trailpair"
	"repro/tools/atpgvet/driver"
)

// Analyzers is the multichecker's analyzer set.
var Analyzers = []*analysis.Analyzer{
	trailpair.Analyzer,
	scratchalias.Analyzer,
	detmerge.Analyzer,
	hotalloc.Analyzer,
	ctxloop.Analyzer,
}

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	pkgs, err := driver.Load(".", args)
	if err != nil {
		fmt.Fprintf(os.Stderr, "atpgvet: %v\n", err)
		os.Exit(1)
	}
	findings := driver.Run(pkgs, Analyzers)
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: atpgvet [packages]\n\nAnalyzers:\n")
	for _, a := range Analyzers {
		doc, _, _ := strings.Cut(a.Doc, "\n")
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, doc)
	}
	fmt.Fprintf(os.Stderr, "\nSuppressions: %s <analyzer> -- <reason>\n", driver.IgnorePrefix)
}

// Command kervet is the realm's static-analysis suite: it loads and
// type-checks the repository from source (stdlib only — go/parser,
// go/types, go/importer; no x/tools) and enforces the invariants the
// compiler cannot see but the paper's security argument depends on:
//
//	consttime   secret keys and keyed checksums are compared in
//	            constant time (crypto/subtle), §2.1/§4.3
//	deferwipe   key material materialized into locals is zeroized, and
//	            on EVERY exit path — early returns and panic paths
//	            included (kerflow CFG), §4.1
//	secretflow  key material never flows into fmt/log/error sinks,
//	            telemetry, or unsealed writes (kerflow taint)
//	lockflow    mutex discipline: per-path lock/unlock balance, no
//	            order inversions, no snapshot-before-lock races
//	            (kerflow lockset)
//	clockuse    protocol code reads time only through the injected
//	            clock abstraction, §2/§4.6
//	hotpath     //kerb:hotpath functions (the PR 1 zero-alloc AS/TGS
//	            path) stay free of fmt, map/closure allocation, and
//	            map-order nondeterminism
//	wiresym     exported wire structs with Encode have a matching
//	            Decode and a golden vector under internal/wire/testdata
//
// Usage:
//
//	kervet [flags] [packages]     # default ./...
//
//	-json                  emit findings as a JSON array on stdout
//	-baseline FILE         suppress findings recorded in FILE; only
//	                       new findings fail the run
//	-write-baseline FILE   record current findings into FILE and exit 0
//
// Diagnostics print as file:line: analyzer: message; the exit status is
// non-zero if any (non-baselined) diagnostic is emitted. Suppress a
// finding permanently with a justified directive:
// //kerb:ignore <analyzer> -- <reason>. Baseline entries are keyed on
// (analyzer, file, message) without line numbers, so unrelated edits
// that shift lines do not invalidate the baseline.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"kerberos/internal/analysis"
	"kerberos/internal/analysis/clockuse"
	"kerberos/internal/analysis/consttime"
	"kerberos/internal/analysis/deferwipe"
	"kerberos/internal/analysis/hotpath"
	"kerberos/internal/analysis/lockflow"
	"kerberos/internal/analysis/secretflow"
	"kerberos/internal/analysis/wiresym"
)

// protocolPkgs are the packages whose time reads must flow through the
// clock abstraction: everywhere a skew window, lifetime, or replay
// decision is made. Observability, the workload driver, and the CLI
// tools legitimately read the wall clock.
var protocolPkgs = []string{
	"kerberos/internal/core",
	"kerberos/internal/kdc",
	"kerberos/internal/client",
	"kerberos/internal/replay",
	"kerberos/internal/wire",
	"kerberos/internal/des",
	"kerberos/internal/kprop",
}

// wirePkgs are where wire structs live; wiresym's Encode/Decode/golden
// contract applies there.
var wirePkgs = []string{
	"kerberos/internal/core",
	"kerberos/internal/wire",
	"kerberos/internal/kprop",
}

// lockPkgs hold the shard, store, and replay-cache mutexes whose
// discipline lockflow enforces.
var lockPkgs = []string{
	"kerberos/internal/kdb",
	"kerberos/internal/replay",
	"kerberos/internal/kdc",
	"kerberos/internal/kprop",
}

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	baseline := flag.String("baseline", "", "suppress findings recorded in this file")
	writeBaseline := flag.String("write-baseline", "", "record current findings into this file and exit 0")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: kervet [flags] [packages]\n\nAnalyzers:\n")
		for _, a := range allAnalyzers(".") {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-10s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	os.Exit(run(flag.Args(), os.Stdout, options{
		json: *jsonOut, baseline: *baseline, writeBaseline: *writeBaseline,
	}))
}

type options struct {
	json          bool
	baseline      string
	writeBaseline string
}

func allAnalyzers(modRoot string) []*analysis.Analyzer {
	return []*analysis.Analyzer{
		consttime.Analyzer,
		deferwipe.Analyzer,
		secretflow.Analyzer,
		lockflow.Analyzer,
		clockuse.Analyzer,
		hotpath.Analyzer,
		wiresym.New(filepath.Join(modRoot, "internal", "wire", "testdata")),
	}
}

func run(patterns []string, out *os.File, opt options) int {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "kervet:", err)
		return 2
	}
	analyzers := allAnalyzers(loader.ModRoot)
	for _, a := range analyzers {
		analysis.RegisterIgnorable(a.Name)
	}
	paths, err := loader.Match(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kervet:", err)
		return 2
	}
	var pkgs []*analysis.Package
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kervet:", err)
			return 2
		}
		pkgs = append(pkgs, pkg)
	}
	diags, err := analysis.Run(pkgs, analyzers, scope)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kervet:", err)
		return 2
	}
	cwd, _ := os.Getwd()
	for i := range diags {
		// Module-relative paths: stable in CI logs, clickable in editors,
		// and machine-independent in baseline files.
		if rel, err := filepath.Rel(cwd, diags[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].Pos.Filename = rel
		}
	}

	if opt.writeBaseline != "" {
		if err := writeBaselineFile(opt.writeBaseline, diags); err != nil {
			fmt.Fprintln(os.Stderr, "kervet:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "kervet: wrote %d finding(s) to %s\n", len(diags), opt.writeBaseline)
		return 0
	}
	if opt.baseline != "" {
		known, err := readBaselineFile(opt.baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kervet:", err)
			return 2
		}
		diags = filterBaselined(diags, known)
	}

	if opt.json {
		if err := printJSON(out, diags); err != nil {
			fmt.Fprintln(os.Stderr, "kervet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(out, d.String())
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "kervet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// scope decides which analyzers examine which packages.
func scope(a *analysis.Analyzer, pkg *analysis.Package) bool {
	switch a.Name {
	case "clockuse":
		return hasPrefix(pkg.Path, protocolPkgs)
	case "wiresym":
		return hasPrefix(pkg.Path, wirePkgs)
	case "lockflow":
		return hasPrefix(pkg.Path, lockPkgs)
	default:
		return true
	}
}

func hasPrefix(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// ---- machine-readable output ----

// jsonDiag mirrors the fields CI consumers (and the problem matcher's
// JSON mode) need; line/col are 1-based.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func printJSON(out *os.File, diags []analysis.Diagnostic) error {
	js := make([]jsonDiag, len(diags))
	for i, d := range diags {
		js[i] = jsonDiag{
			File: d.Pos.Filename, Line: d.Pos.Line, Column: d.Pos.Column,
			Analyzer: d.Analyzer, Message: d.Message,
		}
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(js)
}

// ---- baseline ----

// baselineKey identifies a finding across line-number drift: the file,
// the analyzer, and the message, but not the position within the file.
func baselineKey(d analysis.Diagnostic) string {
	return d.Analyzer + "\t" + filepath.ToSlash(d.Pos.Filename) + "\t" + d.Message
}

func writeBaselineFile(path string, diags []analysis.Diagnostic) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# kervet baseline: one finding per line as analyzer<TAB>file<TAB>message.")
	fmt.Fprintln(w, "# Findings listed here are suppressed by `kervet -baseline`; new findings still fail.")
	for _, d := range diags {
		fmt.Fprintln(w, baselineKey(d))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func readBaselineFile(path string) (map[string]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	known := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		known[line]++
	}
	return known, sc.Err()
}

// filterBaselined drops findings present in the baseline, multiset-
// style: a baseline entry absorbs at most as many findings as it was
// recorded times, so a duplicated regression still fails.
func filterBaselined(diags []analysis.Diagnostic, known map[string]int) []analysis.Diagnostic {
	var fresh []analysis.Diagnostic
	for _, d := range diags {
		k := baselineKey(d)
		if known[k] > 0 {
			known[k]--
			continue
		}
		fresh = append(fresh, d)
	}
	return fresh
}

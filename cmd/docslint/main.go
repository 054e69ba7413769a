// Command docslint enforces the repository's godoc discipline: every
// exported identifier in the audited packages must carry a doc comment.
// It is a stdlib-only stand-in for the doc-comment checks of revive or
// golint, so CI needs no external tooling.
//
//	docslint [package-dir ...]
//
// With no arguments it audits the root facade (package storm) and the
// observability- and robustness-facing packages (internal/obs,
// internal/engine, internal/distr — including the fault-injection layer —
// internal/wire, internal/server, internal/estimator, internal/bench,
// internal/ingest).
//
// Run with no arguments from the repository root, it also holds the
// documents to their caps: every CHANGES.md entry numbered firstCappedEntry
// or later is one paragraph of at most maxEntryWords words (earlier entries
// are grandfathered), and DESIGN.md stays within maxDesignBytes.
//
// Exit status is non-zero when any exported identifier lacks a doc
// comment or a document exceeds its cap; each violation prints as
// file:line: what.
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// defaultDirs are the packages audited when no arguments are given: the
// root facade (the import downstream users read godoc for) plus the ones
// the observability and fault-tolerance layers promise are fully
// documented (internal/distr covers fault.go's FaultPlan surface).
var defaultDirs = []string{
	".",
	"internal/obs",
	"internal/engine",
	"internal/distr",
	"internal/wire",
	"internal/server",
	"internal/estimator",
	"internal/bench",
	"internal/ingest",
}

func main() {
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: docslint [package-dir ...]")
		flag.PrintDefaults()
	}
	flag.Parse()
	dirs := flag.Args()
	repoRoot := len(dirs) == 0
	if repoRoot {
		dirs = defaultDirs
	}

	bad := 0
	for _, dir := range dirs {
		violations, err := lintDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docslint: %s: %v\n", dir, err)
			os.Exit(2)
		}
		for _, v := range violations {
			fmt.Println(v)
		}
		bad += len(violations)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "docslint: %d exported identifier(s) missing doc comments\n", bad)
	}
	over := 0
	if repoRoot {
		violations, err := lintDocCaps(".")
		if err != nil {
			fmt.Fprintf(os.Stderr, "docslint: %v\n", err)
			os.Exit(2)
		}
		for _, v := range violations {
			fmt.Println(v)
		}
		if over = len(violations); over > 0 {
			fmt.Fprintf(os.Stderr, "docslint: %d document cap(s) exceeded\n", over)
		}
	}
	if bad+over > 0 {
		os.Exit(1)
	}
}

// The document caps. CHANGES.md entries are numbered ("PR <n>: ...", one
// per line); those numbered below firstCappedEntry predate the cap.
const (
	firstCappedEntry = 31
	maxEntryWords    = 150
	maxDesignBytes   = 72 << 10
)

// lintDocCaps checks CHANGES.md and DESIGN.md in dir against their caps and
// returns one "file:line: what" string per violation.
func lintDocCaps(dir string) ([]string, error) {
	changes, err := os.ReadFile(filepath.Join(dir, "CHANGES.md"))
	if err != nil {
		return nil, err
	}
	out := changesViolations(string(changes))
	design, err := os.Stat(filepath.Join(dir, "DESIGN.md"))
	if err != nil {
		return nil, err
	}
	if design.Size() > maxDesignBytes {
		out = append(out, fmt.Sprintf("DESIGN.md:1: %d bytes, cap %d", design.Size(), maxDesignBytes))
	}
	return out, nil
}

// entryStart matches the first line of a CHANGES.md entry.
var entryStart = regexp.MustCompile(`^PR (\d{1,6})\b`)

// changesViolations returns the CHANGES.md entries numbered
// firstCappedEntry or later that run past one paragraph or maxEntryWords
// words. An entry is its first line and every line up to the next entry;
// a blank line followed by more of it starts a second paragraph.
func changesViolations(text string) []string {
	type entry struct{ line, num, words, paragraphs int }
	var entries []entry
	afterBlank := false
	for i, line := range strings.Split(text, "\n") {
		if strings.TrimSpace(line) == "" {
			afterBlank = true
			continue
		}
		if m := entryStart.FindStringSubmatch(line); m != nil {
			num, _ := strconv.Atoi(m[1]) // at most six digits: cannot fail
			entries = append(entries, entry{line: i + 1, num: num, paragraphs: 1})
		} else if len(entries) > 0 && afterBlank {
			entries[len(entries)-1].paragraphs++
		}
		if len(entries) > 0 {
			entries[len(entries)-1].words += len(strings.Fields(line))
		}
		afterBlank = false
	}
	var out []string
	for _, e := range entries {
		if e.num < firstCappedEntry {
			continue
		}
		if e.paragraphs > 1 {
			out = append(out, fmt.Sprintf("CHANGES.md:%d: entry %d has %d paragraphs, cap 1", e.line, e.num, e.paragraphs))
		}
		if e.words > maxEntryWords {
			out = append(out, fmt.Sprintf("CHANGES.md:%d: entry %d has %d words, cap %d", e.line, e.num, e.words, maxEntryWords))
		}
	}
	return out
}

// lintDir parses every non-test Go file in dir and returns one
// "file:line: name" string per undocumented exported identifier.
func lintDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var out []string
	report := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		out = append(out, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(p.Filename), p.Line, what))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Name.IsExported() && exportedReceiver(d) && d.Doc == nil {
						report(d.Pos(), funcLabel(d))
					}
				case *ast.GenDecl:
					lintGenDecl(d, report)
				}
			}
		}
	}
	return out, nil
}

// exportedReceiver reports whether a method's receiver type is itself
// exported (methods on unexported types are internal detail).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true // plain function
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver T[P]
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}

// funcLabel renders "Name" or "(Recv).Name" for a function declaration.
func funcLabel(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return d.Name.Name
	}
	return "(" + recvTypeName(d.Recv.List[0].Type) + ")." + d.Name.Name
}

// recvTypeName extracts the bare receiver type name.
func recvTypeName(t ast.Expr) string {
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return "?"
		}
	}
}

// lintGenDecl checks type, var, and const declarations. A doc comment on
// the grouped declaration covers every spec inside it, matching godoc's
// own rendering; otherwise each exported spec needs its own doc or
// trailing line comment.
func lintGenDecl(d *ast.GenDecl, report func(token.Pos, string)) {
	groupDocumented := d.Doc != nil
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && !groupDocumented && s.Doc == nil {
				report(s.Pos(), s.Name.Name)
			}
		case *ast.ValueSpec:
			if groupDocumented || s.Doc != nil || s.Comment != nil {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					report(name.Pos(), name.Name)
				}
			}
		}
	}
}

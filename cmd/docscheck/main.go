// Command docscheck is the CI documentation gate: it fails (exit 1) when an
// exported identifier in the audited packages lacks a godoc comment, when
// an audited package lacks a package-level doc comment, or when an exported
// field of an audited …Options or …Config struct is set nowhere in the
// module (knobs.go says what counts as setting it), or when a call of
// reflect.DeepEqual in the root module takes a dynamo.Value or anything
// holding one (deepequal.go), or when a method outside the storage adapter
// and the reference store forwards the typed data calls GetProj or
// QueryIndex (forwarders.go), or when a -run pattern of the CI workflow or
// a backticked name in OPERATIONS.md names a test that no test function's
// name starts with (testnames.go). Run it from the module root.
//
// Usage:
//
//	docscheck [package-dir ...]
//
// With no arguments it audits the default set: the public beldi API, the
// substrate packages (dynamo, platform, queue), the Beldi core, the utility
// packages (hist, clock, uuid, workload), and the figure harness (bench). Exported types, functions,
// methods, and const/var groups are checked; test files are ignored. A
// const/var group is satisfied by a comment on the group as a whole or on
// the individual name, matching godoc's rendering rules.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// defaultDirs is the audited package set (repo-relative), per the
// documentation-gate policy in CONTRIBUTING-grade docs: every exported
// identifier in these packages is part of a documented surface.
var defaultDirs = []string{
	"beldi",
	"beldi/stepfn",
	"internal/cluster",
	"internal/core",
	"internal/dynamo",
	"internal/storage",
	"internal/storage/codec",
	"internal/storage/storagetest",
	"internal/pipeline",
	"internal/remote",
	"internal/sim",
	"internal/walstore",
	"internal/queue",
	"internal/platform",
	"internal/hist",
	"internal/telemetry",
	"internal/clock",
	"internal/uuid",
	"internal/workload",
	"internal/apps/cron",
	"internal/bench",
	"cmd/beldi-trace",
	"cmd/beldi-storaged",
}

func main() {
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		dirs = defaultDirs
	}
	var problems []string
	for _, dir := range dirs {
		ps, err := auditDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docscheck: %s: %v\n", dir, err)
			os.Exit(2)
		}
		problems = append(problems, ps...)
	}
	found, err := checkModule()
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: module: %v\n", err)
		os.Exit(2)
	}
	if problems = append(problems, found...); len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d findings: undocumented exported identifiers, option fields nothing sets, DeepEqual over values, typed-call forwarders, test names that name no test\n", len(problems))
		os.Exit(1)
	}
}

// auditDir parses one package directory and reports every undocumented
// exported declaration as "file:line: message". It collects the package's
// option structs for the knob gate.
func auditDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var problems []string
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		problems = append(problems, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(p.Filename), p.Line, fmt.Sprintf(format, args...)))
	}
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil && len(strings.TrimSpace(f.Doc.Text())) > 0 {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			// Attribute the finding to the package's first file by name for a
			// stable message.
			names := make([]string, 0, len(pkg.Files))
			for n := range pkg.Files {
				names = append(names, n)
			}
			sort.Strings(names)
			problems = append(problems, fmt.Sprintf("%s:1: package %s has no package doc comment", filepath.ToSlash(names[0]), pkg.Name))
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || !exportedReceiver(d) {
						continue
					}
					if d.Doc == nil {
						report(d.Pos(), "exported %s %s is undocumented", declKind(d), declName(d))
					}
				case *ast.GenDecl:
					auditGenDecl(d, report)
					collectKnobs(fset, d, pkg.Name)
				}
			}
		}
	}
	return problems, nil
}

// exportedReceiver reports whether a method's receiver type is exported (a
// method on an unexported type is not part of the public surface).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr: // generic receiver
			t = v.X
		case *ast.Ident:
			return v.IsExported()
		default:
			return true
		}
	}
}

func declKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

func declName(d *ast.FuncDecl) string {
	if d.Recv != nil && len(d.Recv.List) > 0 {
		return fmt.Sprintf("(%s).%s", typeString(d.Recv.List[0].Type), d.Name.Name)
	}
	return d.Name.Name
}

func typeString(t ast.Expr) string {
	switch v := t.(type) {
	case *ast.StarExpr:
		return "*" + typeString(v.X)
	case *ast.Ident:
		return v.Name
	default:
		return "?"
	}
}

// auditGenDecl checks type, const, and var declarations. For grouped
// const/var blocks a doc comment on the group covers every name in it.
func auditGenDecl(d *ast.GenDecl, report func(pos token.Pos, format string, args ...any)) {
	switch d.Tok {
	case token.TYPE:
		for _, spec := range d.Specs {
			ts := spec.(*ast.TypeSpec)
			if !ts.Name.IsExported() {
				continue
			}
			if d.Doc == nil && ts.Doc == nil {
				report(ts.Pos(), "exported type %s is undocumented", ts.Name.Name)
			}
		}
	case token.CONST, token.VAR:
		groupDocumented := d.Doc != nil
		for _, spec := range d.Specs {
			vs := spec.(*ast.ValueSpec)
			for _, name := range vs.Names {
				if !name.IsExported() {
					continue
				}
				if !groupDocumented && vs.Doc == nil && vs.Comment == nil {
					report(name.Pos(), "exported %s %s is undocumented", d.Tok, name.Name)
				}
			}
		}
	}
}

package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
)

// The knob gate: every exported field of a struct named …Options or …Config
// in an audited package must be set somewhere in the module, or it is a
// constant dressed as a setting. The module is every .go file under the root
// that the default build context selects, but testdata and dot-directories:
// tests and the benchmarks module (whose path is its directory under the
// root's) count. Every package is type-checked, so a setter is resolved by
// type however it is spelled: a key of a composite literal of the struct
// (named, aliased, through a renamed import, or with its type elided), a
// positional literal of it (every field), an assignment or ++/-- to x.Field
// other than a defaulting one (inside an if whose condition reads the same
// x.Field), or &x.Field (a flag.XVar binding, a pointer handed to a decoder).

// knobFields maps each audited field's declaration position to its name,
// "pkg.Type.Field".
var knobFields = map[string]string{}

// collectKnobs records the option-struct fields one audited declaration of
// package pkg declares.
func collectKnobs(fset *token.FileSet, d *ast.GenDecl, pkg string) {
	for _, spec := range d.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok || !ts.Name.IsExported() || !(strings.HasSuffix(ts.Name.Name, "Options") || strings.HasSuffix(ts.Name.Name, "Config")) {
			continue
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, fl := range st.Fields.List {
			for _, id := range fl.Names {
				if id.IsExported() {
					knobFields[fset.Position(id.Pos()).String()] = pkg + "." + ts.Name.Name + "." + id.Name
				}
			}
		}
	}
}

// checkModule type-checks the module and reports every collected field
// nothing sets and every reflect.DeepEqual over values (deepequal.go).
func checkModule() ([]string, error) {
	gomod, err := os.ReadFile("go.mod")
	if err != nil {
		return nil, err
	}
	_, mod, _ := strings.Cut(string(gomod), "module ")
	mod, _, _ = strings.Cut(mod, "\n")
	l := &loader{
		fset:   token.NewFileSet(),
		module: strings.TrimSpace(mod),
		dirs:   map[string]*pkgFiles{},
		pkgs:   map[string]*types.Package{},
		set:    map[string]bool{},
		found:  map[string]bool{},
	}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	if err := l.parse(); err != nil {
		return nil, err
	}
	for _, dir := range l.order {
		if err := l.checkDir(dir); err != nil {
			return nil, err
		}
	}
	var problems []string
	for p := range l.found {
		problems = append(problems, p)
	}
	for pos, field := range knobFields {
		if !l.set[pos] {
			problems = append(problems, pos+": "+field+" is set nowhere in the module: make it a constant, or give it a caller")
		}
	}
	return problems, nil
}

// loader type-checks the module's packages from source and records in set
// the declaration position of every field a checked file sets.
type loader struct {
	fset   *token.FileSet
	std    types.Importer
	module string
	order  []string                  // directories holding Go files, walk order
	dirs   map[string]*pkgFiles      // directory → its files
	pkgs   map[string]*types.Package // directory → its package as others import it
	under  map[string]*types.Package // import path → its package with tests, while its external tests are checked
	set    map[string]bool
	nested []string        // directories holding a go.mod of their own: other modules
	found  map[string]bool // DeepEqual findings, each once however often its file is checked
}

// pkgFiles are one directory's parsed files.
type pkgFiles struct{ files, tests, xtest []*ast.File }

// parse reads every module file the default build context selects.
func (l *loader) parse() error {
	return filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && p != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.Name() == "go.mod" && p != "go.mod":
			l.nested = append(l.nested, filepath.ToSlash(filepath.Dir(p)))
			return nil
		case d.IsDir() || !strings.HasSuffix(p, ".go"):
			return nil
		}
		dir := filepath.Dir(p)
		if ok, err := build.Default.MatchFile(dir, d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(l.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pf := l.dirs[dir]
		if pf == nil {
			pf = &pkgFiles{}
			l.dirs[dir] = pf
			l.order = append(l.order, dir)
		}
		switch {
		case !strings.HasSuffix(p, "_test.go"):
			pf.files = append(pf.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			pf.xtest = append(pf.xtest, f)
		default:
			pf.tests = append(pf.tests, f)
		}
		return nil
	})
}

// Import implements types.Importer: a module package is checked from its
// directory, anything else comes from the standard library's source.
func (l *loader) Import(p string) (*types.Package, error) {
	if pkg := l.under[p]; pkg != nil {
		return pkg, nil
	}
	if rel, ok := strings.CutPrefix(p, l.module); ok && (rel == "" || rel[0] == '/') {
		return l.load(filepath.Clean("." + rel))
	}
	return l.std.Import(p)
}

// load checks a directory's package, as other packages import it, once.
func (l *loader) load(dir string) (*types.Package, error) {
	if pkg := l.pkgs[dir]; pkg != nil {
		return pkg, nil
	}
	pf := l.dirs[dir]
	if pf == nil || pf.files == nil {
		return nil, fmt.Errorf("%s: no Go package to import", dir)
	}
	pkg, err := l.check(path.Join(l.module, filepath.ToSlash(dir)), pf.files, true)
	l.pkgs[dir] = pkg
	return pkg, err
}

// checkDir checks a directory's package, then its test builds: the package
// with its in-package tests, and the external test package over that.
func (l *loader) checkDir(dir string) error {
	pf, p := l.dirs[dir], path.Join(l.module, filepath.ToSlash(dir))
	var pkg *types.Package
	if pf.files != nil {
		var err error
		if pkg, err = l.load(dir); err != nil {
			return err
		}
	}
	if pf.tests != nil {
		pkg, _ = l.check(p, slices.Concat(pf.files, pf.tests), false)
	}
	if pf.xtest != nil {
		l.under = map[string]*types.Package{p: pkg}
		l.check(p+"_test", pf.xtest, false)
		l.under = nil
	}
	return nil
}

// check type-checks one package's files and marks what they set. A test
// build is checked leniently: the go tool recompiles the packages between a
// test build and its package against the tests' version, this loader does
// not, so where a test hands its package's values to such a package the
// checker reports a type mismatch. Every expression still has its type
// recorded, and a setter the checker could not resolve can only make the
// gate flag a field, never pass one.
func (l *loader) check(p string, files []*ast.File, strict bool) (*types.Package, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	if !strict {
		conf.Error = func(error) {}
	}
	pkg, err := conf.Check(p, l.fset, files, info)
	if err != nil && strict {
		return nil, err
	}
	for _, f := range files {
		l.setters(f, info)
		l.deepEquals(f, info)
	}
	return pkg, nil
}

// setters marks every field one checked file sets.
func (l *loader) setters(f *ast.File, info *types.Info) {
	mark := func(v types.Object) {
		if v != nil {
			l.set[l.fset.Position(v.Pos()).String()] = true
		}
	}
	field := func(e ast.Expr) types.Object {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				return s.Obj()
			}
		}
		return nil
	}
	defaulting := map[ast.Stmt]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := info.TypeOf(n)
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if t == nil {
				break
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if key, ok := kv.Key.(*ast.Ident); ok {
						mark(info.Uses[key])
					}
				} else if i < st.NumFields() {
					mark(st.Field(i))
				}
			}
		case *ast.IfStmt:
			read := map[string]bool{}
			ast.Inspect(n.Cond, func(c ast.Node) bool {
				if sel, ok := c.(*ast.SelectorExpr); ok {
					read[types.ExprString(sel)] = true
				}
				return true
			})
			for _, st := range n.Body.List {
				if as, ok := st.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && read[types.ExprString(as.Lhs[0])] {
					defaulting[as] = true
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE && !defaulting[n] {
				for _, lhs := range n.Lhs {
					mark(field(lhs))
				}
			}
		case *ast.IncDecStmt:
			mark(field(n.X))
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(field(n.X))
			}
		}
		return true
	})
}

package walstore

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOnlyFSTouchesTheDisk keeps every disk access of the store injectable:
// no non-test file of the package but fs.go uses package os, apart from its
// open flags.
func TestOnlyFSTouchesTheDisk(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		if name == "fs.go" || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		osName := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"os"` {
				osName = "os"
				if imp.Name != nil {
					osName = imp.Name.Name
				}
			}
		}
		if osName == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); ok && x.Name == osName && !strings.HasPrefix(sel.Sel.Name, "O_") {
				t.Errorf("%s: uses os.%s; go through the store's FS", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
}

// faultFS is OS with the faults a test arms. Each hook is optional; a hook
// that returns an error fails that call, which the store must handle as it
// handles a real I/O error.
type faultFS struct {
	FS
	// write sees every Write: it returns the bytes that reach name — p, or
	// a torn or corrupted copy — and the error Write reports.
	write   func(name string, p []byte) ([]byte, error)
	sync    func(name string) error // a file's fsync
	syncDir func(dir string) error
	rename  func(oldname, newname string) error
}

func (f *faultFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return faultFile{file, name, f}, nil
}

func (f *faultFS) SyncDir(dir string) error {
	if f.syncDir != nil {
		if err := f.syncDir(dir); err != nil {
			return err
		}
	}
	return f.FS.SyncDir(dir)
}

func (f *faultFS) Rename(oldname, newname string) error {
	if f.rename != nil {
		if err := f.rename(oldname, newname); err != nil {
			return err
		}
	}
	return f.FS.Rename(oldname, newname)
}

type faultFile struct {
	File
	name string
	fs   *faultFS
}

func (f faultFile) Write(p []byte) (int, error) {
	if f.fs.write == nil {
		return f.File.Write(p)
	}
	q, werr := f.fs.write(f.name, p)
	n, err := f.File.Write(q)
	if err == nil {
		err = werr
	}
	return n, err
}

func (f faultFile) Sync() error {
	if f.fs.sync != nil {
		if err := f.fs.sync(f.name); err != nil {
			return err
		}
	}
	return f.File.Sync()
}

package main

import (
	"fmt"
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"
)

// The DeepEqual gate: no call of reflect.DeepEqual in the module may take an
// argument whose static type holds a dynamo.Value — a Value, Field, Item,
// Key or Update, or any slice, array, map, pointer or struct field of one.
// A Value keeps an aggregate as a pointer to its first element, so DeepEqual
// compares a map's first field, a list's first element and a byte slice's
// first byte and nothing after them; Value.Equal compares the whole value.
//
// The gate covers the root module only. A directory with a go.mod of its own
// is another module and is left out: benchmarks/ is one, and its one such
// call, in TestSeedDecidesTheInputs, is for that module to replace.

// valuePath is the import path of package dynamo under the module's.
const valuePath = "/internal/dynamo"

// deepEquals reports every DeepEqual over values in one checked file, as
// "file:line: message", into found.
func (l *loader) deepEquals(f *ast.File, info *types.Info) {
	name := l.fset.Position(f.Pos()).Filename
	for _, dir := range l.nested {
		if strings.HasPrefix(filepath.ToSlash(name), dir+"/") {
			return
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || !isDeepEqual(call.Fun, info) {
			return true
		}
		for _, arg := range call.Args {
			if t := info.TypeOf(arg); t != nil && l.holdsValue(t, map[types.Type]bool{}) {
				p := l.fset.Position(call.Pos())
				l.found[fmt.Sprintf("%s:%d: reflect.DeepEqual over %s sees only the first element of a map, list or byte slice: compare with dynamo.Value.Equal",
					filepath.ToSlash(p.Filename), p.Line, t)] = true
				break
			}
		}
		return true
	})
}

// isDeepEqual reports whether fun names reflect.DeepEqual.
func isDeepEqual(fun ast.Expr, info *types.Info) bool {
	var id *ast.Ident
	switch e := ast.Unparen(fun).(type) {
	case *ast.SelectorExpr:
		id = e.Sel
	case *ast.Ident:
		id = e
	default:
		return false
	}
	fn, ok := info.Uses[id].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "reflect" && fn.Name() == "DeepEqual"
}

// holdsValue reports whether a value of type t holds a dynamo.Value, behind
// any number of slices, arrays, maps, pointers and struct fields: what
// DeepEqual follows. An interface's dynamic contents are not known here and
// do not count; DeepEqual compares a channel or a func by identity.
func (l *loader) holdsValue(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return false
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if o := t.Obj(); o.Pkg() != nil && o.Pkg().Path() == l.module+valuePath && o.Name() == "Value" {
			return true
		}
		return l.holdsValue(t.Underlying(), seen)
	case *types.Alias:
		return l.holdsValue(types.Unalias(t), seen)
	case *types.Pointer:
		return l.holdsValue(t.Elem(), seen)
	case *types.Slice:
		return l.holdsValue(t.Elem(), seen)
	case *types.Array:
		return l.holdsValue(t.Elem(), seen)
	case *types.Map:
		return l.holdsValue(t.Key(), seen) || l.holdsValue(t.Elem(), seen)
	case *types.Struct:
		for i := range t.NumFields() {
			if l.holdsValue(t.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

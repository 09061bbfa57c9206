package main

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"strings"
)

// The forwarder gate: storage.Backend's typed data calls are implemented
// once, by dynamo.Store, and spelled once over a storage.Doer's one Do, by
// the storage adapter. A layer that handles data-plane traffic implements
// Do and embeds storage.Calls; a hand-written forwarder of the typed set is
// the nine-method plumbing that every cross-cutting change to the seam would
// have to edit again. The gate looks for the two names no other code has a
// reason to declare — a non-test method named GetProj or QueryIndex in the
// root module outside those two homes fails it. (benchmarks/, a module of
// its own, is not covered.)

// forwarderNames are the typed calls the gate looks for.
var forwarderNames = map[string]bool{"GetProj": true, "QueryIndex": true}

// forwarderHomes are where those methods belong: the reference store's
// package and the adapter's file.
var forwarderHomes = []string{"internal/dynamo/", "internal/storage/op.go"}

// forwarders reports every method the gate refuses, as "file:line: message".
func (l *loader) forwarders() []string {
	var found []string
	for _, dir := range l.order {
		for _, f := range l.dirs[dir].files {
			name := filepath.ToSlash(l.fset.Position(f.Pos()).Filename)
			if l.foreign(name) || home(name) {
				continue
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil && forwarderNames[fd.Name.Name] {
					p := l.fset.Position(fd.Pos())
					found = append(found, fmt.Sprintf("%s:%d: method %s forwards a typed data call: implement storage.Doer's Do and embed storage.Calls",
						filepath.ToSlash(p.Filename), p.Line, fd.Name.Name))
				}
			}
		}
	}
	return found
}

// home reports whether the file named name is one of forwarderHomes.
func home(name string) bool {
	for _, h := range forwarderHomes {
		if name == h || strings.HasSuffix(h, "/") && strings.HasPrefix(name, h) {
			return true
		}
	}
	return false
}

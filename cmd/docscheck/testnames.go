package main

import (
	"fmt"
	"go/ast"
	"os"
	"regexp"
	"sort"
	"strings"
)

// The test-name gate: `go test -run` with a pattern that selects no test
// exits 0, so a CI step, or an operations note, that names a test since
// renamed or deleted checks nothing and says nothing about it. Every Test…
// token in a -run pattern of the CI workflow, and every Test… name
// OPERATIONS.md puts in backticks, must prefix the name of some func Test…
// in the repository's Go test files.

// namedTestFiles are the files the gate reads, each with the pattern that
// finds the spans holding test names: a -run pattern's argument, quoted or
// not, and a Markdown code span.
var namedTestFiles = []struct {
	path  string
	spans *regexp.Regexp
}{
	{".github/workflows/ci.yml", regexp.MustCompile(`-run[ =]+(?:'([^']*)'|"([^"]*)"|(\S+))`)},
	{"OPERATIONS.md", regexp.MustCompile("`([^`\n]+)`")},
}

// testToken is a test name, or the start of one, inside a span.
var testToken = regexp.MustCompile(`\bTest[A-Z0-9_]\w*`)

// testNames reports every test name the named files mention that prefixes
// no test function, as "file:line: message".
func (l *loader) testNames() ([]string, error) {
	var funcs []string
	for _, pf := range l.dirs {
		for _, files := range [][]*ast.File{pf.tests, pf.xtest} {
			for _, f := range files {
				funcs = append(funcs, testFuncs(f)...)
			}
		}
	}
	sort.Strings(funcs)
	known := func(token string) bool {
		i := sort.SearchStrings(funcs, token)
		return i < len(funcs) && strings.HasPrefix(funcs[i], token)
	}
	var found []string
	for _, nf := range namedTestFiles {
		data, err := os.ReadFile(nf.path)
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, span := range nf.spans.FindAllStringSubmatch(line, -1) {
				for _, token := range testToken.FindAllString(strings.Join(span[1:], " "), -1) {
					if !known(token) {
						found = append(found, fmt.Sprintf("%s:%d: %s names no test: no func Test… starts with it", nf.path, i+1, token))
					}
				}
			}
		}
	}
	return found, nil
}

// testFuncs lists f's test functions: the top-level funcs named Test….
func testFuncs(f *ast.File) []string {
	var names []string
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Test") {
			names = append(names, fd.Name.Name)
		}
	}
	return names
}

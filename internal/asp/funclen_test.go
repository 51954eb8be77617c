package asp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// maxFuncLines bounds the length of every function in the package, counted
// from its func keyword to its closing brace. A count, not a timing: a
// function that outgrows it is split into named steps.
const maxFuncLines = 120

func TestNoFunctionLongerThanBound(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	funcs := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			funcs++
			from, to := fset.Position(fn.Pos()), fset.Position(fn.End())
			if n := to.Line - from.Line + 1; n > maxFuncLines {
				t.Errorf("%s:%d: %s has %d lines, more than %d", name, from.Line, fn.Name.Name, n, maxFuncLines)
			}
		}
	}
	if funcs == 0 {
		t.Fatal("no function found: the test must run in the package directory")
	}
}

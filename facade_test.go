package fxnet_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"testing"
)

// The façade is what the examples in example_test.go and the README write
// as fxnet.Name, and nothing else: every other caller imports the internal
// package that owns the name. An exported name with no such user is a
// second way in that nobody takes.
func TestFacadeNamesHaveUsers(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "fxnet.go", nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names = append(names, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					names = append(names, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names = append(names, n.Name)
					}
				}
			}
		}
	}

	var users []byte
	for _, name := range []string{"README.md", "example_test.go"} {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		users = append(users, b...)
	}
	used := map[string]bool{}
	for _, m := range regexp.MustCompile(`\bfxnet\.([A-Z]\w*)`).FindAllStringSubmatch(string(users), -1) {
		used[m[1]] = true
	}

	exported := 0
	for _, n := range names {
		if !ast.IsExported(n) {
			continue
		}
		exported++
		if !used[n] {
			t.Errorf("fxnet.%s is written nowhere in example_test.go or README.md; callers import its internal package", n)
		}
	}
	t.Logf("fxnet.go exports %d names", exported)
}

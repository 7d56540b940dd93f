package inlinered

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// srcFile is one parsed non-test Go file of the repository.
type srcFile struct {
	dir     string // slash-separated, relative to the repository root ("." is the root package)
	ast     *ast.File
	imports map[string]string // local import name -> dir of the imported in-module package
}

// parseRepo parses every non-test Go file under the repository root,
// benchmark/ and examples/ included (go/parser only, no type checker).
func parseRepo(t *testing.T) (*token.FileSet, []srcFile) {
	t.Helper()
	fset := token.NewFileSet()
	var files []srcFile
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); n == "testdata" || (n != "." && strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imports := map[string]string{}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			rel, ok := strings.CutPrefix(p, "inlinered")
			if !ok || (rel != "" && rel[0] != '/') {
				continue
			}
			rel = strings.TrimPrefix(rel, "/")
			name := rel[strings.LastIndex(rel, "/")+1:]
			if rel == "" {
				rel, name = ".", "inlinered"
			}
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = rel
		}
		files = append(files, srcFile{filepath.ToSlash(filepath.Dir(path)), f, imports})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// TestNoUnreferencedTypes fails when a top-level type declared in a non-test
// file under internal/ or cmd/ is named by no non-test file anywhere in the
// repository (benchmark/ and examples/ included) other than in its own
// declaration and its methods' receivers: such a type, with every method on
// it, is reachable only from its tests. A function-level scan cannot see
// this: the methods of a type that satisfies an interface look called
// through it. Syntactic on purpose (go/parser, no type checker): same-named
// identifiers can only hide a dead type, never condemn a live one. The root
// package's public aliases are not under internal/ or cmd/, so they are
// exempt — and count as uses.
func TestNoUnreferencedTypes(t *testing.T) {
	type decl struct{ dir, name string }
	var decls []decl
	localUses := map[decl]bool{}      // named in its own package
	selected := map[string][]string{} // type name -> dirs of the packages it was selected from
	_, files := parseRepo(t)
	for _, file := range files {
		f, dir, imports := file.ast, file.dir, file.imports

		skip := map[*ast.Ident]bool{} // declaration names and receiver types
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						ast.Inspect(ts, func(n ast.Node) bool { // the name, and a self-reference
							if id, ok := n.(*ast.Ident); ok && id.Name == ts.Name.Name {
								skip[id] = true
							}
							return true
						})
						if strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/") {
							decls = append(decls, decl{dir, ts.Name.Name})
						}
					}
				}
			case *ast.FuncDecl:
				if d.Recv != nil {
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							skip[id] = true
						}
						return true
					})
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if from, ok := imports[x.Name]; ok {
						selected[n.Sel.Name] = append(selected[n.Sel.Name], from)
					}
				}
			case *ast.Ident:
				if !skip[n] {
					localUses[decl{dir, n.Name}] = true
				}
			}
			return true
		})
	}

	var dead []string
	for _, d := range decls {
		used := localUses[d]
		for _, from := range selected[d.name] {
			used = used || from == d.dir
		}
		if !used {
			dead = append(dead, d.dir+"."+d.name)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Fatalf("types no non-test file refers to (delete them with their methods and tests):\n  %s",
			strings.Join(dead, "\n  "))
	}
}

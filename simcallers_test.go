package inlinered

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// simulatorPackages are the simulated devices whose exported API must be
// read by the program itself: every value they keep is updated on each
// virtual job, transfer or kernel launch, so one that only tests read is
// paid for on the hot path and shown nowhere.
var simulatorPackages = []string{"internal/sim", "internal/cpusim", "internal/gpu", "internal/ssd"}

// simulatorTestOnly are the exported simulator functions and methods that no
// non-test file names, each with why it stays. An entry that some non-test
// file does name fails the test too.
var simulatorTestOnly = map[string]string{}

// TestSimulatorMethodsHaveCallers fails when an exported function, or an
// exported method of an exported type, declared in a simulator package is
// named by no non-test file in the repository (benchmark/ and examples/
// included) outside its own declaration: such a function serves only its
// tests. A method counts as named where it is called (x.M(...)); a use in the
// body of a simulator function that is itself unnamed does not count, so a
// wrapper and the method only it calls are both reported. The check is by
// name and syntactic (go/parser, no type checker): any call of the same name
// counts, so a dead method whose name another function or method also
// carries (Reset, Horizon, Utilization, ...) stays hidden, and a method used
// only as a method value is reported and must be listed in
// simulatorTestOnly with that reason.
func TestSimulatorMethodsHaveCallers(t *testing.T) {
	type decl struct {
		id       string
		name     string
		method   bool
		pos, end token.Pos
	}
	type use struct {
		pos    token.Pos
		called bool // the selector of a call: x.name(...)
	}
	inScope := map[string]bool{}
	for _, dir := range simulatorPackages {
		inScope[dir] = true
	}
	var decls []decl
	uses := map[string][]use{} // identifier name -> where a non-test file names it
	_, files := parseRepo(t)
	for _, file := range files {
		declNames := map[*ast.Ident]bool{}
		for _, d := range file.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declNames[fd.Name] = true
			if !inScope[file.dir] || !fd.Name.IsExported() {
				continue
			}
			id := file.dir + "." + fd.Name.Name
			if fd.Recv != nil {
				recv := receiverType(fd.Recv.List[0].Type)
				if !ast.IsExported(recv) {
					continue
				}
				id = file.dir + "." + recv + "." + fd.Name.Name
			}
			decls = append(decls, decl{id, fd.Name.Name, fd.Recv != nil, fd.Pos(), fd.End()})
		}
		called := map[*ast.Ident]bool{}
		ast.Inspect(file.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					called[sel.Sel] = true
				}
			case *ast.Ident:
				if !declNames[n] {
					uses[n.Name] = append(uses[n.Name], use{n.Pos(), called[n]})
				}
			}
			return true
		})
	}

	// Drop the declarations nothing outside them names until none is left:
	// a use inside a dropped declaration's body does not count.
	dead := make([]bool, len(decls))
	inDead := func(p token.Pos) bool {
		for i, d := range decls {
			if dead[i] && p >= d.pos && p < d.end {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for i, d := range decls {
			if dead[i] {
				continue
			}
			named := false
			for _, u := range uses[d.name] {
				if (u.called || !d.method) && (u.pos < d.pos || u.pos >= d.end) && !inDead(u.pos) {
					named = true
					break
				}
			}
			if !named {
				dead[i], changed = true, true
			}
		}
	}

	var problems []string
	declared := map[string]bool{}
	for i, d := range decls {
		declared[d.id] = true
		_, listed := simulatorTestOnly[d.id]
		switch {
		case dead[i] && !listed:
			problems = append(problems, d.id+" is named by no non-test file")
		case !dead[i] && listed:
			problems = append(problems, d.id+" is listed in simulatorTestOnly but a non-test file names it")
		}
	}
	for id := range simulatorTestOnly {
		if !declared[id] {
			problems = append(problems, id+" is listed in simulatorTestOnly but is no exported simulator function")
		}
	}
	sort.Strings(problems)
	if len(problems) > 0 {
		t.Fatalf("simulator functions only tests call (delete them with the state only they read, or give the reason in simulatorTestOnly):\n  %s",
			strings.Join(problems, "\n  "))
	}
}

// receiverType returns the type name of a method receiver: T, *T, T[P] or
// *T[P].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

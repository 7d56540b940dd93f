package inlinered

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// optionStructs are the configuration surfaces whose fields the audit checks
// are set.
var optionStructs = []string{
	"inlinered.Options", "inlinered.BlockDeviceOptions", "inlinered.StreamSpec",
	"internal/serve.RunOptions", "internal/serve.ReadBatchOptions", "internal/serve.Config",
	"internal/cluster.Config", "internal/core.Config", "internal/volume.Config",
	"internal/lz.Params", "internal/lz.SubBlockParams", "internal/reduce.Encoder",
	"internal/fault.Config", "internal/dedup.IndexConfig",
}

// unused are the declarations the audit finds no non-test use of, each with
// why it stays: an option field tests turn, a value a caller outside the
// package reads, or a test oracle. An entry that has a use fails the audit
// too, so the map holds exactly what the audit reports.
var unused = map[string]string{
	// Option fields only DefaultConfig and tests set.
	"internal/cluster.Config.RangeBlocks":   "placement granularity; tests shrink it so 1,024 blocks span many ranges",
	"internal/cluster.Config.RejoinMinOps":  "outage length; tests shorten it so several crashes fit one small batch",
	"internal/cluster.Config.RejoinMaxOps":  "as RejoinMinOps",
	"internal/core.Config.Batch":            "pipeline batch; the engine tests shrink it so small streams span many batches",
	"internal/core.Config.GPUCompressBatch": "kernel batch; the engine tests sweep it",
	"internal/core.Config.Lookahead":        "run-ahead window; the front-stage tests sweep it",
	"internal/volume.Config.CleanThreshold": "cleaning trigger; the cleaner tests lower it",
	"internal/volume.Config.Index":          "index geometry; tests shrink bins and buffers to force flushes",
	"internal/volume.Config.SSD":            "drive geometry; tests shrink it so the log fills and the FTL collects",
	"internal/volume.Config.BlockSize":      "4 KiB everywhere; the validation tests set a bad one, serve reads it to size payloads",
	"internal/core.Config.Gear":             "only DefaultConfig sets it; benchmark/layers_ingest.go reads it to build its chunker",

	// Test oracles.
	"internal/dedup.BinIndex.Walk":            "the crash tests compare the recovered index with the live one, entry by entry",
	"internal/dedup.Tree.Walk":                "BinIndex.Walk's per-bin half",
	"internal/volume.ReadBatch.Latency":       "TestReadBatchMatchesSerial compares each op's virtual latency with ReadInto's",
	"internal/volume.SharedWrite.Outstanding": "the cluster tests' check that every shared slot drains",

	// The index journal's read side: recovery code no product path runs yet.
	"internal/core.Engine.RecoverIndex":   "replays the engine's journal image; the crash tests drive it",
	"internal/core.Engine.JournalImage":   "the bytes RecoverIndex replays",
	"internal/volume.Volume.RecoverIndex": "replays the volume's journal image; the crash tests drive it",
	"internal/volume.Volume.JournalImage": "the bytes RecoverIndex replays",
	"internal/dedup.RecoverJournal":       "the replay both RecoverIndex methods share",
}

// stdInterfaces are the standard-library interfaces whose methods the
// standard library calls: a method that implements one has a use.
var stdInterfaces = []struct{ pkg, name string }{
	{"", "error"}, {"fmt", "Stringer"}, {"encoding/json", "Marshaler"}, {"encoding/json", "Unmarshaler"},
	{"container/heap", "Interface"}, {"sort", "Interface"},
}

// auditPkg is one type-checked package of the repository, test files left out.
type auditPkg struct {
	dir   string // slash-separated, relative to the repository root ("." is the root package)
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// repo loads and type-checks every package of the repository with the
// standard library alone: go/build selects the files, go/parser parses them,
// go/types checks them. Standard-library imports are checked from source.
type repo struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*auditPkg // by import path
}

// Import resolves an in-module path ("inlinered/..."; benchmark/ is the
// module "inlinered/benchmark" in its own directory) to the repository's
// own checked package, and anything else to the standard library.
func (r *repo) Import(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, "inlinered")
	if !ok || (rel != "" && rel[0] != '/') {
		return r.std.Import(path)
	}
	if p, ok := r.pkgs[path]; ok {
		if p.types == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p.types, nil
	}
	dir := "."
	if rel != "" {
		dir = rel[1:]
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &auditPkg{dir: dir, info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	r.pkgs[path] = p
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(r.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	p.types, err = (&types.Config{Importer: r}).Check(path, r.fset, p.files, p.info)
	return p.types, err
}

// loadRepo checks the root package and every package under it, benchmark/
// included.
func loadRepo(t *testing.T) *repo {
	t.Helper()
	fset := token.NewFileSet()
	r := &repo{fset: fset, std: importer.ForCompiler(fset, "source", nil), pkgs: map[string]*auditPkg{}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if n := d.Name(); n == "testdata" || (n != "." && strings.HasPrefix(n, ".")) {
			return filepath.SkipDir
		}
		path = filepath.ToSlash(path)
		importPath := "inlinered"
		if path != "." {
			importPath += "/" + path
		}
		if _, err := r.Import(importPath); err != nil && !errors.As(err, new(*build.NoGoError)) {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// finding is what the audit reports of one declaration, under one of its
// three rules.
type finding struct {
	rule int
	what string
}

// auditOnce runs callerAudit once for every test that reads its findings.
var (
	auditOnce  sync.Once
	auditFound map[string]finding
)

// auditFindings returns the audit's findings, from a run the first caller
// makes. If that run fails, its test reports why and the later ones fail too.
func auditFindings(t *testing.T) map[string]finding {
	t.Helper()
	auditOnce.Do(func() { auditFound = callerAudit(t) })
	if auditFound == nil {
		t.Fatal("the caller audit did not run; see the first audit test's failure")
	}
	return auditFound
}

// checkRule fails on every finding of rule that unused does not give a
// reason for.
func checkRule(t *testing.T, rule int) {
	t.Helper()
	var problems []string
	for id, f := range auditFindings(t) {
		if _, ok := unused[id]; !ok && f.rule == rule {
			problems = append(problems, id+" "+f.what)
		}
	}
	sort.Strings(problems)
	if len(problems) > 0 {
		t.Fatalf("declarations only tests use (delete them with the state only they read, or give the reason in unused):\n  %s",
			strings.Join(problems, "\n  "))
	}
}

// TestSimulatorMethodsHaveCallers enforces the audit's rule 1: every
// exported function and method has a non-test use.
func TestSimulatorMethodsHaveCallers(t *testing.T) { checkRule(t, 1) }

// TestNoUnreferencedTypes enforces the audit's rule 2: every type is named
// by non-test code.
func TestNoUnreferencedTypes(t *testing.T) { checkRule(t, 2) }

// TestEveryOptionIsSet enforces the audit's rule 3: every option field is
// set by non-test code outside its package.
func TestEveryOptionIsSet(t *testing.T) { checkRule(t, 3) }

// TestUnusedReasonsAreCurrent fails on every entry of unused that the audit
// does not report, so the map holds exactly what the audit finds.
func TestUnusedReasonsAreCurrent(t *testing.T) {
	found := auditFindings(t)
	var stale []string
	for id := range unused {
		if _, ok := found[id]; !ok {
			stale = append(stale, id)
		}
	}
	sort.Strings(stale)
	if len(stale) > 0 {
		t.Fatalf("listed in unused but the audit finds a use, or no such declaration:\n  %s", strings.Join(stale, "\n  "))
	}
}

// callerAudit finds every declaration under internal/, cmd/ and examples/
// that no non-test code uses, with the rule that finds it.
// Uses count from any non-test file of the repository, benchmark/ included,
// and resolve to objects through go/types, so a name another declaration
// shares hides nothing. Three rules:
//
//  1. an exported function or method has a use outside its own body, and a
//     use inside a declaration this audit finds dead does not count. A method
//     also counts as used when the root package aliases its type (public
//     API), or when it implements a used interface method: of an in-module
//     interface, or of one in stdInterfaces;
//  2. a type is named outside its declaration, its methods' receivers and
//     dead declarations;
//  3. an exported field of an optionStructs struct is written by non-test
//     code outside the struct's package: a composite-literal key or an
//     assignment. A write counts only if every option field its value and its
//     enclosing if conditions read is itself set, so a field that only
//     forwards an unset option is unset too. An option with one value in use
//     is a constant.
func callerAudit(t *testing.T) map[string]finding {
	r := loadRepo(t)
	audited := func(p *auditPkg) bool {
		return strings.HasPrefix(p.dir, "internal/") || strings.HasPrefix(p.dir, "cmd/") || strings.HasPrefix(p.dir, "examples/")
	}
	name := func(p *auditPkg, parts ...string) string {
		dir := p.dir
		if dir == "." {
			dir = "inlinered"
		}
		return dir + "." + strings.Join(parts, ".")
	}

	// Declarations: exported functions and methods, top-level types, and
	// the source ranges of both.
	type span struct{ pos, end token.Pos }
	funcs := map[*types.Func]string{}
	funcSpan := map[*types.Func]span{}
	typeNames := map[*types.TypeName]string{}
	ownSpans := map[*types.TypeName][]span{} // a type's declaration and its receivers
	for _, p := range r.pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, _ := p.info.Defs[d.Name].(*types.Func)
					if fn == nil {
						continue
					}
					if d.Recv != nil {
						if tn := recvTypeName(fn); tn != nil {
							ownSpans[tn] = append(ownSpans[tn], span{d.Recv.Pos(), d.Recv.End()})
						}
					}
					if !audited(p) || !d.Name.IsExported() {
						continue
					}
					funcSpan[fn] = span{d.Pos(), d.End()}
					if tn := recvTypeName(fn); tn != nil {
						funcs[fn] = name(p, tn.Name(), fn.Name())
					} else {
						funcs[fn] = name(p, fn.Name())
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok {
							tn := p.info.Defs[ts.Name].(*types.TypeName)
							ownSpans[tn] = append(ownSpans[tn], span{ts.Pos(), ts.End()})
							if audited(p) {
								typeNames[tn] = name(p, tn.Name())
							}
						}
					}
				}
			}
		}
	}

	// Uses, each resolved to its object's origin.
	uses := map[types.Object][]token.Pos{}
	for _, p := range r.pkgs {
		for id, obj := range p.info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
			}
			uses[obj] = append(uses[obj], id.Pos())
		}
	}

	// Methods used without a call in this module: those of the types the
	// root package aliases (public API), and those that implement a method
	// of stdInterfaces.
	api := map[*types.Func]bool{}
	root := r.pkgs["inlinered"].types.Scope()
	for _, n := range root.Names() {
		if tn, ok := root.Lookup(n).(*types.TypeName); ok && tn.Exported() && tn.IsAlias() {
			typ := types.Unalias(tn.Type())
			if ptr, ok := typ.(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			ms := types.NewMethodSet(types.NewPointer(typ))
			for i := range ms.Len() {
				api[ms.At(i).Obj().(*types.Func).Origin()] = true
			}
		}
	}
	// ifaceOf maps an interface method to its interface: every one some
	// code uses, and every one of stdInterfaces, which the standard library
	// calls.
	ifaceOf := map[*types.Func]*types.Interface{}
	for obj := range uses {
		if im, ok := obj.(*types.Func); ok {
			if recv := im.Type().(*types.Signature).Recv(); recv != nil {
				if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
					ifaceOf[im] = iface
				}
			}
		}
	}
	byStd := map[*types.Func]bool{}
	for _, si := range stdInterfaces {
		scope := types.Universe
		if si.pkg != "" {
			pkg, err := r.std.Import(si.pkg)
			if err != nil {
				t.Fatal(err)
			}
			scope = pkg.Scope()
		}
		iface := scope.Lookup(si.name).Type().Underlying().(*types.Interface)
		for i := range iface.NumMethods() {
			ifaceOf[iface.Method(i)], byStd[iface.Method(i)] = iface, true
		}
	}
	// concrete holds *T for every non-interface type T declared at top
	// level, a generic one as each instantiation some expression has.
	concrete := map[string]*types.Pointer{}
	inModule := map[*types.Package]bool{}
	for _, p := range r.pkgs {
		inModule[p.types] = true
	}
	for _, p := range r.pkgs {
		for _, n := range p.types.Scope().Names() {
			tn, ok := p.types.Scope().Lookup(n).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() == 0 {
				concrete[tn.Type().String()] = types.NewPointer(tn.Type())
			}
		}
		for _, tv := range p.info.Types {
			typ := tv.Type
			if ptr, ok := typ.(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			named, ok := typ.(*types.Named)
			if !ok || named.TypeArgs().Len() == 0 || types.IsInterface(named) || !inModule[named.Obj().Pkg()] {
				continue
			}
			generic := false
			for i := range named.TypeArgs().Len() {
				_, param := named.TypeArgs().At(i).(*types.TypeParam)
				generic = generic || param
			}
			if !generic {
				concrete[named.String()] = types.NewPointer(named)
			}
		}
	}
	// implements maps a concrete method to the used interface methods it
	// implements.
	implements := map[*types.Func][]*types.Func{}
	for im, iface := range ifaceOf {
		for _, ptr := range concrete {
			if !types.Implements(ptr, iface) { // *T's method set holds T's
				continue
			}
			m := types.NewMethodSet(ptr).Lookup(im.Pkg(), im.Name()).Obj().(*types.Func).Origin()
			if byStd[im] {
				api[m] = true
			} else {
				implements[m] = append(implements[m], im)
			}
		}
	}

	// Rule 1: drop the functions nothing outside them uses until none is
	// left, so a use inside a dropped function does not count.
	dead := map[*types.Func]bool{}
	inDead := func(pos token.Pos) bool {
		for fn := range dead {
			if s := funcSpan[fn]; pos >= s.pos && pos < s.end {
				return true
			}
		}
		return false
	}
	usedOutside := func(obj types.Object, own span) bool {
		for _, pos := range uses[obj] {
			if (pos < own.pos || pos >= own.end) && !inDead(pos) {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for fn := range funcs {
			if dead[fn] || api[fn] || usedOutside(fn, funcSpan[fn]) {
				continue
			}
			live := false
			for _, im := range implements[fn] {
				live = live || usedOutside(im, span{})
			}
			if !live {
				dead[fn], changed = true, true
			}
		}
	}
	found := map[string]finding{}
	for fn := range dead {
		found[funcs[fn]] = finding{1, "has no non-test use"}
	}

	// Rule 2.
	for tn, id := range typeNames {
		used := false
		for _, pos := range uses[tn] {
			own := inDead(pos)
			for _, s := range ownSpans[tn] {
				own = own || (pos >= s.pos && pos < s.end)
			}
			used = used || !own
		}
		if !used {
			found[id] = finding{2, "is a type no non-test code names"}
		}
	}

	// Rule 3: writes of option fields made outside their package, each with
	// the option fields it depends on.
	fieldNames := map[*types.Var]string{}
	var fieldOrder []*types.Var
	for _, id := range optionStructs {
		dir, typ, _ := strings.Cut(id, ".")
		path := "inlinered"
		if dir != "inlinered" {
			path += "/" + dir
		}
		p := r.pkgs[path]
		tn, _ := p.types.Scope().Lookup(typ).(*types.TypeName)
		if tn == nil {
			t.Fatalf("%s is not a type any more: update optionStructs", id)
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			t.Fatalf("%s is not a struct any more: update optionStructs", id)
		}
		for i := range st.NumFields() {
			if f := st.Field(i); f.Exported() {
				fieldNames[f] = id + "." + f.Name()
				fieldOrder = append(fieldOrder, f)
			}
		}
	}
	type write struct {
		at   token.Pos
		deps []*types.Var
	}
	writes := map[*types.Var][]write{}
	for _, p := range r.pkgs {
		field := func(e ast.Expr) *types.Var {
			if sel, ok := e.(*ast.SelectorExpr); ok {
				if s := p.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					if v := s.Obj().(*types.Var); fieldNames[v] != "" {
						return v
					}
				}
			}
			return nil
		}
		reads := func(n ast.Node) (deps []*types.Var) {
			ast.Inspect(n, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok {
					if v := field(e); v != nil {
						deps = append(deps, v)
					}
				}
				return true
			})
			return deps
		}
		for _, f := range p.files {
			var stack []ast.Node
			record := func(v *types.Var, value ast.Node) {
				if v == nil || v.Pkg() == p.types || inDead(value.Pos()) {
					return
				}
				deps := reads(value)
				for _, n := range stack {
					if is, ok := n.(*ast.IfStmt); ok {
						deps = append(deps, reads(is.Cond)...)
					}
				}
				writes[v] = append(writes[v], write{value.Pos(), deps})
			}
			// assigned records every field along the selector chain e, an
			// assignment's left side: setting x.A.B sets B, and A with it.
			var assigned func(e ast.Expr, value ast.Node)
			assigned = func(e ast.Expr, value ast.Node) {
				switch x := e.(type) {
				case *ast.ParenExpr:
					assigned(x.X, value)
				case *ast.StarExpr:
					assigned(x.X, value)
				case *ast.IndexExpr:
					assigned(x.X, value)
				case *ast.SelectorExpr:
					record(field(x), value)
					assigned(x.X, value)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				switch x := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range x.Lhs {
						assigned(lhs, x.Rhs[min(i, len(x.Rhs)-1)])
					}
				case *ast.IncDecStmt:
					assigned(x.X, x)
				case *ast.CompositeLit:
					typ := p.info.Types[x].Type
					if ptr, ok := typ.Underlying().(*types.Pointer); ok {
						typ = ptr.Elem()
					}
					st, ok := typ.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, el := range x.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							v, _ := p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
							record(v, kv.Value)
						} else if fieldNames[st.Field(i)] != "" {
							record(st.Field(i), el)
						}
					}
				}
				return true
			})
		}
	}
	// A field is set once one of its writes depends only on set fields.
	set := map[*types.Var]bool{}
	for changed := true; changed; {
		changed = false
		for v, ws := range writes {
			for _, w := range ws {
				live := !set[v]
				for _, dep := range w.deps {
					live = live && set[dep]
				}
				if live {
					set[v], changed = true, true
					break
				}
			}
		}
	}
	for _, v := range fieldOrder {
		switch {
		case set[v]:
		case len(writes[v]) == 0:
			found[fieldNames[v]] = finding{3, "is an option no non-test code outside its package sets"}
		default:
			found[fieldNames[v]] = finding{3, fmt.Sprintf("is set only from options nobody sets (%v)", r.fset.Position(writes[v][0].at))}
		}
	}

	return found
}

// recvTypeName returns the named type of a method's receiver, or nil for a
// function.
func recvTypeName(fn *types.Func) *types.TypeName {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	typ := recv.Type()
	if ptr, ok := typ.(*types.Pointer); ok {
		typ = ptr.Elem()
	}
	if named, ok := typ.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

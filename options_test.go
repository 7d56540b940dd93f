package inlinered

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
	"testing"
)

// typeID names a top-level type by its package directory and name; fieldID
// one of its fields.
type typeID struct{ dir, name string }

type fieldID struct {
	typeID
	field string
}

func (f fieldID) String() string {
	return strings.Replace(f.dir, ".", "inlinered", 1) + "." + f.name + "." + f.field
}

// optionStructs are the configuration surfaces TestEveryOptionIsSet audits.
var optionStructs = []typeID{
	{".", "Options"}, {".", "BlockDeviceOptions"}, {".", "StreamSpec"},
	{"internal/serve", "RunOptions"}, {"internal/serve", "ReadBatchOptions"}, {"internal/serve", "Config"},
	{"internal/cluster", "Config"}, {"internal/core", "Config"}, {"internal/volume", "Config"},
	{"internal/lz", "Params"}, {"internal/lz", "SubBlockParams"}, {"internal/reduce", "Encoder"},
	{"internal/fault", "Config"}, {"internal/dedup", "IndexConfig"},
}

// testSeams are the option fields no caller sets, each with why it is still
// a field: a seam tests turn, or a value a caller outside the package reads.
// An entry that some caller does set fails the test too.
var testSeams = map[string]string{
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
}

// TestEveryOptionIsSet fails when an exported field of an options or config
// struct is set by no non-test file outside the struct's own package
// (benchmark/ and examples/ included): an option with one value in use is a
// constant. A write counts when it is a key of a composite literal of the
// struct or an assignment through a variable, parameter or field of that
// type — and only if every option field its value or its guarding if
// conditions read is itself set, so a field that only forwards an unset
// option is unset too. Syntactic on purpose (go/parser, no type checker): an
// expression whose type it cannot tell hides a write, which can only condemn
// a field into testSeams, where the reason is then written down.
func TestEveryOptionIsSet(t *testing.T) {
	fset, files := parseRepo(t)

	// Declarations: struct fields with their types, aliases, and the first
	// result of every function and method.
	fields := map[typeID]map[string]typeID{}
	order := map[typeID][]string{}
	aliases := map[typeID]typeID{}
	results := map[fieldID]typeID{} // {receiver type or {dir, ""}, func name} -> first result
	resolve := func(file srcFile, e ast.Expr) typeID {
		for {
			switch x := e.(type) {
			case *ast.StarExpr:
				e = x.X
				continue
			case *ast.Ident:
				return typeID{file.dir, x.Name}
			case *ast.SelectorExpr:
				if pkg, ok := x.X.(*ast.Ident); ok {
					if dir, ok := file.imports[pkg.Name]; ok {
						return typeID{dir, x.Sel.Name}
					}
				}
			}
			return typeID{}
		}
	}
	for _, file := range files {
		for _, d := range file.ast.Decls {
			switch d := d.(type) {
			case *ast.GenDecl:
				for _, s := range d.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok {
						continue
					}
					id := typeID{file.dir, ts.Name.Name}
					if ts.Assign.IsValid() {
						aliases[id] = resolve(file, ts.Type)
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					fields[id] = map[string]typeID{}
					for _, f := range st.Fields.List {
						ft := resolve(file, f.Type)
						names := f.Names
						if len(names) == 0 { // embedded
							names = []*ast.Ident{{Name: ft.name}}
						}
						for _, n := range names {
							fields[id][n.Name] = ft
							order[id] = append(order[id], n.Name)
						}
					}
				}
			case *ast.FuncDecl:
				if d.Type.Results == nil || len(d.Type.Results.List) == 0 {
					continue
				}
				key := fieldID{typeID{file.dir, ""}, d.Name.Name}
				if d.Recv != nil {
					key.typeID = resolve(file, d.Recv.List[0].Type)
				}
				results[key] = resolve(file, d.Type.Results.List[0].Type)
			}
		}
	}
	canon := func(id typeID) typeID {
		for to, ok := aliases[id]; ok; to, ok = aliases[id] {
			id = to
		}
		return id
	}
	audited := map[typeID]bool{}
	for _, id := range optionStructs {
		if fields[id] == nil {
			t.Fatalf("%s.%s is not a struct any more: update optionStructs", id.dir, id.name)
		}
		audited[id] = true
	}

	// Writes of audited fields made outside their package, each with the
	// audited fields it depends on.
	type write struct {
		at   token.Position
		deps []fieldID
	}
	writes := map[fieldID][]write{}
	for _, file := range files {
		for _, d := range file.ast.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			vars := map[string]typeID{} // flat: one scope per top-level function
			declare := func(fl *ast.FieldList) {
				if fl == nil {
					return
				}
				for _, f := range fl.List {
					for _, n := range f.Names {
						vars[n.Name] = canon(resolve(file, f.Type))
					}
				}
			}
			declare(fn.Recv)
			declare(fn.Type.Params)
			declare(fn.Type.Results)

			var typeOf func(e ast.Expr) typeID
			typeOf = func(e ast.Expr) typeID {
				switch x := e.(type) {
				case *ast.ParenExpr:
					return typeOf(x.X)
				case *ast.StarExpr:
					return typeOf(x.X)
				case *ast.UnaryExpr:
					return typeOf(x.X)
				case *ast.CompositeLit:
					return canon(resolve(file, x.Type))
				case *ast.Ident:
					return vars[x.Name]
				case *ast.SelectorExpr:
					return canon(fields[typeOf(x.X)][x.Sel.Name])
				case *ast.CallExpr:
					switch f := x.Fun.(type) {
					case *ast.Ident:
						return canon(results[fieldID{typeID{file.dir, ""}, f.Name}])
					case *ast.SelectorExpr:
						if pkg, ok := f.X.(*ast.Ident); ok && vars[pkg.Name] == (typeID{}) {
							return canon(results[fieldID{typeID{file.imports[pkg.Name], ""}, f.Sel.Name}])
						}
						return canon(results[fieldID{typeOf(f.X), f.Sel.Name}])
					}
				}
				return typeID{}
			}
			// reads lists the audited fields an expression reads.
			reads := func(e ast.Node) (deps []fieldID) {
				if e == nil {
					return nil
				}
				ast.Inspect(e, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						on := typeOf(sel.X)
						if _, field := fields[on][sel.Sel.Name]; field && audited[on] {
							deps = append(deps, fieldID{on, sel.Sel.Name})
						}
					}
					return true
				})
				return deps
			}
			var stack []ast.Node
			record := func(on typeID, field string, value ast.Node) {
				if !audited[on] || on.dir == file.dir {
					return
				}
				deps := reads(value)
				for _, n := range stack {
					if is, ok := n.(*ast.IfStmt); ok {
						deps = append(deps, reads(is.Cond)...)
					}
				}
				id := fieldID{on, field}
				writes[id] = append(writes[id], write{fset.Position(value.Pos()), deps})
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
					record(typeOf(x.X), x.Sel.Name, value)
					assigned(x.X, value)
				}
			}
			var literal func(lit *ast.CompositeLit, as typeID)
			literal = func(lit *ast.CompositeLit, as typeID) {
				if lit.Type != nil {
					as = canon(resolve(file, lit.Type))
				}
				var elem typeID // element type of a slice, array or map literal
				switch lt := lit.Type.(type) {
				case *ast.ArrayType:
					elem = canon(resolve(file, lt.Elt))
				case *ast.MapType:
					elem = canon(resolve(file, lt.Value))
				}
				for i, el := range lit.Elts {
					value := el
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						value = kv.Value
						if key, ok := kv.Key.(*ast.Ident); ok && fields[as] != nil {
							record(as, key.Name, kv.Value)
						}
					} else if names := order[as]; i < len(names) {
						record(as, names[i], el)
					}
					if inner, ok := value.(*ast.CompositeLit); ok && inner.Type == nil {
						literal(inner, elem)
					}
				}
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				switch x := n.(type) {
				case *ast.FuncLit:
					declare(x.Type.Params)
				case *ast.DeclStmt:
					if gd, ok := x.Decl.(*ast.GenDecl); ok {
						for _, s := range gd.Specs {
							if vs, ok := s.(*ast.ValueSpec); ok && vs.Type != nil {
								for _, n := range vs.Names {
									vars[n.Name] = canon(resolve(file, vs.Type))
								}
							}
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range x.Lhs {
						rhs := x.Rhs[min(i, len(x.Rhs)-1)]
						if id, ok := lhs.(*ast.Ident); ok && i < len(x.Rhs) {
							if tid := typeOf(rhs); tid != (typeID{}) {
								vars[id.Name] = tid
							}
						}
						assigned(lhs, rhs)
					}
				case *ast.IncDecStmt:
					assigned(x.X, x)
				case *ast.CompositeLit:
					if x.Type != nil {
						literal(x, typeID{})
					}
				}
				return true
			})
		}
	}

	// A field is set once one of its writes depends only on set fields.
	set := map[fieldID]bool{}
	for changed := true; changed; {
		changed = false
		for id, ws := range writes {
			for _, w := range ws {
				live := !set[id]
				for _, dep := range w.deps {
					live = live && set[dep]
				}
				if live {
					set[id], changed = true, true
					break
				}
			}
		}
	}
	var problems []string
	seams := map[string]bool{}
	for _, on := range optionStructs {
		for _, name := range order[on] {
			id := fieldID{on, name}
			_, seam := testSeams[id.String()]
			seams[id.String()] = true
			switch {
			case !ast.IsExported(name) || set[id] != seam:
			case seam:
				problems = append(problems, id.String()+" is listed in testSeams but a caller sets it")
			case len(writes[id]) == 0:
				problems = append(problems, id.String()+" is set by no non-test file outside its package")
			default:
				problems = append(problems, fmt.Sprintf("%s is set only from options nobody sets (%v)", id, writes[id][0].at))
			}
		}
	}
	for name := range testSeams {
		if !seams[name] {
			problems = append(problems, name+" is listed in testSeams but is no field of an audited struct")
		}
	}
	sort.Strings(problems)
	if len(problems) > 0 {
		t.Fatalf("options with one value in use (make each a constant, or give its reason in testSeams):\n  %s",
			strings.Join(problems, "\n  "))
	}
}

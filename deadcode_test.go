package repro

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// deadAllowed lists the declarations that no non-test code of this module
// reads but that stay, each with who does. A key may end in a brace group,
// "pkg.T.{A,B}", for names that share their reason. A reason that starts
// with "benchmark/" names a caller in the benchmark module, which the
// checker also reads; every other entry is used by tests only. The list
// only shrinks: TestNoDeadCode fails when a name here gains a reader in
// the module, loses its benchmark/ reader, or no longer exists.
var deadAllowed = map[string]string{
	"internal/core.DB.{CreateHashIndex,Table}":           "benchmark/ builds its hash index and reads served tables through them",
	"internal/exec/result.EqualUnordered":                "benchmark/ checks served results against a reference with it",
	"internal/persist.Manager.LogInsert":                 "benchmark/ times its insert trace's WAL append with it",
	"internal/plan.UnmarshalNode":                        "benchmark/ decodes the plans its trace replays with it",
	"internal/service.DB.{AddWorkload,SetLogger,Unwrap}": "benchmark/ sets up the served database through them",
	"internal/service.Stats.{Checkpoints,Epoch,PlanCacheHits,PlanCacheMiss,PlanEvictions,Queued,Rejected}": "benchmark/ reads these DB.Stats fields",

	"internal/layout.Exhaustive":                                 "exhaustive layout search is the oracle the layout and plan tests hold BPi to",
	"internal/mem.Hierarchy.{Reset,Stats}":                       "the mem and pattern tests reset the simulator and read its per-level counters",
	"internal/mem.Stats.{Accesses,Evictions,Hits,PrefetchFills}": "simulator counters the mem and pattern tests assert",
	"internal/workload.Query.Name":                               "the capture tests identify captured shapes by it",
	"internal/faultinject.Rule.Hits":                             "the repl fault tests count a wire rule's hits with it",
	"internal/faultinject.{Enable,Transport,Transport.Add}":      "the service fault tests arm failpoints with Enable; the repl fault tests wrap a replica's HTTP transport with Transport",
}

// allowedNames expands deadAllowed's brace groups.
func allowedNames() map[string]string {
	out := map[string]string{}
	for key, reason := range deadAllowed {
		prefix, group, ok := strings.Cut(key, "{")
		if !ok {
			out[key] = reason
			continue
		}
		for _, name := range strings.Split(strings.TrimSuffix(group, "}"), ",") {
			out[prefix+name] = reason
		}
	}
	return out
}

// TestNoDeadCode type-checks every non-test package of the module plus the
// benchmark/ module's sources, using only the standard library, and fails
// when a package-level func, method, type, var or const, or a field of a
// package-level struct type, is read nowhere outside its own declaration
// and is not in deadAllowed. Run it alone with
//
//	go test -run '^TestNoDeadCode$' .
//
// What counts as a read:
//   - Storing into a field or variable (assignment, ++, a struct literal's
//     key) does not; a map key or == reads every field of its struct, and
//     encoding/json reads every json-tagged field.
//   - A method is read when its receiver type satisfies an interface that
//     declares it, whether that interface is in the module or in a
//     standard-library package the module imports. Interfaces declared
//     inside standard-library function bodies, such as the errors
//     package's Unwrap, Is and As, are not seen.
//   - Embedded fields are not checked.
func TestNoDeadCode(t *testing.T) {
	c := newDeadChecker(".", "repro")
	if err := c.loadModule(); err != nil {
		t.Fatal(err)
	}
	found := c.dead()

	var names []string
	for name := range found {
		names = append(names, name)
	}
	sort.Strings(names)
	allowed := allowedNames()
	for _, name := range names {
		reason, ok := allowed[name]
		switch {
		case !ok && found[name]:
			t.Errorf("%s: only benchmark/ refers to it; delete it from there first, or allowlist it with a benchmark/ reason", name)
		case !ok:
			t.Errorf("%s: nothing outside tests refers to it; delete it", name)
		case found[name] != strings.HasPrefix(reason, "benchmark/"):
			t.Errorf("%s: allowlist reason %q names the wrong caller (benchmark/ refers to it: %v)", name, reason, found[name])
		}
	}
	for name := range allowed {
		if _, ok := found[name]; !ok {
			t.Errorf("%s: allowlisted, but it is used or gone; drop it from deadAllowed", name)
		}
	}
}

type deadChecker struct {
	root, module string
	fset         *token.FileSet
	std          types.ImporterFrom
	pkgs         map[string]*checkedPkg // module packages by import path
	order        []*checkedPkg
	bench        *checkedPkg
}

type checkedPkg struct {
	rel   string // directory relative to the module root
	types *types.Package
	info  *types.Info
	files []*ast.File
}

func newDeadChecker(root, module string) *deadChecker {
	fset := token.NewFileSet()
	return &deadChecker{
		root:   root,
		module: module,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs:   map[string]*checkedPkg{},
	}
}

func (c *deadChecker) Import(path string) (*types.Package, error) {
	return c.ImportFrom(path, c.root, 0)
}

// ImportFrom checks module packages itself, so that every reference to a
// module declaration resolves to the one object the checker counts, and
// leaves the standard library to the source importer.
func (c *deadChecker) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if rel, ok := strings.CutPrefix(path, c.module+"/"); ok {
		p, err := c.check(rel, false)
		if err != nil {
			return nil, err
		}
		return p.types, nil
	}
	return c.std.ImportFrom(path, dir, mode)
}

// loadModule checks every package directory under the root, except the
// benchmark module, which it checks last, test files included.
func (c *deadChecker) loadModule() error {
	var dirs []string
	err := filepath.WalkDir(c.root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != c.root && (strings.HasPrefix(name, ".") || name == "testdata" || name == "benchmark") {
			return filepath.SkipDir
		}
		dirs = append(dirs, filepath.ToSlash(path))
		return nil
	})
	if err != nil {
		return err
	}
	for _, dir := range dirs {
		if _, err := c.check(dir, false); err != nil {
			return err
		}
	}
	c.bench, err = c.check("benchmark", true)
	return err
}

func (c *deadChecker) check(rel string, tests bool) (*checkedPkg, error) {
	path := c.module + "/" + rel
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(c.root, rel)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	p := &checkedPkg{rel: rel, info: &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || (!tests && strings.HasSuffix(name, "_test.go")) {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	if len(p.files) == 0 {
		return p, nil
	}
	conf := types.Config{Importer: c}
	if p.types, err = conf.Check(path, c.fset, p.files, p.info); err != nil {
		return nil, err
	}
	c.pkgs[path] = p
	if rel != "benchmark" {
		c.order = append(c.order, p)
	}
	return p, nil
}

// dead returns every declaration the module's non-test code does not
// refer to, mapped to whether the benchmark module does.
func (c *deadChecker) dead() map[string]bool {
	decls := map[types.Object]string{}
	for _, p := range c.order {
		for _, f := range p.files {
			for _, d := range f.Decls {
				c.declare(p, d, decls)
			}
		}
	}
	used := map[types.Object]bool{}
	for _, p := range c.order {
		c.markUses(p, used, true)
	}
	benchUsed := map[types.Object]bool{}
	c.markUses(c.bench, benchUsed, false)
	c.markInterfaceMethods(decls, used)

	out := map[string]bool{}
	for obj, name := range decls {
		if !used[obj] {
			out[name] = benchUsed[obj]
		}
	}
	return out
}

// declare records the package-level declarations in d under their
// qualified names: "dir.Name", "dir.Type.Method" and "dir.Type.field".
func (c *deadChecker) declare(p *checkedPkg, d ast.Decl, decls map[types.Object]string) {
	qual := p.rel + "."
	switch d := d.(type) {
	case *ast.FuncDecl:
		obj := p.info.Defs[d.Name]
		if d.Recv == nil {
			if d.Name.Name == "init" || (d.Name.Name == "main" && p.types.Name() == "main") {
				return
			}
			decls[obj] = qual + d.Name.Name
			return
		}
		if recv := receiverType(obj); recv != nil {
			decls[obj] = qual + recv.Obj().Name() + "." + d.Name.Name
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				obj := p.info.Defs[s.Name]
				decls[obj] = qual + s.Name.Name
				st, ok := obj.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				for i := range st.NumFields() {
					fld := st.Field(i)
					if fld.Embedded() || fld.Name() == "_" || jsonTagged(st.Tag(i)) {
						continue
					}
					decls[fld] = qual + s.Name.Name + "." + fld.Name()
				}
			case *ast.ValueSpec:
				for _, id := range s.Names {
					if id.Name != "_" {
						decls[p.info.Defs[id]] = qual + id.Name
					}
				}
			}
		}
	}
}

// jsonTagged reports a field that encoding/json reads by reflection.
func jsonTagged(tag string) bool {
	name := reflect.StructTag(tag).Get("json")
	return name != "" && name != "-"
}

func receiverType(obj types.Object) *types.Named {
	sig := obj.Type().(*types.Signature)
	if sig.Recv() == nil {
		return nil
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, _ := recv.(*types.Named)
	return named
}

// markUses marks every object p refers to. With skipSelf it ignores a
// reference from inside the referenced declaration, and a reference to a
// type from inside one of that type's own methods, so recursion and
// receivers do not keep a declaration alive.
func (c *deadChecker) markUses(p *checkedPkg, used map[types.Object]bool, skipSelf bool) {
	byFile := map[*token.File]*ast.File{}
	for _, f := range p.files {
		byFile[c.fset.File(f.Pos())] = f
	}
	// Map keys and == compare every field of a struct.
	for expr, tv := range p.info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			markFields(m.Key(), used)
		}
		if b, ok := expr.(*ast.BinaryExpr); ok && (b.Op == token.EQL || b.Op == token.NEQ) {
			markFields(p.info.TypeOf(b.X), used)
		}
	}
	writes := writtenIdents(p)
	for id, obj := range p.info.Uses {
		if _, isVar := obj.(*types.Var); isVar && writes[id] {
			continue
		}
		if skipSelf && ownsUse(p, byFile[c.fset.File(id.Pos())], id.Pos(), obj) {
			continue
		}
		used[obj] = true
	}
}

func markFields(t types.Type, used map[types.Object]bool) {
	switch t := t.Underlying().(type) {
	case *types.Struct:
		for i := range t.NumFields() {
			used[t.Field(i)] = true
			markFields(t.Field(i).Type(), used)
		}
	case *types.Array:
		markFields(t.Elem(), used)
	}
}

// writtenIdents returns the references in p that only store: the field
// or variable on the left of an assignment or ++/--, and the field keys of
// struct literals. A stored value nothing reads keeps nothing alive.
func writtenIdents(p *checkedPkg) map[*ast.Ident]bool {
	w := map[*ast.Ident]bool{}
	mark := func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.Ident:
			w[e] = true
		case *ast.SelectorExpr:
			w[e.Sel] = true
		}
	}
	for _, f := range p.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					mark(l)
				}
			case *ast.IncDecStmt:
				mark(n.X)
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					if v, ok := p.info.Uses[id].(*types.Var); ok && v.IsField() {
						w[id] = true
					}
				}
			}
			return true
		})
	}
	return w
}

// ownsUse reports whether the reference to obj at pos sits inside obj's
// own declaration, or inside a method declared on obj.
func ownsUse(p *checkedPkg, f *ast.File, pos token.Pos, obj types.Object) bool {
	i := sort.Search(len(f.Decls), func(i int) bool { return f.Decls[i].End() > pos })
	if i == len(f.Decls) || f.Decls[i].Pos() > pos {
		return false
	}
	switch d := f.Decls[i].(type) {
	case *ast.FuncDecl:
		fn := p.info.Defs[d.Name]
		if fn == obj {
			return true
		}
		if d.Recv != nil {
			if recv := receiverType(fn); recv != nil && recv.Obj() == obj {
				return true
			}
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			if spec.Pos() > pos || spec.End() <= pos {
				continue
			}
			switch s := spec.(type) {
			case *ast.TypeSpec:
				return p.info.Defs[s.Name] == obj
			case *ast.ValueSpec:
				for _, id := range s.Names {
					if p.info.Defs[id] == obj {
						return true
					}
				}
			}
		}
	}
	return false
}

// markInterfaceMethods marks each declared method whose receiver type, or
// a pointer to it, implements an interface that has a method of that name.
func (c *deadChecker) markInterfaceMethods(decls map[types.Object]string, used map[types.Object]bool) {
	byName := map[string][]*types.Interface{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || !iface.IsMethodSet() {
			return
		}
		for i := range iface.NumMethods() {
			name := iface.Method(i).Name()
			byName[name] = append(byName[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				add(tn.Type())
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range c.order {
		walk(p.types)
		for _, tv := range p.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}

	for obj := range decls {
		fn, ok := obj.(*types.Func)
		if !ok || used[fn] {
			continue
		}
		recv := receiverType(fn)
		if recv == nil {
			continue
		}
		for _, iface := range byName[fn.Name()] {
			if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
				used[fn] = true
				break
			}
		}
	}
}

package corep_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// censusStays lists the exported objects declared under internal/ that
// no non-test Go outside benchmark/ reads, each with the reason it stays
// (EXPERIMENTS.md, census rounds 4 and 5). An object leaves this list
// when its reason does.
var censusStays = map[string]string{
	// Read by tests in other packages.
	"btree.Tree.Len":                 "workload's tests count a built relation's entries",
	"buffer.Pool.Resident":           "engine's cold-pool check and workload's frame-filling twin",
	"catalog.Catalog.Drop":           "pql's shape-memo test and the root package's lent-state test create a relation again under its name",
	"catalog.Catalog.MustGet":        "pql's and workload's tests",
	"engine.Reclust.Encodes":         "the root package's test that an unchanged placement map is not re-encoded",
	"reclust.Tracker.Cap":            "engine's test that InitReclust sizes the heat table",
	"strategy.AllKindsWithAblations": "harness's root-span test covers DFSCACHEINSIDE too",
	"testutil.AssertNoLeaks":         "the pin-leak check of every package's tests",
	"testutil.ScribbleFrames":        "the view-lifetime checks of the root package's, pql's and strategy's tests",
	"tuple.Value.Compare":            "the order of pql's reference evaluator",
	"tuple.Value.Equal":              "object's nested-codec round trip",
	// A test-only check by design.
	"btree.Tree.CheckInvariants": "the structural check of btree's tests",
	// Read by benchmark/, which this census leaves alone; they go with
	// ROADMAP item 7 (a).
	"btree.Tree.GetBatch":     "benchmark/probes.go: an adapter over GetBatchIn",
	"buffer.Pool.GetBatch":    "benchmark/probes.go",
	"cache.Cache.Clear":       "benchmark/probes.go",
	"cache.Cache.Insert":      "benchmark/probes.go",
	"engine.Core.Close":       "benchmark/engine.go and benchmark/probes.go; a no-op",
	"isam.Index.ProbeBatch":   "benchmark/probes.go",
	"planner.Config.Seed":     "benchmark/probes.go; the planner ignores it",
	"planner.Planner.Observe": "benchmark/probes.go",
	"pql.Execute":             "benchmark/probes.go: an adapter over Store.Execute",
	"query.Int64Temp.Append":  "benchmark/probes.go's per-value temporary",
	"query.Int64Temp.Iter":    "benchmark/probes.go: a fresh reader, its buffer its own",
	"query.NewInt64Temp":      "benchmark/probes.go's query layer; a retrieve takes its temporaries from its query.Arena",
	"query.SortTemp":          "benchmark/probes.go: a fresh Arena per sort",
	"reclust.Tracker.Touch":   "benchmark/probes.go",
	"workload.DB.ChildCount":  "benchmark/",
}

// TestInternalNamesHaveReaders keeps the census of internal/ done:
// every exported object declared in a non-test file under internal/ —
// function, method, type, constant, variable, struct field or interface
// method — must be read by non-test Go outside benchmark/, or stand in
// censusStays, under its name qualified by package and type, with a
// reason. The scan is by object (censusScan), so a namesake's readers
// do not count.
func TestInternalNamesHaveReaders(t *testing.T) {
	objs, err := censusScan(".", "corep")
	if err != nil {
		t.Fatal(err)
	}
	for key := range censusStays {
		read, declared := objs[key]
		switch {
		case !declared:
			t.Errorf("censusStays[%q]: no longer declared under internal/; drop it from the list", key)
		case read:
			t.Errorf("censusStays[%q]: the object has a program reader now; drop it from the list", key)
		}
	}
	for _, key := range censusOrphans(objs) {
		if _, stays := censusStays[key]; !stays {
			t.Errorf("%s: exported under internal/ and read by no non-test Go outside benchmark/; delete it, unexport it, move it into a _test.go file, or give censusStays its reason", key)
		}
	}
}

// TestInternalCensusFixture holds the scan to a module made for it
// (testdata/census): a plain orphan, an orphan whose namesake a program
// reads, and two methods reached only through interfaces, one named and
// one a literal in a type assertion. Only the first two are orphans.
func TestInternalCensusFixture(t *testing.T) {
	objs, err := censusScan(filepath.Join("testdata", "census"), "censusfixture")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fix.Orphan", "fix.Square.Area"}
	if got := censusOrphans(objs); !slices.Equal(got, want) {
		t.Errorf("orphans = %v, want %v", got, want)
	}
	for _, key := range []string{"fix.Circle.Area", "fix.Disk.Len", "fix.Disk.SetFault"} {
		if read, declared := objs[key]; !declared || !read {
			t.Errorf("%s: declared %v, read %v; want both", key, declared, read)
		}
	}
}

// censusOrphans returns, sorted, the keys that objs marks unread.
func censusOrphans(objs map[string]bool) []string {
	var keys []string
	for key, read := range objs {
		if !read {
			keys = append(keys, key)
		}
	}
	slices.Sort(keys)
	return keys
}

// censusScan type-checks every non-test package of module mod at root,
// benchmark/ and testdata excepted, and returns the exported objects
// declared under its internal/ by key ("pkg.Name", "pkg.Type.Member"),
// each with whether some of that code reads it. An object is read when
// a use or a selection names it (a generic instance counts for its
// origin); a method is also read when its receiver type, or an instance
// of it, implements an interface with a method of that name: one the
// module declares or writes as a literal, error, or fmt.Stringer.
func censusScan(root, mod string) (map[string]bool, error) {
	fset := token.NewFileSet()
	m := &moduleImporter{
		root: root, mod: mod, fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: map[string]*types.Package{},
	}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		rel = filepath.ToSlash(rel)
		if rel != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || rel == "benchmark") {
			return filepath.SkipDir
		}
		if _, err := m.Import(path.Join(mod, rel)); err != nil && !errors.As(err, new(*build.NoGoError)) {
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	read := map[types.Object]bool{}
	instances := map[*types.TypeName][]types.Type{} // generic type -> its instances
	ifaces := []*types.Interface{
		types.Universe.Lookup("error").Type().Underlying().(*types.Interface),
	}
	fmtPkg, err := m.Import("fmt")
	if err != nil {
		return nil, err
	}
	ifaces = append(ifaces, fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface))
	for _, info := range m.infos {
		for _, obj := range info.Uses {
			read[origin(obj)] = true
		}
		for _, sel := range info.Selections {
			read[origin(sel.Obj())] = true
		}
		for _, inst := range info.Instances {
			if n, ok := inst.Type.(*types.Named); ok {
				instances[n.Obj()] = append(instances[n.Obj()], n)
			}
		}
		for _, obj := range info.Defs {
			if tn, ok := obj.(*types.TypeName); ok && !isGeneric(tn.Type()) {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
				ifaces = append(ifaces, it)
			}
		}
	}
	reached := func(fn *types.Func) bool {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return false
		}
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if types.IsInterface(t) {
			return false
		}
		ts := []types.Type{t}
		if isGeneric(t) {
			ts = instances[t.(*types.Named).Obj()]
		}
		for _, it := range ifaces {
			if !hasMethod(it, fn.Name()) {
				continue
			}
			for _, t := range ts {
				if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
					return true
				}
			}
		}
		return false
	}

	objs := map[string]bool{}
	for p, info := range m.infos {
		rel, ok := strings.CutPrefix(p, mod+"/internal/")
		if !ok {
			continue
		}
		pkg := m.pkgs[p]
		owners := map[types.Object]string{} // field or interface method -> its named type
		for _, obj := range info.Defs {
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			switch u := tn.Type().Underlying().(type) {
			case *types.Struct:
				for i := range u.NumFields() {
					owners[u.Field(i)] = tn.Name()
				}
			case *types.Interface:
				for i := range u.NumExplicitMethods() {
					owners[u.ExplicitMethod(i)] = tn.Name()
				}
			}
		}
		for _, obj := range info.Defs {
			if obj == nil || !obj.Exported() {
				continue
			}
			var key string
			switch o := obj.(type) {
			case *types.Var:
				if o.IsField() && !o.Embedded() {
					key = ownerName(owners, o) + "." + o.Name()
				}
			case *types.Func:
				if recv := o.Type().(*types.Signature).Recv(); recv != nil {
					key = recvName(owners, o, recv.Type()) + "." + o.Name()
				}
			}
			if key == "" && obj.Parent() == pkg.Scope() {
				key = obj.Name()
			}
			if key == "" {
				continue
			}
			fn, isFunc := obj.(*types.Func)
			r := read[obj] || isFunc && reached(fn)
			if prev, dup := objs[rel+"."+key]; dup {
				r = r && prev // two objects under one key: read only if both are
			}
			objs[rel+"."+key] = r
		}
	}
	return objs, nil
}

// moduleImporter type-checks the module's packages from source, each
// once, so that every object has one identity across the packages that
// read it; the standard library comes from std.
type moduleImporter struct {
	root, mod string
	fset      *token.FileSet
	std       types.Importer
	pkgs      map[string]*types.Package
	infos     map[string]*types.Info
}

func (m *moduleImporter) Import(p string) (*types.Package, error) {
	if pkg := m.pkgs[p]; pkg != nil {
		return pkg, nil
	}
	rel, ok := strings.CutPrefix(p, m.mod+"/")
	if !ok && p != m.mod {
		return m.std.Import(p)
	}
	if !ok {
		rel = "."
	}
	dir := filepath.Join(m.root, filepath.FromSlash(rel))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	pkg, err := (&types.Config{Importer: m}).Check(p, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	if m.infos == nil {
		m.infos = map[string]*types.Info{}
	}
	m.pkgs[p], m.infos[p] = pkg, info
	return pkg, nil
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func isGeneric(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.TypeParams().Len() > 0
}

func hasMethod(it *types.Interface, name string) bool {
	for i := range it.NumMethods() {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// ownerName names the type that declares a field: its named type, or
// "struct" for a struct literal.
func ownerName(owners map[types.Object]string, field *types.Var) string {
	if name, ok := owners[field]; ok {
		return name
	}
	return "struct"
}

// recvName names the type whose method fn is.
func recvName(owners map[types.Object]string, fn *types.Func, recv types.Type) string {
	if name, ok := owners[fn]; ok {
		return name
	}
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	if n, ok := recv.(*types.Named); ok {
		return n.Obj().Name()
	}
	return "interface"
}

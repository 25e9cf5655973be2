package corep_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// censusStays lists the exported names declared under internal/ that no
// non-test Go outside benchmark/ reads, each with the reason it stays
// (EXPERIMENTS.md, census round 4). A name leaves this list when its
// reason does.
var censusStays = map[string]string{
	// Read by tests in other packages.
	"Resident":              "buffer.Pool: engine's cold-pool check and workload's frame-filling twin",
	"MustGet":               "catalog.Catalog: pql's and workload's tests",
	"Encodes":               "engine.Reclust: the root package's test that an unchanged placement map is not re-encoded",
	"Cap":                   "reclust.Tracker: engine's test that InitReclust sizes the heat table",
	"AllKindsWithAblations": "strategy: harness's root-span test covers DFSCACHEINSIDE too",
	"AssertNoLeaks":         "testutil: the pin-leak check of every package's tests",
	"ScribbleFrames":        "testutil: the view-lifetime checks of the root package's, pql's and strategy's tests",
	// Read by benchmark/, which this census leaves alone; they go with
	// ROADMAP item 7 (a).
	"Clear":      "cache.Cache: benchmark/probes.go",
	"Observe":    "planner.Planner: benchmark/probes.go",
	"ChildCount": "workload.DB and ValueDB: benchmark/",
	"GetBatch":   "btree.Tree and buffer.Pool: benchmark/probes.go (btree's is an adapter over GetBatchIn)",
	// A retrieve takes its temporaries from its query.Arena.
	"NewInt64Temp": "query: benchmark/probes.go's query layer",
}

// TestInternalNamesHaveReaders keeps the census of internal/ done: every
// exported name declared in a non-test file under internal/ — function,
// method, type, constant, variable, struct field or interface method —
// must be read by some identifier in non-test Go outside benchmark/
// other than its own declaration, or stand in censusStays with a
// reason. The scan is by name, so a name declared twice hides behind
// its namesake's readers: it finds a floor, not every orphan.
func TestInternalNamesHaveReaders(t *testing.T) {
	fset := token.NewFileSet()
	declared := map[string][]string{} // name -> declaring package dirs
	decls := map[*ast.Ident]bool{}
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "benchmark") {
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
		files = append(files, f)
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			for _, id := range exportedDecls(f) {
				decls[id] = true
				dir := filepath.ToSlash(filepath.Dir(path))
				declared[id.Name] = append(declared[id.Name], strings.TrimPrefix(dir, "internal/"))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	read := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !decls[id] {
				read[id.Name] = true
			}
			return true
		})
	}
	var orphans []string
	for name, dirs := range declared {
		_, stays := censusStays[name]
		switch {
		case !read[name] && !stays:
			slices.Sort(dirs)
			orphans = append(orphans, strings.Join(slices.Compact(dirs), ",")+"."+name)
		case read[name] && stays:
			t.Errorf("censusStays[%q]: the name has a program reader now; drop it from the list", name)
		}
	}
	for name := range censusStays {
		if declared[name] == nil {
			t.Errorf("censusStays[%q]: no longer declared under internal/; drop it from the list", name)
		}
	}
	slices.Sort(orphans)
	for _, o := range orphans {
		t.Errorf("%s: exported under internal/ and read by no non-test Go outside benchmark/; delete it, unexport it, move it into a _test.go file, or give censusStays its reason", o)
	}
}

// exportedDecls returns the identifiers at which f declares an exported
// name: top-level functions, methods, types, constants and variables,
// and the named fields and methods of struct and interface types.
func exportedDecls(f *ast.File) []*ast.Ident {
	var ids []*ast.Ident
	add := func(id *ast.Ident) {
		if id.IsExported() {
			ids = append(ids, id)
		}
	}
	fields := func(fl *ast.FieldList) {
		for _, fd := range fl.List {
			for _, id := range fd.Names {
				add(id)
			}
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			add(d.Name)
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id)
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.StructType:
			fields(n.Fields)
		case *ast.InterfaceType:
			fields(n.Methods)
		}
		return true
	})
	return ids
}

package main

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// censusExempt names the exported identifiers of internal/ that no
// file outside their package names and no kept API reaches, each with
// the reason it stays exported.
var censusExempt = map[string]string{
	"serve.StatusError": "the error Client returns for a non-2xx reply; bench/workloads.go names it",
}

// TestInternalExportsAreUsed is the API census: every exported
// top-level identifier of an internal/ package is named by some Go
// file outside the package's directory, is reachable from one that is
// (it appears in an exported signature, field or embedded field, or is
// a constant of a kept type), or has a reason in censusExempt. An
// export nothing outside uses is a promise to no one, so the surface
// cannot silently regrow.
func TestInternalExportsAreUsed(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	named, err := namedOutside(root)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(root, "internal", "*", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	imp := &sourceImporter{root: root, fset: fset, std: importer.ForCompiler(fset, "source", nil), done: map[string]*types.Package{}}
	byName := map[string]*types.Package{}
	var pkgs []*types.Package
	for _, file := range files {
		dir, _ := filepath.Rel(root, filepath.Dir(file))
		pkg, err := imp.Import("repro/" + filepath.ToSlash(dir))
		if err != nil {
			t.Fatalf("type-checking %s: %v", dir, err)
		}
		if byName[pkg.Name()] == nil {
			byName[pkg.Name()] = pkg
			pkgs = append(pkgs, pkg)
		}
	}

	kept := keptExports(pkgs, func(o types.Object) bool { return named[o.Pkg().Name()+"."+o.Name()] })
	var bad []string
	for _, pkg := range pkgs {
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			ref := pkg.Name() + "." + name
			_, exempt := censusExempt[ref]
			switch {
			case !obj.Exported():
			case kept[obj] && exempt:
				bad = append(bad, ref+" is used or reachable now: drop it from censusExempt")
			case !kept[obj] && !exempt:
				bad = append(bad, ref+" is exported, but no file outside "+strings.TrimPrefix(pkg.Path(), "repro/")+
					" names it and no kept API reaches it: use it outside the package, unexport it, or give a reason in censusExempt")
			}
		}
	}
	for ref := range censusExempt {
		pkg, name, _ := strings.Cut(ref, ".")
		if byName[pkg] == nil || byName[pkg].Scope().Lookup(name) == nil {
			bad = append(bad, ref+" is in censusExempt but does not exist")
		}
	}
	sort.Strings(bad)
	for _, line := range bad {
		t.Error(line)
	}
}

// namedOutside returns every "pkg.Ident" that some Go file of the
// repository selects from an internal package it imports, where the
// file lies outside that package's directory. Comments do not count.
func namedOutside(root string) (map[string]bool, error) {
	named := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, _ := filepath.Rel(root, filepath.Dir(path))
		imports := map[string]string{} // local name -> package name
		for _, spec := range f.Imports {
			ipath := strings.Trim(spec.Path.Value, `"`)
			rel, ok := strings.CutPrefix(ipath, "repro/")
			if !ok || rel == filepath.ToSlash(dir) {
				continue
			}
			local := filepath.Base(ipath)
			if spec.Name != nil {
				local = spec.Name.Name
			}
			imports[local] = filepath.Base(ipath)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					named[imports[x.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	return named, err
}

// keptExports closes the set of used exports over the exported API:
// a kept identifier keeps every package-level type its exported
// signature, fields, embedded fields and methods mention, and a kept
// type keeps the constants declared with it.
func keptExports(pkgs []*types.Package, used func(types.Object) bool) map[types.Object]bool {
	kept := map[types.Object]bool{}
	var queue []types.Object
	keep := func(o types.Object) {
		if o != nil && o.Exported() && o.Pkg() != nil && strings.HasPrefix(o.Pkg().Path(), "repro/") &&
			o.Parent() == o.Pkg().Scope() && !kept[o] {
			kept[o] = true
			queue = append(queue, o)
		}
	}
	for _, pkg := range pkgs {
		for _, name := range pkg.Scope().Names() {
			if obj := pkg.Scope().Lookup(name); used(obj) {
				keep(obj)
			}
		}
	}
	seen := map[types.Type]bool{}
	var walk func(types.Type)
	walk = func(t types.Type) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			keep(t.Obj())
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Signature:
			for i := 0; i < t.Params().Len(); i++ {
				walk(t.Params().At(i).Type())
			}
			for i := 0; i < t.Results().Len(); i++ {
				walk(t.Results().At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumExplicitMethods(); i++ {
				if m := t.ExplicitMethod(i); m.Exported() {
					walk(m.Type())
				}
			}
			for i := 0; i < t.NumEmbeddeds(); i++ {
				walk(t.EmbeddedType(i))
			}
		}
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		tn, isType := obj.(*types.TypeName)
		if !isType {
			walk(obj.Type())
			continue
		}
		walk(tn.Type().Underlying())
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				walk(m.Type())
			}
		}
		scope := tn.Pkg().Scope()
		for _, name := range scope.Names() {
			if c, ok := scope.Lookup(name).(*types.Const); ok && types.Identical(c.Type(), named) {
				keep(c)
			}
		}
	}
	return kept
}

// sourceImporter type-checks the repository's packages from source,
// declarations only, and the standard library through imp.
type sourceImporter struct {
	root string
	fset *token.FileSet
	std  types.Importer
	done map[string]*types.Package
}

func (s *sourceImporter) Import(path string) (*types.Package, error) {
	rel, ours := strings.CutPrefix(path, "repro/")
	if !ours {
		return s.std.Import(path)
	}
	if pkg := s.done[path]; pkg != nil {
		return pkg, nil
	}
	pkgs, err := parser.ParseDir(s.fset, filepath.Join(s.root, rel), func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, p := range pkgs {
		for _, f := range p.Files {
			files = append(files, f)
		}
	}
	conf := types.Config{Importer: s, IgnoreFuncBodies: true}
	pkg, err := conf.Check(path, s.fset, files, nil)
	if err != nil {
		return nil, err
	}
	s.done[path] = pkg
	return pkg, nil
}

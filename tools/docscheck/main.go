// Command docscheck verifies that documentation stays truthful: every
// backticked `pkg.Identifier` (or `pkg.Type.Member`) reference in the
// checked markdown files must name an exported identifier that actually
// exists in the corresponding internal package, so the architecture
// walkthrough cannot silently rot as the code evolves.
//
// Usage:
//
//	go run ./tools/docscheck                    # docs/*.md README.md + must.txt
//	go run ./tools/docscheck docs/EXPERIMENTS.md  # these files' references only
//	go test ./tools/docscheck                   # the first form, as a tier-1 test
//
// With no arguments it checks the repository's documentation set and
// also requires every identifier listed in must.txt (next to this
// file, one per line) to be referenced inside backticks somewhere in
// that set, so new API surface cannot ship undocumented: each must both
// exist in its package and be documented.
//
// References are recognized inside backticks as <pkg>.<Exported> with
// an optional .<Member> tail, where <pkg> is one of the repository's
// package names (the keys of packages below). Member references are
// checked against the type's method and struct-field sets; anything
// deeper is accepted once the first two levels resolve.
package main

import (
	"context"
	_ "embed"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"repro/internal/cli"
)

// packages maps doc-reference package names to their source
// directories, relative to the repository root.
var packages = map[string]string{
	"guest":       "internal/guest",
	"emu":         "internal/emu",
	"host":        "internal/host",
	"mem":         "internal/mem",
	"tol":         "internal/tol",
	"timing":      "internal/timing",
	"darco":       "internal/darco",
	"workload":    "internal/workload",
	"experiments": "internal/experiments",
	"sweep":       "internal/sweep",
	"stats":       "internal/stats",
	"store":       "internal/store",
	"serve":       "internal/serve",
	"snapshot":    "internal/snapshot",
	"strictjson":  "internal/strictjson",
	"sample":      "internal/sample",
	"fuzz":        "internal/fuzz",
	"cli":         "internal/cli",
	"registry":    "internal/registry",
}

// mustList names the identifiers the documentation set has to mention.
//
//go:embed must.txt
var mustList string

// pkgIndex holds one package's exported surface.
type pkgIndex struct {
	idents  map[string]bool            // top-level exported funcs/types/consts/vars
	members map[string]map[string]bool // type -> exported methods + struct fields
}

func main() { cli.Main(run) }

// run is the command behind cli.Main's testable seam.
func run(_ context.Context, args []string, stdout, stderr io.Writer) int {
	cmd := cli.New("docscheck", stdout, stderr)
	if code, ok := cmd.Parse(args); !ok {
		return code
	}
	root, err := repoRoot()
	if err != nil {
		return cmd.Exit(cli.Usage, err)
	}
	files := cmd.Args()
	var must []string
	if len(files) == 0 {
		if files, err = filepath.Glob(filepath.Join(root, "docs", "*.md")); err != nil {
			return cmd.Exit(cli.Usage, err)
		}
		files = append(files, filepath.Join(root, "README.md"))
		must = strings.Fields(mustList)
	}
	index := map[string]*pkgIndex{}
	for name, dir := range packages {
		if index[name], err = indexPackage(filepath.Join(root, dir)); err != nil {
			return cmd.Exit(cli.Usage, fmt.Sprintf("indexing %s: %v", dir, err))
		}
	}

	var bad []string
	seen := map[string]bool{}
	for _, path := range files {
		bad = append(bad, checkFile(path, index, seen)...)
	}
	for _, ref := range must {
		if !seen[ref] {
			// checkFile only records references that resolve, so a listed
			// identifier that no longer exists is reported here too.
			bad = append(bad, fmt.Sprintf("must.txt: %s is not documented in any checked file (or does not exist)", ref))
		}
	}
	for _, line := range bad {
		fmt.Fprintln(stderr, line)
	}
	if len(bad) > 0 {
		return cmd.Exit(cli.Fail, len(bad), "stale or missing reference(s)")
	}
	return cli.OK
}

// repoRoot walks up from the working directory to the directory
// containing go.mod, so the tool works from any subdirectory.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// refPattern matches `pkg.Exported` or `pkg.Type.Member` inside
// backticks. Lowercase tails (fields that are unexported, flag names,
// file paths) never match.
var refPattern = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Z][A-Za-z0-9]*)((?:\\.[A-Z][A-Za-z0-9]*)*)`")

// checkFile verifies one markdown file's references and records every
// resolved pkg.Ident into seen (for -must coverage accounting).
func checkFile(path string, index map[string]*pkgIndex, seen map[string]bool) []string {
	data, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("%s: %v", path, err)}
	}
	var bad []string
	for lineNo, line := range strings.Split(string(data), "\n") {
		for _, m := range refPattern.FindAllStringSubmatch(line, -1) {
			pkg, ident, tail := m[1], m[2], m[3]
			idx, known := index[pkg]
			if !known {
				continue // not a package reference (e.g. a file path)
			}
			if !idx.idents[ident] {
				bad = append(bad, fmt.Sprintf("%s:%d: %s.%s does not exist", path, lineNo+1, pkg, ident))
				continue
			}
			seen[pkg+"."+ident] = true
			if tail != "" {
				seen[pkg+"."+ident+tail] = true
			}
			if tail == "" {
				continue
			}
			member := strings.TrimPrefix(tail, ".")
			if dot := strings.IndexByte(member, '.'); dot >= 0 {
				member = member[:dot] // check the first member level only
			}
			members, isType := idx.members[ident]
			if !isType {
				continue // pkg.Func().Something etc. — accept
			}
			if !members[member] {
				bad = append(bad, fmt.Sprintf("%s:%d: %s.%s has no exported member %s",
					path, lineNo+1, pkg, ident, member))
			}
		}
	}
	return bad
}

// indexPackage parses every non-test Go file in dir and collects the
// exported surface.
func indexPackage(dir string) (*pkgIndex, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return nil, err
	}
	idx := &pkgIndex{idents: map[string]bool{}, members: map[string]map[string]bool{}}
	addMember := func(typ, name string) {
		if !ast.IsExported(name) {
			return
		}
		if idx.members[typ] == nil {
			idx.members[typ] = map[string]bool{}
		}
		idx.members[typ][name] = true
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						if ast.IsExported(d.Name.Name) {
							idx.idents[d.Name.Name] = true
						}
						continue
					}
					addMember(recvTypeName(d.Recv), d.Name.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if !ast.IsExported(s.Name.Name) {
								continue
							}
							idx.idents[s.Name.Name] = true
							indexTypeMembers(s, addMember)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if ast.IsExported(n.Name) {
									idx.idents[n.Name] = true
								}
							}
						}
					}
				}
			}
		}
	}
	return idx, nil
}

// recvTypeName extracts the receiver's type name ("T" from T or *T).
func recvTypeName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// indexTypeMembers records exported struct fields and interface
// methods of a type declaration.
func indexTypeMembers(s *ast.TypeSpec, add func(typ, name string)) {
	switch t := s.Type.(type) {
	case *ast.StructType:
		for _, f := range t.Fields.List {
			for _, n := range f.Names {
				add(s.Name.Name, n.Name)
			}
		}
	case *ast.InterfaceType:
		for _, m := range t.Methods.List {
			for _, n := range m.Names {
				add(s.Name.Name, n.Name)
			}
		}
	}
}

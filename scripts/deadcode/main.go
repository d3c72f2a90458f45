// Command deadcode lists the exported identifiers of the module's
// library packages that nothing refers to outside their own package's
// _test.go files: package-level functions, types, variables and
// constants, and exported methods of package-level types. Every other
// file of the module is a caller — other packages and their tests, and
// the main packages under bench/, cmd/ and examples/ — but a reference
// from the declaration of an identifier that is itself on the list does
// not count (a caller-less function keeps nothing alive). A method that
// an interface its receiver implements also names is never listed: it
// may be called through the interface.
//
// Stdlib only: go/parser and go/types, the standard library type-checked
// by the source importer, nothing downloaded. Run from the repository
// root:
//
//	go run ./scripts/deadcode
//
// It prints the list and exits non-zero when the list and
// scripts/deadcode/allow.txt differ, either way: a new caller-less name
// must get a caller or be deleted, and an allow-list entry that is no
// longer caller-less (or no longer exists) must be removed. The
// allow-list is the debt recorded when the gate went in; it may only
// shrink.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const allowFile = "scripts/deadcode/allow.txt"

// loader type-checks the module's packages from source. Objects of one
// package exist once per unit that checks it (the importer's instance,
// the instance checked together with its in-package tests), so an
// object is identified by where it is declared, not by pointer.
type loader struct {
	fset   *token.FileSet
	module string
	std    types.Importer
	pkgs   map[string]*types.Package // the importer's instances, by import path
	// withTests overrides pkgs while a directory's external test package
	// is checked, so that it sees what the in-package tests export.
	withTests map[string]*types.Package
	info      *types.Info
	files     map[string][]*ast.File // parsed files by directory
	errs      []error
}

func (l *loader) Import(path string) (*types.Package, error) {
	if path != l.module && !strings.HasPrefix(path, l.module+"/") {
		return l.std.Import(path)
	}
	if p := l.withTests[path]; p != nil {
		return p, nil
	}
	if p := l.pkgs[path]; p != nil {
		return p, nil
	}
	dir := "." + strings.TrimPrefix(path, l.module)
	var lib []*ast.File
	for _, f := range l.files[filepath.Clean(dir)] {
		if !l.isTest(f) {
			lib = append(lib, f)
		}
	}
	if len(lib) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	p := l.check(path, lib)
	l.pkgs[path] = p
	return p, nil
}

func (l *loader) isTest(f *ast.File) bool {
	return strings.HasSuffix(l.fset.File(f.Pos()).Name(), "_test.go")
}

func (l *loader) check(path string, files []*ast.File) *types.Package {
	conf := types.Config{Importer: l, Error: func(err error) { l.errs = append(l.errs, err) }}
	p, _ := conf.Check(path, l.fset, files, l.info)
	return p
}

// key identifies an object by its declaration site; generic
// instantiations share their origin's.
func (l *loader) key(obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	return l.fset.Position(obj.Pos()).String()
}

// span is one top-level declaration: its extent and the keys of the
// objects it declares.
type span struct {
	pos, end token.Pos
	keys     []string
}

func main() {
	module, err := modulePath()
	if err != nil {
		fatal(err)
	}
	// The source importer reads build.Default; without cgo it picks the
	// pure-Go files of net and os/user and needs no C toolchain.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &loader{
		fset: fset, module: module,
		std:   importer.ForCompiler(fset, "source", nil),
		pkgs:  make(map[string]*types.Package),
		info:  &types.Info{Defs: make(map[*ast.Ident]types.Object), Uses: make(map[*ast.Ident]types.Object)},
		files: make(map[string][]*ast.File),
	}
	if err := l.parseModule(); err != nil {
		fatal(err)
	}

	// Check every directory: the package itself, then the package with
	// its in-package tests, then its external test package.
	dirs := make([]string, 0, len(l.files))
	for dir := range l.files {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	var libs []*types.Package // importer instances of the non-main packages
	for _, dir := range dirs {
		path := module
		if dir != "." {
			path += "/" + filepath.ToSlash(dir)
		}
		var own, external []*ast.File
		hasLib, hasInTest := false, false
		for _, f := range l.files[dir] {
			switch {
			case strings.HasSuffix(f.Name.Name, "_test"):
				external = append(external, f)
			default:
				own = append(own, f)
				hasLib = hasLib || !l.isTest(f)
				hasInTest = hasInTest || l.isTest(f)
			}
		}
		var tested *types.Package
		if hasLib {
			p, err := l.Import(path)
			if err != nil {
				fatal(err)
			}
			if p.Name() != "main" {
				libs = append(libs, p)
			}
			tested = p
		}
		if hasInTest {
			tested = l.check(path, own)
		}
		if len(external) > 0 {
			l.withTests = map[string]*types.Package{path: tested}
			l.check(path+"_test", external)
			l.withTests = nil
		}
	}
	if len(l.errs) > 0 {
		for _, err := range l.errs {
			fmt.Fprintln(os.Stderr, "deadcode:", err)
		}
		os.Exit(2)
	}

	dead := l.dead(libs)
	for _, name := range dead {
		fmt.Println(name)
	}
	if !compareAllowList(dead) {
		os.Exit(1)
	}
}

// parseModule parses every Go file of the module that builds on this
// platform, tests included, by directory relative to the root.
func (l *loader) parseModule() error {
	return filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := build.Default.MatchFile(dir, d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(l.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		l.files[dir] = append(l.files[dir], f)
		return nil
	})
}

// dead returns the caller-less exported identifiers of libs, sorted.
func (l *loader) dead(libs []*types.Package) []string {
	// The candidates: printable name by declaration key.
	names := make(map[string]string)
	ifaces := l.interfaces(libs)
	for _, p := range libs {
		scope := p.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			names[l.key(obj)] = p.Path() + "." + name
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() && !viaInterface(named, m, ifaces) {
					names[l.key(m)] = p.Path() + "." + name + "." + m.Name()
				}
			}
		}
	}

	// Every top-level declaration's extent, per file.
	spans := make(map[string][]span)
	for _, files := range l.files {
		for _, f := range files {
			fname := l.fset.File(f.Pos()).Name()
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					spans[fname] = append(spans[fname], span{d.Pos(), d.End(), l.declKeys(d.Name)})
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							spans[fname] = append(spans[fname], span{s.Pos(), s.End(), l.declKeys(s.Name)})
						case *ast.ValueSpec:
							spans[fname] = append(spans[fname], span{s.Pos(), s.End(), l.declKeys(s.Names...)})
						}
					}
				}
			}
		}
	}

	// A reference from a declaration that is not a candidate makes its
	// target live outright; one from a candidate's declaration makes it
	// live if that candidate is.
	live := make(map[string]bool)
	edges := make(map[string][]string)
	for id, obj := range l.info.Uses {
		target := l.key(obj)
		if _, ok := names[target]; !ok {
			continue
		}
		at := l.fset.Position(id.Pos())
		if strings.HasSuffix(at.Filename, "_test.go") &&
			filepath.Dir(at.Filename) == filepath.Dir(l.fset.Position(obj.Pos()).Filename) {
			continue // the identifier's own package's tests
		}
		from := enclosing(spans[at.Filename], id.Pos())
		rooted := len(from) == 0
		for _, k := range from {
			if _, candidate := names[k]; !candidate {
				rooted = true
			}
		}
		if rooted {
			live[target] = true
			continue
		}
		for _, k := range from {
			edges[k] = append(edges[k], target)
		}
	}
	var queue []string
	for k := range live {
		queue = append(queue, k)
	}
	for len(queue) > 0 {
		k := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, t := range edges[k] {
			if !live[t] {
				live[t] = true
				queue = append(queue, t)
			}
		}
	}

	var dead []string
	for k, name := range names {
		if !live[k] {
			dead = append(dead, name)
		}
	}
	sort.Strings(dead)
	return dead
}

func (l *loader) declKeys(idents ...*ast.Ident) []string {
	var keys []string
	for _, id := range idents {
		if obj := l.info.Defs[id]; obj != nil {
			keys = append(keys, l.key(obj))
		}
	}
	return keys
}

func enclosing(spans []span, pos token.Pos) []string {
	for _, s := range spans {
		if s.pos <= pos && pos < s.end {
			return s.keys
		}
	}
	return nil
}

// interfaces collects every named interface type in libs and in all the
// packages they import, the standard library's included.
func (l *loader) interfaces(libs []*types.Package) []*types.Interface {
	var out []*types.Interface
	seen := make(map[*types.Package]bool)
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					out = append(out, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range libs {
		visit(p)
	}
	return out
}

// viaInterface reports whether some interface that names method m is
// implemented by m's receiver type (or a pointer to it). A generic
// receiver cannot be asked without instantiating it, so there the name
// alone decides.
func viaInterface(recv *types.Named, m *types.Func, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		named := false
		for i := 0; i < it.NumMethods(); i++ {
			named = named || it.Method(i).Name() == m.Name()
		}
		if !named {
			continue
		}
		if recv.TypeParams().Len() > 0 || types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it) {
			return true
		}
	}
	return false
}

// compareAllowList reports whether dead is exactly the allow-list,
// printing what differs.
func compareAllowList(dead []string) bool {
	allowed := make(map[string]bool)
	f, err := os.Open(allowFile)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			allowed[line] = true
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	ok := true
	for _, name := range dead {
		if !allowed[name] {
			fmt.Fprintf(os.Stderr, "deadcode: %s has no caller outside its package's tests: give it one or delete it\n", name)
			ok = false
		}
		delete(allowed, name)
	}
	for name := range allowed {
		fmt.Fprintf(os.Stderr, "deadcode: %s is in %s but is not caller-less any more: remove the line\n", name, allowFile)
		ok = false
	}
	return ok
}

func modulePath() (string, error) {
	data, err := os.ReadFile("go.mod")
	if err != nil {
		return "", fmt.Errorf("run from the repository root: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("go.mod: no module line")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "deadcode:", err)
	os.Exit(2)
}

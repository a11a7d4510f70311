// Package apicheck holds the module's API ratchet: every exported func
// and method declared under internal/ has a caller other than its own
// package's tests, so an export that only its own tests reach is
// deleted or unexported rather than kept. The package has no code of
// its own; run it with go test ./internal/apicheck.
package apicheck

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// TestEveryExportHasACaller type-checks the module, its tests, the
// sources under bench/ (a module of its own that imports internal/
// packages) and the standard library they import, all from source with
// go/types, and fails on every exported func or method declared in a
// non-test file under internal/ that nothing but its own package's
// tests uses. A caller is any reference from the module's non-test code
// (its own package's included), from another package's tests, or from
// bench/.
//
// Two kinds of method are exempt by rule: a method that implements a
// method of an interface spelled anywhere in the checked code, the
// standard library's included (it is called through the interface,
// which go/types does not follow to the concrete method; errors.Is
// calling a StatusError's Is is one), and a method of a type that the
// root package's dialga.go aliases (the facade exports it under its own
// name).
func TestEveryExportHasACaller(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	l, err := newLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.loadAll(); err != nil {
		t.Fatal(err)
	}
	if len(l.errs) > 0 {
		for _, e := range l.errs {
			t.Error(e)
		}
		t.Fatal("the scan must type-check the module and its tests without errors")
	}
	var unused []string
	for _, f := range l.candidates() {
		if !l.used[f] {
			unused = append(unused, fmt.Sprintf("%s (%s)", describe(f), l.rel(f.Pos())))
		}
	}
	if len(unused) > 0 {
		t.Errorf("%d exported funcs and methods under internal/ are used by nothing but their own package's tests; delete or unexport them:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
}

// A loader type-checks every package of the module, of bench/ and of
// the standard library they import, from source. Each import path is
// checked once, and a package's in-package tests are checked into that
// same package afterwards, so a use anywhere resolves to the one object
// its declaration made.
type loader struct {
	root     string
	fset     *token.FileSet
	ctxt     build.Context
	bpkgs    map[string]*build.Package     // module and bench/ packages by import path
	pkgs     map[string]*types.Package     // every checked package by import path
	checkers map[string]*types.Checker     // module and bench/ packages' checkers
	infos    map[string]*types.Info        // and what they record
	used     map[*types.Func]bool          // funcs with a caller
	ifaces   map[string][]*types.Interface // every interface seen, by method name
	errs     []error
}

func newLoader(root string) (*loader, error) {
	ctxt := build.Default
	// The scan reads Go, not C: cgo files would need a C toolchain to
	// type-check, and the pure-Go variants declare the same API.
	ctxt.CgoEnabled = false
	l := &loader{
		root:     root,
		fset:     token.NewFileSet(),
		ctxt:     ctxt,
		bpkgs:    map[string]*build.Package{},
		pkgs:     map[string]*types.Package{},
		checkers: map[string]*types.Checker{},
		infos:    map[string]*types.Info{},
		used:     map[*types.Func]bool{},
		ifaces:   map[string][]*types.Interface{},
	}
	l.addInterface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, m := range []struct{ dir, path string }{{root, "dialga"}, {filepath.Join(root, "bench"), "dialga/bench"}} {
		if err := l.walk(m.dir, m.path); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// walk records every package directory under dir, skipping hidden
// directories, testdata and nested modules (bench/ is walked as a
// module of its own).
func (l *loader) walk(dir, path string) error {
	return filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != dir {
			name := d.Name()
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := l.ctxt.ImportDir(p, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		ip := path
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		l.bpkgs[ip] = bp
		return nil
	})
}

// loadAll type-checks every package, then adds each package's
// in-package tests to it, then checks each external test package
// against the packages with their tests, as go test builds them.
func (l *loader) loadAll() error {
	paths := make([]string, 0, len(l.bpkgs))
	for p := range l.bpkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := l.Import(p); err != nil {
			return err
		}
	}
	for _, p := range paths {
		if names := l.bpkgs[p].TestGoFiles; len(names) > 0 {
			files, err := l.parse(l.bpkgs[p].Dir, names)
			if err != nil {
				return err
			}
			_ = l.checkers[p].Files(files) // errors are collected by the config
			l.record(p, files, l.infos[p], true)
		}
	}
	for _, p := range paths {
		if names := l.bpkgs[p].XTestGoFiles; len(names) > 0 {
			files, err := l.parse(l.bpkgs[p].Dir, names)
			if err != nil {
				return err
			}
			l.check(p+"_test", files, false)
		}
	}
	return nil
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

// ImportFrom makes the loader a types.ImporterFrom: the module's and
// bench/'s paths are checked from their directories, the rest from
// GOROOT as go/build resolves them from dir (the standard library's
// vendored packages included).
func (l *loader) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	bp, ok := l.bpkgs[path]
	if !ok {
		var err error
		if bp, err = l.ctxt.Import(path, dir, 0); err != nil {
			return nil, err
		}
		if !bp.Goroot {
			return nil, fmt.Errorf("%s: neither in the module nor in the standard library", path)
		}
		path = bp.ImportPath
		if pkg, ok := l.pkgs[path]; ok {
			return pkg, nil
		}
	}
	files, err := l.parse(bp.Dir, bp.GoFiles)
	if err != nil {
		return nil, err
	}
	return l.check(path, files, bp.Goroot), nil
}

func (l *loader) parse(dir string, names []string) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(names))
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks files as the package path. The standard library
// (std) is checked for its declarations only, to find its interfaces;
// everything else with its function bodies, recording what it uses.
func (l *loader) check(path string, files []*ast.File, std bool) *types.Package {
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	if !std {
		info.Uses = map[*ast.Ident]types.Object{}
	}
	conf := types.Config{
		Importer:         l,
		Sizes:            types.SizesFor("gc", runtime.GOARCH),
		IgnoreFuncBodies: std,
		Error:            func(err error) { l.errs = append(l.errs, err) },
	}
	pkg := types.NewPackage(path, "")
	chk := types.NewChecker(&conf, l.fset, pkg, info)
	_ = chk.Files(files) // errors are collected by conf.Error
	l.pkgs[path] = pkg
	if _, ok := l.bpkgs[path]; ok {
		l.checkers[path], l.infos[path] = chk, info
	}
	l.record(path, files, info, strings.HasSuffix(path, "_test"))
	return pkg
}

// record notes the funcs that files use and the interfaces they spell
// out. Non-test code is a caller of anything it uses, its own package's
// exports included; test code is a caller only of what other packages
// declare, so a package's own tests, in-package or external, keep none
// of its exports.
func (l *loader) record(path string, files []*ast.File, info *types.Info, test bool) {
	mine := map[*token.File]bool{}
	for _, f := range files {
		mine[l.fset.File(f.Pos())] = true
	}
	owner := strings.TrimSuffix(path, "_test")
	for id, obj := range info.Uses {
		f, ok := obj.(*types.Func)
		if !ok || f.Pkg() == nil || !mine[l.fset.File(id.Pos())] {
			continue
		}
		if !test || f.Pkg().Path() != owner {
			l.used[f.Origin()] = true
		}
	}
	// Every interface type the files spell out, named or literal. A
	// literal inside a function body the check skipped (errors.Is's
	// interface{ Is(error) bool }) is checked on its own in package
	// scope. Generic interfaces are left out: nothing implements them
	// uninstantiated.
	pkg := l.pkgs[path]
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				return n.TypeParams == nil
			case *ast.InterfaceType:
				tv, ok := info.Types[n]
				if !ok && types.CheckExpr(l.fset, pkg, token.NoPos, n, info) == nil {
					tv = info.Types[n]
				}
				if it, ok := tv.Type.(*types.Interface); ok {
					l.addInterface(it)
				}
			}
			return true
		})
	}
}

func (l *loader) addInterface(it *types.Interface) {
	if !it.IsMethodSet() {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		name := it.Method(i).Name()
		l.ifaces[name] = append(l.ifaces[name], it)
	}
}

// candidates lists the exported funcs and methods declared in the
// non-test files under internal/ that no rule exempts, in source order.
func (l *loader) candidates() []*types.Func {
	aliased := l.aliased()
	var out []*types.Func
	add := func(f *types.Func) {
		if f.Exported() && !strings.HasSuffix(l.fset.File(f.Pos()).Name(), "_test.go") {
			out = append(out, f)
		}
	}
	for path, pkg := range l.pkgs {
		if !strings.HasPrefix(path, "dialga/internal/") || strings.HasSuffix(path, "_test") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				add(obj)
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() || aliased[named] {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); !l.implements(named, m.Name()) {
						add(m)
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := l.fset.Position(out[i].Pos()), l.fset.Position(out[j].Pos())
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Offset < b.Offset
	})
	return out
}

// implements reports whether T or *T implements an interface that has
// a method called name.
func (l *loader) implements(named *types.Named, name string) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range l.ifaces[name] {
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

// aliased returns the types that the root package's dialga.go declares
// aliases of.
func (l *loader) aliased() map[*types.Named]bool {
	out := map[*types.Named]bool{}
	scope := l.pkgs["dialga"].Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.IsAlias() || filepath.Base(l.fset.File(tn.Pos()).Name()) != "dialga.go" {
			continue
		}
		if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
			out[named.Origin()] = true
		}
	}
	return out
}

// describe names f as pkg.Func or pkg.Type.Method.
func describe(f *types.Func) string {
	name := f.Pkg().Name() + "."
	if recv := f.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name += named.Obj().Name() + "."
		}
	}
	return name + f.Name()
}

// rel renders a position relative to the module root.
func (l *loader) rel(pos token.Pos) string {
	p := l.fset.Position(pos)
	if r, err := filepath.Rel(l.root, p.Filename); err == nil {
		p.Filename = r
	}
	return p.String()
}

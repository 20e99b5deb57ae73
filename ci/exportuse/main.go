// Command exportuse is the gate that keeps caller-less code out of
// internal/. It type-checks every non-test file of the repository's two
// modules — the root and bench/, which reaches internal/ through its
// replace directive — and lists each package-level func, method, type,
// const and var declared under internal/ that none of those files refers
// to, exported or not. cmd/, examples/, ci/ and bench/ all count as
// callers; a _test.go file does not.
//
// What counts as a reference:
//   - a use from outside the declaration itself: a function's own body, a
//     type's spec and its own methods, a var's or const's own spec do not
//     count;
//   - a method whose receiver type (T or *T) implements an interface
//     declared in any loaded package, the standard library included, and
//     whose name is one of that interface's methods. An interface literal
//     inside a function body counts too: errors.Is finds Unwrap through
//     one.
//
// Exported struct fields are not scanned: encoding/json reads them.
//
// The run fails on every listed name missing from ci/exportuse/allow.txt,
// and on every line of that file whose name is no longer listed, so the
// file cannot go stale. A line is "name reason", name as printed here:
// pkgpath.Name for a func, type, const or var, pkgpath.T.M or
// pkgpath.(*T).M for a method.
//
// Run it from the repository root: go run ./ci/exportuse
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// allowPath is the allowlist, relative to the repository root.
const allowPath = "ci/exportuse/allow.txt"

func main() {
	unused, declared, err := scan(".", "bench")
	if err != nil {
		fail(err)
	}
	allow, err := readAllow(allowPath)
	if err != nil {
		fail(err)
	}
	if problems := check(unused, declared, allow); len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		os.Exit(1)
	}
	fmt.Printf("exportuse: %d names under internal/, %d without a non-test caller, all allowlisted\n",
		len(declared), len(unused))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "exportuse:", err)
	os.Exit(2)
}

// listedPackage is the part of `go list -json` output the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Standard   bool
	GoFiles    []string
	ImportMap  map[string]string // vendored imports of the standard library
}

// goList returns the packages of the module in dir and all their
// dependencies, each after its own dependencies.
func goList(dir string) ([]listedPackage, error) {
	cmd := exec.Command("go", "list", "-json", "-deps", "./...")
	cmd.Dir = dir
	// The scan parses sources and does not build them; without cgo every
	// package, the standard library's included, is pure Go.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0", "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// loaded is one type-checked package.
type loaded struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	// module is true for a package of one of the two scanned modules.
	module bool
}

type loader struct {
	fset *token.FileSet
	pkgs map[string]*loaded
}

// importer resolves the imports of one package.
type importer struct {
	l         *loader
	importMap map[string]string
}

func (im importer) Import(path string) (*types.Package, error) {
	if mapped, ok := im.importMap[path]; ok {
		path = mapped
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p := im.l.pkgs[path]; p != nil {
		return p.pkg, nil
	}
	return nil, fmt.Errorf("package %s not loaded before its importer", path)
}

// load parses and type-checks p, whose imports are all loaded already.
// Only a module package records its uses.
func (l *loader) load(p listedPackage, module bool) error {
	if p.ImportPath == "unsafe" || l.pkgs[p.ImportPath] != nil {
		return nil
	}
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	if module {
		info.Uses = map[*ast.Ident]types.Object{}
	}
	conf := types.Config{Importer: importer{l, p.ImportMap}}
	pkg, err := conf.Check(p.ImportPath, l.fset, files, info)
	if err != nil {
		return err
	}
	l.pkgs[p.ImportPath] = &loaded{pkg: pkg, files: files, info: info, module: module}
	return nil
}

// scan type-checks the module at root and the module at root/second and
// returns, sorted, the names declared under root/internal that no non-test
// file of either refers to, beside the set of every name declared there.
func scan(root, second string) (unused []string, declared map[string]bool, err error) {
	root, err = filepath.Abs(root)
	if err != nil {
		return nil, nil, err
	}
	l := &loader{fset: token.NewFileSet(), pkgs: map[string]*loaded{}}
	internal := map[string]bool{} // import paths of the packages under root/internal
	for _, dir := range []string{root, filepath.Join(root, second)} {
		pkgs, err := goList(dir)
		if err != nil {
			return nil, nil, err
		}
		for _, p := range pkgs {
			module := !p.Standard
			if err := l.load(p, module); err != nil {
				return nil, nil, err
			}
			if rel, err := filepath.Rel(root, p.Dir); module && err == nil &&
				(rel == "internal" || strings.HasPrefix(rel, "internal"+string(filepath.Separator))) {
				internal[p.ImportPath] = true
			}
		}
	}

	decls := map[types.Object]*decl{}
	for path := range internal {
		for _, f := range l.pkgs[path].files {
			collect(f, l.pkgs[path].info, decls)
		}
	}
	used := map[types.Object]bool{}
	for _, p := range l.pkgs {
		if !p.module {
			continue
		}
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			if d := decls[obj]; d != nil && !d.owns(id.Pos()) {
				used[obj] = true
			}
		}
	}
	byName := interfaceMethods(l)
	declared = map[string]bool{}
	for obj, d := range decls {
		declared[d.name] = true
		if used[obj] || satisfiesInterface(obj, byName) {
			continue
		}
		unused = append(unused, d.name)
	}
	sort.Strings(unused)
	return unused, declared, nil
}

// decl is one package-level declaration and the source it spans.
type decl struct {
	name string
	// spans are the declaration itself and, for a type, its methods.
	spans []ast.Node
}

func (d *decl) owns(pos token.Pos) bool {
	for _, n := range d.spans {
		if n.Pos() <= pos && pos < n.End() {
			return true
		}
	}
	return false
}

// collect adds every package-level declaration of f to decls.
func collect(f *ast.File, info *types.Info, decls map[types.Object]*decl) {
	add := func(id *ast.Ident, span ast.Node) {
		if id.Name == "_" {
			return
		}
		if obj := info.Defs[id]; obj != nil {
			decls[obj] = &decl{name: qualifiedName(obj), spans: []ast.Node{span}}
		}
	}
	var methods []*ast.FuncDecl
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main") {
				continue
			}
			add(d.Name, d)
			if d.Recv != nil {
				methods = append(methods, d)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					add(s.Name, s)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id, s)
					}
				}
			}
		}
	}
	// A type's own methods are part of its declaration. Methods may sit in
	// another file of the package than their type, so they are attached
	// through the receiver's object rather than by position.
	for _, m := range methods {
		recv := info.Defs[m.Name].(*types.Func).Type().(*types.Signature).Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if named, ok := recv.(*types.Named); ok {
			if d := decls[named.Origin().Obj()]; d != nil {
				d.spans = append(d.spans, m)
			}
		}
	}
}

// origin maps a use of an instantiated generic function or method to the
// declaration it instantiates.
func origin(obj types.Object) types.Object {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin()
	}
	return obj
}

// qualifiedName prints obj as pprof does: pkgpath.Name, pkgpath.T.M for a
// value-receiver method, pkgpath.(*T).M for a pointer-receiver one.
func qualifiedName(obj types.Object) string {
	path := obj.Pkg().Path()
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return path + "." + obj.Name()
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		return fmt.Sprintf("%s.(*%s).%s", path, ptr.Elem().(*types.Named).Obj().Name(), obj.Name())
	}
	return fmt.Sprintf("%s.%s.%s", path, recv.(*types.Named).Obj().Name(), obj.Name())
}

// interfaceMethods indexes every non-generic interface declared in a
// loaded package — a named one or a literal anywhere in its files — and
// the predeclared error by the names of their methods.
func interfaceMethods(l *loader) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || seen[iface] || iface.NumMethods() == 0 {
			return
		}
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return
		}
		seen[iface] = true
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			byName[name] = append(byName[name], iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, p := range l.pkgs {
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for expr, tv := range p.info.Types {
			if _, ok := expr.(*ast.InterfaceType); ok && tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return byName
}

// satisfiesInterface reports whether obj is a method that its receiver
// type, as T or as *T, lends to an interface of the same method name.
func satisfiesInterface(obj types.Object, byName map[string][]*types.Interface) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.TypeParams().Len() > 0 {
		return false
	}
	for _, iface := range byName[fn.Name()] {
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// readAllow reads the allowlist: one "name reason" per line; blank lines
// and lines starting with # are skipped.
func readAllow(path string) (map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if reason = strings.TrimSpace(reason); reason == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", path, n, name)
		}
		if _, dup := allow[name]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, n, name)
		}
		allow[name] = reason
	}
	return allow, sc.Err()
}

// check returns one line per problem: a listed name the allowlist lacks,
// and an allowlist name that is no longer listed or no longer declared.
func check(unused []string, declared map[string]bool, allow map[string]string) []string {
	var problems []string
	listed := map[string]bool{}
	for _, name := range unused {
		listed[name] = true
		if _, ok := allow[name]; !ok {
			problems = append(problems, name+": no non-test caller in either module; delete it, move it into the _test.go file that uses it, or allowlist it with a reason")
		}
	}
	var stale []string
	for name := range allow {
		switch {
		case !declared[name]:
			stale = append(stale, name+": allowlisted but no longer declared under internal/; drop its line")
		case !listed[name]:
			stale = append(stale, name+": allowlisted but has a non-test caller now; drop its line")
		}
	}
	sort.Strings(stale)
	return append(problems, stale...)
}

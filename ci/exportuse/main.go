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
// Struct fields are not scanned as names: encoding/json reads them. The
// fields of lightd's configuration are scanned as settings instead. The
// tree is server.Config, cluster.Config, store.Config and mapmatch.Config
// with every struct of internal/ they hold, and a setting is one of its
// leaf fields. The run lists each setting that no non-test file of either
// module writes outside its own package's Default*, Validate and
// withDefaults functions: a value nothing sets is a constant. A write is
// a field key of a composite literal (or a place in an unkeyed one), the
// field on the left of an assignment — nested, compound or one of a
// tuple — an increment, a range variable or a taken address; a read is
// not.
//
// The run fails on every listed name missing from ci/exportuse/allow.txt,
// and on every line of that file whose name is no longer listed, so the
// file cannot go stale. A line is "name reason", name as printed here:
// pkgpath.Name for a func, type, const or var, pkgpath.T.M or
// pkgpath.(*T).M for a method, pkgpath.T.F for a setting.
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

// settingRoots are the configuration types lightd builds; every leaf field
// under them is a setting.
var settingRoots = []string{
	"taxilight/internal/server.Config",
	"taxilight/internal/cluster.Config",
	"taxilight/internal/store.Config",
	"taxilight/internal/mapmatch.Config",
}

func main() {
	r, err := scan(".", "bench", settingRoots...)
	if err != nil {
		fail(err)
	}
	allow, err := readAllow(allowPath)
	if err != nil {
		fail(err)
	}
	if problems := check(r, allow); len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		os.Exit(1)
	}
	fmt.Printf("exportuse: %d names under internal/, %d without a non-test caller; %d settings, %d without a non-test setter; all allowlisted\n",
		len(r.declared), len(r.unused), len(r.settings), len(r.unset))
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

// report is what a scan finds.
type report struct {
	// declared is every name declared under internal/, and unused, sorted,
	// those that no non-test file refers to.
	declared map[string]bool
	unused   []string
	// settings is every leaf field of the setting roots, and unset, sorted,
	// those that no non-test file writes.
	settings map[string]bool
	unset    []string
}

// scan type-checks the module at root and the module at root/second and
// reports the names declared under root/internal that no non-test file of
// either refers to, and the settings under roots, each "pkgpath.Type",
// that none of them writes.
func scan(root, second string, roots ...string) (*report, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	l := &loader{fset: token.NewFileSet(), pkgs: map[string]*loaded{}}
	internal := map[string]bool{} // import paths of the packages under root/internal
	for _, dir := range []string{root, filepath.Join(root, second)} {
		pkgs, err := goList(dir)
		if err != nil {
			return nil, err
		}
		for _, p := range pkgs {
			module := !p.Standard
			if err := l.load(p, module); err != nil {
				return nil, err
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
	r := &report{declared: map[string]bool{}, settings: map[string]bool{}}
	for obj, d := range decls {
		r.declared[d.name] = true
		if used[obj] || satisfiesInterface(obj, byName) {
			continue
		}
		r.unused = append(r.unused, d.name)
	}
	sort.Strings(r.unused)

	leaves := map[*types.Var]string{}
	for _, name := range roots {
		var root types.Object
		if i := strings.LastIndex(name, "."); i > 0 && l.pkgs[name[:i]] != nil {
			root = l.pkgs[name[:i]].pkg.Scope().Lookup(name[i+1:])
		}
		if root == nil {
			return nil, fmt.Errorf("setting root %s is not declared", name)
		}
		settingLeaves(root.Type(), internal, leaves)
	}
	written := map[*types.Var]bool{}
	for _, p := range l.pkgs {
		if p.module {
			for _, f := range p.files {
				markWrites(f, p.pkg, p.info, written)
			}
		}
	}
	for v, name := range leaves {
		r.settings[name] = true
		if !written[v] {
			r.unset = append(r.unset, name)
		}
	}
	sort.Strings(r.unset)
	return r, nil
}

// settingLeaves adds to leaves every exported leaf field under the struct
// type t: a field whose type is a struct declared in a package of internal
// is a node of the tree, any other field a leaf. An unexported field is
// its package's own state, set through its methods.
func settingLeaves(t types.Type, internal map[string]bool, leaves map[*types.Var]string) {
	named, ok := t.(*types.Named)
	if !ok {
		return
	}
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if !f.Exported() {
			continue
		}
		if ft, ok := f.Type().(*types.Named); ok && ft.Obj().Pkg() != nil && internal[ft.Obj().Pkg().Path()] {
			if _, isStruct := ft.Underlying().(*types.Struct); isStruct {
				settingLeaves(ft, internal, leaves)
				continue
			}
		}
		leaves[f] = named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + f.Name()
	}
}

// markWrites adds to written every struct field that f writes, leaving out
// the writes of pkg's own Default*, Validate and withDefaults functions to
// pkg's own fields: those fill in defaults and check them.
func markWrites(f *ast.File, pkg *types.Package, info *types.Info, written map[*types.Var]bool) {
	var defaulter bool
	field := func(e ast.Expr) *types.Var {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		if v, ok := info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
			return v
		}
		return nil
	}
	mark := func(v *types.Var) {
		if v != nil && !(defaulter && v.Pkg() == pkg) {
			written[v] = true
		}
	}
	visit := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				mark(field(lhs))
			}
		case *ast.IncDecStmt:
			mark(field(n.X))
		case *ast.RangeStmt:
			if n.Tok == token.ASSIGN {
				for _, e := range []ast.Expr{n.Key, n.Value} {
					if e != nil {
						mark(field(e))
					}
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				mark(field(n.X))
			}
		case *ast.CompositeLit:
			t := info.Types[n].Type
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
			}
			st, ok := t.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
							mark(v)
						}
					}
				} else {
					mark(st.Field(i)) // an unkeyed literal lists every field in order
				}
			}
		}
		return true
	}
	for _, d := range f.Decls {
		defaulter = false
		if fd, ok := d.(*ast.FuncDecl); ok {
			name := fd.Name.Name
			defaulter = strings.HasPrefix(name, "Default") || name == "Validate" || name == "withDefaults"
		}
		ast.Inspect(d, visit)
	}
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

// check returns one line per problem: a listed name or setting the
// allowlist lacks, and an allowlist line whose name or setting is no
// longer listed or no longer declared.
func check(r *report, allow map[string]string) []string {
	var problems []string
	listed := map[string]bool{}
	for _, name := range r.unused {
		listed[name] = true
		if _, ok := allow[name]; !ok {
			problems = append(problems, name+": no non-test caller in either module; delete it, move it into the _test.go file that uses it, or allowlist it with a reason")
		}
	}
	for _, name := range r.unset {
		listed[name] = true
		if _, ok := allow[name]; !ok {
			problems = append(problems, name+": a setting no non-test file sets; make it a constant, or allowlist it with what holds it")
		}
	}
	var stale []string
	for name := range allow {
		switch {
		case !r.declared[name] && !r.settings[name]:
			stale = append(stale, name+": allowlisted but no longer declared under internal/; drop its line")
		case !listed[name] && r.settings[name]:
			stale = append(stale, name+": allowlisted but has a non-test setter now; drop its line")
		case !listed[name]:
			stale = append(stale, name+": allowlisted but has a non-test caller now; drop its line")
		}
	}
	sort.Strings(stale)
	return append(problems, stale...)
}

// The dead-code check. Every function and method with a body in a
// non-test internal/ file must be linked into a shipped binary (a package
// main of the module), and every exported type, var and const there must
// be referenced by non-test code. Code that only tests reach is a second
// API kept for the tests; delete it, move it into the test that needs it,
// or list it in exportAllow with the reason it stays.
package seaice_test

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllow names the code that only tests use on purpose, one line per
// package: "dir Name...: reason". A Name is a top-level identifier or a
// method as Type.Method. An entry that names something shipped code now
// uses, or that no longer exists, fails the check.
const exportAllow = `
internal/tensor MatMulRef MatMulATBRef MatMulABTRef Im2ColRef Col2ImRef: the serial definitions the tensor and nn conformance tests hold every engine kernel to
internal/tensor SelectFloat SelectInt8 Int8BackendNames: tests in nn, unet, ddp and the root switch the process-global backend tables to run each backend
internal/tensor floatRegistry.sel int8BackendNamesLocked: the lookup behind SelectFloat, and the name list behind SelectInt8's error and Int8BackendNames
internal/tensor PrecisionTolerance Convert NewRequant RequantClamp: the nn, unet and root tests compare float32 against float64, and the int8 kernels against their float definition, with these
internal/tensor Requant.Apply: the scalar multiply-and-shift inside RequantClamp, the definition the lane kernels are held to
internal/dataset Build: the batch reference the streaming pipeline is held to (pipeline, core and root tests)
internal/autolabel segment merge: the two-step reference (three HSV masks, then a brightest-first merge) the autolabel tests hold the fused Label path to
internal/colorspace ToHSV InRange: the per-pixel HSV reference the autolabel and scene tests check the fused label path and the generator's colours against
internal/colorspace InRangeRows: the row form behind InRange and segment
`

// TestExportsHaveShippedCallers runs the check over this module.
func TestExportsHaveShippedCallers(t *testing.T) {
	allow, err := parseExportAllow(exportAllow)
	if err != nil {
		t.Fatal(err)
	}
	report, err := scanExports(".", t.TempDir(), allow)
	if err != nil {
		t.Fatal(err)
	}
	if len(report) > 0 {
		t.Fatalf("code without a shipped caller:\n\t%s", strings.Join(report, "\n\t"))
	}
}

// TestExportsScannerFixture pins the scanner's report on a small module
// that breaks each rule once.
func TestExportsScannerFixture(t *testing.T) {
	root := filepath.Join("testdata", "exports")
	text, err := os.ReadFile(filepath.Join(root, "allow.txt"))
	if err != nil {
		t.Fatal(err)
	}
	allow, err := parseExportAllow(string(text))
	if err != nil {
		t.Fatal(err)
	}
	got, err := scanExports(root, t.TempDir(), allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"allow-list: internal/used.Gone is not declared",
		"allow-list: internal/used.Used is linked into a shipped binary",
		"internal/orphan: no non-test file outside the package imports it",
		"internal/used.Planted: func linked into no shipped binary",
		"internal/used.Receiver.Value: func linked into no shipped binary",
		"internal/used.Receiver: exported type with no non-test reference",
		"internal/used.unlinked: func linked into no shipped binary",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("report:\n\t%s\nwant:\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// exportKey names a declaration by its package directory (module-relative,
// slash-separated) and name: Name for a top-level identifier, Type.Method
// for a method.
type exportKey struct{ dir, name string }

func (k exportKey) String() string { return k.dir + "." + k.name }

// parseExportAllow reads "dir Name...: reason" lines; blank lines are
// skipped and every entry needs a reason.
func parseExportAllow(text string) (map[exportKey]bool, error) {
	allow := map[exportKey]bool{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		names, reason, ok := strings.Cut(line, ":")
		fields := strings.Fields(names)
		if !ok || strings.TrimSpace(reason) == "" || len(fields) < 2 {
			return nil, fmt.Errorf("allow-list line %q: want \"dir Name...: reason\"", line)
		}
		for _, name := range fields[1:] {
			allow[exportKey{fields[0], name}] = true
		}
	}
	return allow, sc.Err()
}

// scanExports parses every non-test .go file of the module at root that
// the host's build would compile, builds every package main of it into
// binDir, and reports, sorted:
//   - each internal/ package that no non-test file outside it imports;
//   - each func or method with a body in such a package that no built
//     binary links, unless allow names it;
//   - each exported top-level type, var or const there that no non-test
//     file references, unless allow names it. The identifier's own
//     declaration and method receivers are not references;
//   - each allow entry that names something linked, referenced or
//     undeclared.
//
// Funcs are judged by the linker because a reference in source does not
// make a method or helper reachable; consts have no symbol, so types,
// vars and consts are judged by references.
func scanExports(root, binDir string, allow map[exportKey]bool) ([]string, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	var module string
	for _, line := range strings.Split(string(mod), "\n") {
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			module = strings.TrimSpace(rest)
		}
	}
	if module == "" {
		return nil, fmt.Errorf("%s/go.mod names no module", root)
	}

	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // module-relative dir → non-test files
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(p), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		files[rel] = append(files[rel], f)
		return nil
	})
	if err != nil {
		return nil, err
	}

	decls := map[exportKey]string{} // → kind
	refs := map[exportKey]bool{}
	importers := map[string]map[string]bool{} // dir → importing dirs
	var mains []string
	for dir, dirFiles := range files {
		if dirFiles[0].Name.Name == "main" {
			mains = append(mains, "./"+dir)
		}
		for _, f := range dirFiles {
			imports := map[string]string{} // local name → module-relative dir
			for _, spec := range f.Imports {
				p, _ := strconv.Unquote(spec.Path.Value)
				target, ok := strings.CutPrefix(p, module+"/")
				if !ok {
					continue
				}
				if importers[target] == nil {
					importers[target] = map[string]bool{}
				}
				importers[target][dir] = true
				local := path.Base(target)
				if len(files[target]) > 0 {
					local = files[target][0].Name.Name
				}
				if spec.Name != nil {
					local = spec.Name.Name
				}
				imports[local] = target
			}
			if strings.HasPrefix(dir, "internal/") {
				collectDecls(f, dir, decls)
			}
			collectRefs(f, dir, imports, refs)
		}
	}
	linked, err := linkedFuncs(root, binDir, module, mains)
	if err != nil {
		return nil, err
	}

	var report []string
	orphan := map[string]bool{}
	for dir := range files {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		outside := false
		for from := range importers[dir] {
			outside = outside || from != dir
		}
		if !outside {
			orphan[dir] = true
			report = append(report, dir+": no non-test file outside the package imports it")
		}
	}
	for k, kind := range decls {
		switch {
		case orphan[k.dir] || allow[k]:
		case kind == "func" && !linked[k]:
			report = append(report, fmt.Sprintf("%s: func linked into no shipped binary", k))
		case kind != "func" && !refs[k]:
			report = append(report, fmt.Sprintf("%s: exported %s with no non-test reference", k, kind))
		}
	}
	for k := range allow {
		switch kind := decls[k]; {
		case kind == "":
			report = append(report, fmt.Sprintf("allow-list: %s is not declared", k))
		case kind == "func" && linked[k]:
			report = append(report, fmt.Sprintf("allow-list: %s is linked into a shipped binary", k))
		case kind != "func" && refs[k]:
			report = append(report, fmt.Sprintf("allow-list: %s is referenced by non-test code", k))
		}
	}
	sort.Strings(report)
	return report, nil
}

// collectDecls records f's funcs and methods with a body, and its exported
// top-level types, vars and consts.
func collectDecls(f *ast.File, dir string, decls map[exportKey]string) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Body != nil {
				decls[exportKey{dir, funcName(d)}] = "func"
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						decls[exportKey{dir, s.Name.Name}] = "type"
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							decls[exportKey{dir, n.Name}] = d.Tok.String()
						}
					}
				}
			}
		}
	}
}

// funcName is Name for a func and Type.Name for a method, with the
// receiver's pointer and type parameters dropped.
func funcName(d *ast.FuncDecl) string {
	if d.Recv == nil {
		return d.Name.Name
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	switch g := t.(type) {
	case *ast.IndexExpr:
		t = g.X
	case *ast.IndexListExpr:
		t = g.X
	}
	return t.(*ast.Ident).Name + "." + d.Name.Name
}

// linkedFuncs builds mains into binDir without inlining, so every call
// that survives the linker's dead-code pass keeps its callee's symbol, and
// returns the internal/ funcs and methods named by the binaries' text
// symbols. A symbol folds onto its declaration: type arguments and
// generic shapes "[...]", the pointer of "(*T)", closures ".funcN",
// ".gowrapN" and ".deferwrapN", and method-value wrappers "-fm".
func linkedFuncs(root, binDir, module string, mains []string) (map[exportKey]bool, error) {
	if len(mains) == 0 {
		return nil, fmt.Errorf("%s: no package main", root)
	}
	sort.Strings(mains)
	goBuild := exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-o", binDir + string(filepath.Separator)}, mains...)...)
	goBuild.Dir = root
	if out, err := goBuild.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("go build %s: %v\n%s", strings.Join(mains, " "), err, out)
	}
	bins, err := filepath.Glob(filepath.Join(binDir, "*"))
	if err != nil {
		return nil, err
	}
	nm := exec.Command("go", append([]string{"tool", "nm"}, bins...)...)
	var stderr bytes.Buffer
	nm.Stderr = &stderr
	out, err := nm.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool nm: %v\n%s", err, stderr.Bytes())
	}
	prefix := module + "/internal/"
	linked := map[exportKey]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		_, sym, ok := strings.Cut(line, " T ")
		if !ok {
			_, sym, ok = strings.Cut(line, " t ")
		}
		sym, ok = strings.CutPrefix(sym, prefix)
		if !ok {
			continue
		}
		sym = dropBrackets(sym)
		sym = strings.TrimSuffix(sym, "-fm")
		sym = strings.NewReplacer("(*", "", ")", "").Replace(sym)
		// internal/pkg.Name, internal/pkg.Type.Method or a closure inside
		// one of them: mark every dotted prefix, since only a declared
		// func can match.
		dir, rest, _ := strings.Cut(sym, ".")
		parts := strings.Split(rest, ".")
		for i := range parts {
			linked[exportKey{"internal/" + dir, strings.Join(parts[:i+1], ".")}] = true
		}
	}
	return linked, nil
}

// dropBrackets removes every bracketed type-argument list, nested ones
// included.
func dropBrackets(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// collectRefs records the exported identifiers f refers to: a bare Name
// in its own package, pkg.Name through an import of the module. Inside a
// type or value declaration the declared names themselves do not count,
// so a self-referencing type is not its own user.
func collectRefs(f *ast.File, dir string, imports map[string]string, refs map[exportKey]bool) {
	var self map[string]bool
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if target, ok := imports[x.Name]; ok {
					refs[exportKey{target, n.Sel.Name}] = true
					return false
				}
			}
			ast.Inspect(n.X, visit) // Sel is a field or method name
			return false
		case *ast.Field:
			ast.Inspect(n.Type, visit) // Names are fields or parameters
			return false
		case *ast.Ident:
			if n.IsExported() && !self[n.Name] {
				refs[exportKey{dir, n.Name}] = true
			}
		}
		return true
	}
	for _, d := range f.Decls {
		self = map[string]bool{}
		switch d := d.(type) {
		case *ast.FuncDecl:
			// The name and receiver are declarations, not references.
			ast.Inspect(d.Type, visit)
			if d.Body != nil {
				ast.Inspect(d.Body, visit)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				self = map[string]bool{}
				switch s := spec.(type) {
				case *ast.TypeSpec:
					self[s.Name.Name] = true
					if s.TypeParams != nil {
						ast.Inspect(s.TypeParams, visit)
					}
					ast.Inspect(s.Type, visit)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						self[n.Name] = true
					}
					if s.Type != nil {
						ast.Inspect(s.Type, visit)
					}
					for _, v := range s.Values {
						ast.Inspect(v, visit)
					}
				}
			}
		}
	}
}

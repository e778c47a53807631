// The exported-API check: an exported identifier in internal/ is surface
// the shipped binaries are meant to use, so each one needs a caller in
// non-test code. An export that only tests reach is a second API kept for
// the tests; delete it, unexport it, or list it in exportAllow with the
// reason it stays.
package seaice_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllow names the exports that only tests use on purpose, one line
// per package: "dir Name...: reason". An entry that names something
// non-test code now uses, or that no longer exists, fails the check.
const exportAllow = `
internal/tensor MatMulRef MatMulATBRef MatMulABTRef Im2ColRef Col2ImRef: the serial definitions the tensor and nn conformance tests hold every engine kernel to
internal/tensor SelectFloat SelectInt8 Int8BackendNames: tests in nn, unet, ddp and the root switch the process-global backend tables to run each backend
internal/tensor PrecisionTolerance Convert NewRequant RequantClamp: the nn, unet and root tests compare float32 against float64, and the int8 kernels against their float definition, with these
internal/dataset Build: the batch reference the streaming pipeline is held to (pipeline, core and root tests)
internal/colorspace ToHSV InRange: the per-pixel HSV reference the autolabel and scene tests check the fused label path and the generator's colours against
`

// TestExportsHaveShippedCallers runs the check over this module.
func TestExportsHaveShippedCallers(t *testing.T) {
	allow, err := parseExportAllow(exportAllow)
	if err != nil {
		t.Fatal(err)
	}
	report, err := scanExports(".", allow)
	if err != nil {
		t.Fatal(err)
	}
	if len(report) > 0 {
		t.Fatalf("exports without a shipped caller:\n\t%s", strings.Join(report, "\n\t"))
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
	got, err := scanExports(root, allow)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"allow-list: internal/used.Gone is not an exported top-level identifier",
		"allow-list: internal/used.Used is referenced by non-test code",
		"internal/orphan: no non-test file outside the package imports it",
		"internal/used.Planted: exported func with no non-test reference",
		"internal/used.Receiver: exported type with no non-test reference",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("report:\n\t%s\nwant:\n\t%s", strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
	}
}

// exportKey names an exported identifier by its package directory
// (module-relative, slash-separated) and name.
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

// scanExports parses every non-test .go file of the module at root and
// reports, sorted:
//   - each internal/ package that no non-test file outside it imports;
//   - each exported top-level func, type, var or const in a non-test
//     file under internal/ that no non-test file references, unless
//     allow names it. The identifier's own declaration and method
//     receivers are not references;
//   - each allow entry that names a referenced or missing identifier.
//
// Methods are out of scope: interfaces make their callers hard to judge.
func scanExports(root string, allow map[exportKey]bool) ([]string, error) {
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
	for dir, dirFiles := range files {
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
				collectExports(f, dir, decls)
			}
			collectRefs(f, dir, imports, refs)
		}
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
		if !orphan[k.dir] && !refs[k] && !allow[k] {
			report = append(report, fmt.Sprintf("%s: exported %s with no non-test reference", k, kind))
		}
	}
	for k := range allow {
		switch {
		case decls[k] == "":
			report = append(report, fmt.Sprintf("allow-list: %s is not an exported top-level identifier", k))
		case refs[k]:
			report = append(report, fmt.Sprintf("allow-list: %s is referenced by non-test code", k))
		}
	}
	sort.Strings(report)
	return report, nil
}

// collectExports records f's exported top-level funcs, types, vars and
// consts.
func collectExports(f *ast.File, dir string, decls map[exportKey]string) {
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				decls[exportKey{dir, d.Name.Name}] = "func"
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

// collectRefs records the exported identifiers f refers to: a bare Name
// in its own package, pkg.Name through an import of the module. Inside a
// top-level declaration the declared names themselves do not count, so a
// recursive func or a self-referencing type is not its own caller.
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
			if d.Recv == nil {
				self[d.Name.Name] = true
			}
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

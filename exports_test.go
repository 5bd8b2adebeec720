package herqules

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions and methods that may stand in
// a non-test file with no non-test caller, each with the reason it stays.
// Keys are "dir.Func" or "dir.Type.Method", dir being the declaring file's
// directory relative to the module root ("herqules" for the root package).
var exportAllowlist = map[string]string{
	// The root package is the module's public API, called by the programs
	// that import herqules rather than by the module itself.
	"herqules.DefaultCostModel":    facade,
	"herqules.NewMetrics":          facade,
	"herqules.VTableTypeOf":        facade,
	"herqules.WithArgs":            facade,
	"herqules.WithChannelKind":     facade,
	"herqules.WithCheckSeq":        facade,
	"herqules.WithContinueChecks":  facade,
	"herqules.WithCost":            facade,
	"herqules.WithDegradedPolicy":  facade,
	"herqules.WithFlightRecorder":  facade,
	"herqules.WithMaxInstructions": facade,
	"herqules.WithMetrics":         facade,
	"herqules.WithPolicies":        facade,
	"herqules.WithPolicyFactory":   facade,
	"herqules.WithSeed":            facade,

	// Methods the standard library calls through an interface.
	"internal/chaos.Counts.MarshalJSON":       "encoding/json calls it as a json.Marshaler (SoakReport's -out file)",
	"internal/chaos.Counts.UnmarshalJSON":     "encoding/json calls it as a json.Unmarshaler, so a SoakReport written by -out reads back",
	"internal/supervisor.Stats.MarshalJSON":   "encoding/json calls it as a json.Marshaler (System.Stats on /procs)",
	"internal/ipc.ProcessError.Unwrap":        "errors.Is and errors.As call it to reach the wrapped cause",
	"internal/ipc.TruncatedFrameError.Unwrap": "errors.Is calls it to match ErrIntegrity",

	// Known debt: no production caller, and the method is its test's only
	// subject, so it goes together with that test.
	"internal/mem.Allocator.Contains": "debt: only TestContains calls it",
	"internal/mir.Type.Equal":         "debt: only TestTypeEqual calls it",
}

const facade = "the root package's public API"

// TestNoTestOnlyExports holds production files to what production runs: it
// fails on an exported function or method that no non-test file names outside
// its own declaration, unless exportAllowlist names it. It matches names, not
// types: comments, strings and a selector on a package from outside the
// module (strings.Contains) do not count, bench/ counts as a caller, and a
// main package's exports are not checked. A helper only tests call belongs in
// a _test.go file of its package.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		key, name string
		pos       token.Position
	}
	var decls []decl
	uses := map[string]int{}
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if file != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		if dir == "." {
			dir = "herqules"
		}
		// A selector on a package from outside the module (strings.Contains,
		// bytes.Equal) names that package's function, not one of ours.
		outside := map[string]bool{}
		for _, im := range f.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); p != "herqules" && !strings.HasPrefix(p, "herqules/") {
				name := path.Base(p)
				if im.Name != nil {
					name = im.Name.Name
				}
				outside[name] = true
			}
		}
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || f.Name.Name == "main" {
				continue
			}
			key := dir + "." + fn.Name.Name
			if fn.Recv != nil {
				key = dir + "." + recvType(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == fn.Name.Name {
					declared[id] = true // its name, or a recursive call
				}
				return true
			})
			decls = append(decls, decl{key, fn.Name.Name, fset.Position(fn.Pos())})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if pkg, ok := x.X.(*ast.Ident); ok && outside[pkg.Name] {
					return false
				}
			case *ast.Ident:
				if !declared[x] {
					uses[x.Name]++
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported functions: is the test running at the module root?")
	}

	var unused []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		if uses[d.name] > 0 {
			continue
		}
		if _, ok := exportAllowlist[d.key]; ok {
			continue
		}
		unused = append(unused, d.pos.String()+": "+d.key)
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is named by no non-test file: delete it, move it into a _test.go file, or allowlist it with a reason", u)
	}
	for key, reason := range exportAllowlist {
		if !seen[key] {
			t.Errorf("allowlisted %s is no longer declared", key)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("allowlisted %s has no reason", key)
		}
	}
}

// recvType names a method receiver's type, without pointer or type
// parameters.
func recvType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}

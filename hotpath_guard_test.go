package kerberos

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allocGuards is the authoritative map from //kerb:hotpath-annotated
// function to the AllocsPerRun test that enforces its allocation budget.
// The kervet hotpath analyzer keeps annotated bodies free of fmt, map
// allocation, escaping closures, and map iteration; this test keeps the
// annotation set and the guard set identical, so neither can drift: a
// new annotation without a guard fails here, and a guarded function
// missing its annotation escapes static checking and also fails here.
var allocGuards = map[string]struct{ testFile, testName string }{
	"internal/des.(*Cipher).Seal":                {"internal/des/seal_test.go", "TestSealAllocs"},
	"internal/des.Seal":                          {"internal/des/seal_test.go", "TestSealAllocs"},
	"internal/des.(*Cipher).Unseal":              {"internal/des/seal_test.go", "TestUnsealAllocs"},
	"internal/des.Unseal":                        {"internal/des/seal_test.go", "TestUnsealAllocs"},
	"internal/des.(*Cipher).SetKey":              {"internal/des/des_test.go", "TestExpandKeyAllocs"},
	"internal/des.SealBatch":                     {"internal/des/batch_test.go", "TestSealBatchAllocs"},
	"internal/des.UnsealBatch":                   {"internal/des/batch_test.go", "TestUnsealBatchAllocs"},
	"internal/kdb.(*Database).Key":               {"internal/kdb/keycache_test.go", "TestKeyCacheHit"},
	"internal/kdb.(*Database).GetRO":             {"internal/kdb/epoch_test.go", "TestGetROAllocs"},
	"internal/kdb.(*EpochStore).FetchSharedPair": {"internal/kdb/epoch_test.go", "TestGetROAllocs"},
	"internal/kdc.(*Server).HandleBatch":         {"internal/kdc/batch_test.go", "TestHandleBatchAllocs"},
	"internal/kdc.(*Server).handleBatch":         {"internal/kdc/batch_test.go", "TestHandleBatchAllocs"},
	"internal/replay.(*Cache).Seen":              {"internal/replay/replay_test.go", "TestSeenReplayCheckAllocs"},
	"internal/obs.(*Counter).Inc":                {"internal/obs/metrics_test.go", "TestHotPathAllocs"},
	"internal/obs.(*Counter).Add":                {"internal/obs/metrics_test.go", "TestHotPathAllocs"},
	"internal/obs.(*Gauge).Set":                  {"internal/obs/metrics_test.go", "TestHotPathAllocs"},
	"internal/obs.(*Histogram).Observe":          {"internal/obs/metrics_test.go", "TestHotPathAllocs"},
	"internal/obs.(*SizeHistogram).Observe":      {"internal/obs/metrics_test.go", "TestHotPathAllocs"},
	"internal/sim.(*Engine).Run":                 {"internal/sim/engine_test.go", "TestEngineRunAllocs"},
}

func TestHotpathAnnotationsMatchAllocGuards(t *testing.T) {
	annotated := collectHotpathFuncs(t)

	var missingGuard, missingAnnotation []string
	for fn := range annotated {
		if _, ok := allocGuards[fn]; !ok {
			missingGuard = append(missingGuard, fn)
		}
	}
	for fn := range allocGuards {
		if !annotated[fn] {
			missingAnnotation = append(missingAnnotation, fn)
		}
	}
	sort.Strings(missingGuard)
	sort.Strings(missingAnnotation)
	for _, fn := range missingGuard {
		t.Errorf("%s is //kerb:hotpath but has no AllocsPerRun guard registered in allocGuards", fn)
	}
	for _, fn := range missingAnnotation {
		t.Errorf("%s has an AllocsPerRun guard but is missing the //kerb:hotpath annotation", fn)
	}
}

func TestHotpathGuardTestsExist(t *testing.T) {
	for fn, guard := range allocGuards {
		src, err := os.ReadFile(guard.testFile)
		if err != nil {
			t.Errorf("%s: guard test file %s: %v", fn, guard.testFile, err)
			continue
		}
		text := string(src)
		if !strings.Contains(text, "func "+guard.testName+"(") {
			t.Errorf("%s: %s does not define %s", fn, guard.testFile, guard.testName)
		}
		if !strings.Contains(text, "AllocsPerRun") {
			t.Errorf("%s: %s does not call testing.AllocsPerRun", fn, guard.testFile)
		}
	}
}

// collectHotpathFuncs parses every non-test source file in the module
// and returns the //kerb:hotpath-annotated functions as
// "<pkg dir>.(<recv>).<name>" keys.
func collectHotpathFuncs(t *testing.T) map[string]bool {
	t.Helper()
	found := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			for _, c := range fd.Doc.List {
				if strings.TrimSpace(c.Text) == "//kerb:hotpath" {
					found[funcKey(filepath.Dir(path), fd)] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}

func funcKey(dir string, fd *ast.FuncDecl) string {
	key := filepath.ToSlash(dir) + "."
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		switch rt := fd.Recv.List[0].Type.(type) {
		case *ast.StarExpr:
			if id, ok := rt.X.(*ast.Ident); ok {
				key += "(*" + id.Name + ")."
			}
		case *ast.Ident:
			key += "(" + rt.Name + ")."
		}
	}
	return key + fd.Name.Name
}

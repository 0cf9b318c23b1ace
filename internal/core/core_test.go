package core_test

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pdt/internal/core"
	"pdt/internal/cpp/stdlib"
)

func TestCompileFileFromDisk(t *testing.T) {
	dir := t.TempDir()
	hdr := filepath.Join(dir, "lib.h")
	mainPath := filepath.Join(dir, "main.cpp")
	os.WriteFile(hdr, []byte("int helper();\n"), 0o644)
	os.WriteFile(mainPath, []byte("#include \"lib.h\"\nint main() { return helper(); }\n"), 0o644)

	opts := core.Options{}
	fs := core.NewFileSet(opts)
	res, err := core.CompileFile(fs, mainPath, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.HasErrors() {
		t.Fatalf("diagnostics: %v", res.Diagnostics)
	}
	if len(res.Unit.Files) != 2 {
		t.Errorf("files = %d", len(res.Unit.Files))
	}
	if _, err := core.CompileFile(fs, filepath.Join(dir, "missing.cpp"), opts); err == nil {
		t.Error("missing file should error")
	}
}

func TestIncludePaths(t *testing.T) {
	dir := t.TempDir()
	incDir := filepath.Join(dir, "include")
	os.MkdirAll(incDir, 0o755)
	os.WriteFile(filepath.Join(incDir, "dep.h"), []byte("int fromdep;\n"), 0o644)

	opts := core.Options{IncludePaths: []string{incDir}}
	fs := core.NewFileSet(opts)
	res := core.CompileSource(fs, "main.cpp", "#include \"dep.h\"\nint main() { return fromdep; }\n", opts)
	if res.HasErrors() {
		t.Fatalf("diagnostics: %v", res.Diagnostics)
	}
}

func TestCommandLineDefines(t *testing.T) {
	opts := core.Options{Defines: []string{"FEATURE", "LEVEL=3"}}
	fs := core.NewFileSet(opts)
	res := core.CompileSource(fs, "main.cpp", `
#ifdef FEATURE
int enabled[LEVEL];
#endif
int main() { return 0; }
`, opts)
	if res.HasErrors() {
		t.Fatalf("diagnostics: %v", res.Diagnostics)
	}
	found := false
	for _, v := range res.Unit.Global.Vars {
		if v.Name == "enabled" && v.Type.Unqualified().ArrayLen == 3 {
			found = true
		}
	}
	if !found {
		t.Error("define-controlled declaration missing")
	}
}

func TestDiagnosticStages(t *testing.T) {
	opts := core.Options{}
	fs := core.NewFileSet(opts)
	res := core.CompileSource(fs, "main.cpp", `
#include "nope.h"
class C {
UnknownType x;
int main( { return 0; }
`, opts)
	if !res.HasErrors() {
		t.Fatal("expected diagnostics")
	}
	stages := map[string]bool{}
	for _, d := range res.Diagnostics {
		stages[d.Stage] = true
		if d.Error() == "" {
			t.Error("empty diagnostic string")
		}
	}
	if !stages["lex/pp"] {
		t.Errorf("missing pp diagnostic: %v", res.Diagnostics)
	}
	if !stages["parse"] && !stages["sema"] {
		t.Errorf("missing parse/sema diagnostics: %v", res.Diagnostics)
	}
}

func TestNoStdlib(t *testing.T) {
	opts := core.Options{NoStdlib: true}
	fs := core.NewFileSet(opts)
	res := core.CompileSource(fs, "main.cpp", "#include <vector>\nint main() { return 0; }\n", opts)
	if !res.HasErrors() {
		t.Error("NoStdlib should make <vector> unresolvable")
	}
}

// TestEveryBuiltinHeaderCompiles compiles each built-in header as its
// own translation unit — the headers must be self-contained, like the
// KAI headers the paper ships.
func TestEveryBuiltinHeaderCompiles(t *testing.T) {
	// Every name, aliases included, in a fixed order, so the set of
	// subtests does not depend on map iteration order.
	names := make([]string, 0, len(stdlib.Headers))
	for name := range stdlib.Headers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			opts := core.Options{}
			fs := core.NewFileSet(opts)
			src := "#include <" + name + ">\nint main() { return 0; }\n"
			res := core.CompileSource(fs, "main.cpp", src, opts)
			for _, d := range res.Diagnostics {
				t.Errorf("%s: %v", name, d)
			}
		})
	}
}

func TestStatsPopulated(t *testing.T) {
	opts := core.Options{}
	fs := core.NewFileSet(opts)
	res := core.CompileSource(fs, "main.cpp", `
template <class T> class Box { public: T v; T get() { return v; } };
int main() { Box<int> b; return b.get(); }
`, opts)
	if res.HasErrors() {
		t.Fatal(res.Diagnostics)
	}
	st := res.Stats
	if st.Classes == 0 || st.Routines == 0 || st.ClassInsts != 1 ||
		st.RoutineInsts == 0 || st.Types == 0 || st.BodiesAnalyzed == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMacroRecordsFlowToUnit(t *testing.T) {
	opts := core.Options{}
	fs := core.NewFileSet(opts)
	res := core.CompileSource(fs, "main.cpp", "#define X 1\nint main() { return X; }\n", opts)
	if res.HasErrors() {
		t.Fatal(res.Diagnostics)
	}
	found := false
	for _, m := range res.Unit.Macros {
		if m.Name == "X" {
			found = true
		}
	}
	if !found {
		t.Error("macro records not attached to unit")
	}
}

func TestDiagnosticFormat(t *testing.T) {
	opts := core.Options{}
	fs := core.NewFileSet(opts)
	res := core.CompileSource(fs, "main.cpp", "Unknown x;\n", opts)
	if len(res.Diagnostics) == 0 {
		t.Fatal("expected diagnostics")
	}
	msg := res.Diagnostics[0].Error()
	if !strings.Contains(msg, "main.cpp:1") {
		t.Errorf("diagnostic lacks position: %q", msg)
	}
}

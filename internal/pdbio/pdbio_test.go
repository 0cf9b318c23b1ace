package pdbio_test

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pdt/internal/core"
	"pdt/internal/ductape"
	"pdt/internal/ilanalyzer"
	"pdt/internal/pdb"
	"pdt/internal/pdbio"
	"pdt/internal/workload"
)

// compileUnit turns one translation unit of a virtual file map into a
// DUCTAPE database.
func compileUnit(tb testing.TB, files map[string]string, main string) *ductape.PDB {
	tb.Helper()
	opts := core.Options{}
	fset := core.NewFileSet(opts)
	for name, text := range files {
		if name != main {
			fset.AddVirtualFile(name, text)
		}
	}
	res := core.CompileSource(fset, main, files[main], opts)
	for _, d := range res.Diagnostics {
		tb.Fatalf("compile %s: %v", main, d)
	}
	return ductape.FromRaw(ilanalyzer.Analyze(res.Unit, ilanalyzer.Options{}))
}

// compileDisk compiles a real on-disk translation unit (headers resolve
// relative to it).
func compileDisk(tb testing.TB, path string) *ductape.PDB {
	tb.Helper()
	opts := core.Options{}
	fset := core.NewFileSet(opts)
	res, err := core.CompileFile(fset, path, opts)
	if err != nil {
		tb.Fatalf("compile %s: %v", path, err)
	}
	for _, d := range res.Diagnostics {
		tb.Fatalf("compile %s: %v", path, d)
	}
	return ductape.FromRaw(ilanalyzer.Analyze(res.Unit, ilanalyzer.Options{}))
}

func pdbText(tb testing.TB, db *ductape.PDB) string {
	tb.Helper()
	var sb strings.Builder
	if err := db.Write(&sb); err != nil {
		tb.Fatal(err)
	}
	return sb.String()
}

type corpusEntry struct {
	name string
	db   *ductape.PDB
}

// corpus builds databases from every flavor of testdata the repo has:
// the lint demo TUs on disk, the two golden workloads, and synthetic
// merge units with a shared header.
func corpus(tb testing.TB) []corpusEntry {
	tb.Helper()
	var out []corpusEntry
	for _, tu := range []string{"one.cpp", "two.cpp", "main.cpp"} {
		path := filepath.Join("..", "..", "testdata", "cxx", "lintdemo", tu)
		out = append(out, corpusEntry{"lintdemo/" + tu, compileDisk(tb, path)})
	}
	out = append(out,
		corpusEntry{"krylov", compileUnit(tb, workload.KrylovFiles(), "krylov.cpp")},
		corpusEntry{"stack", compileUnit(tb, workload.StackFiles(), "TestStackAr.cpp")},
	)
	hdr, units := workload.GenMergeUnits(3, 4, 6)
	for i, unit := range units {
		files := map[string]string{"shared.h": hdr, "unit.cpp": unit}
		out = append(out, corpusEntry{
			"merge-unit-" + string(rune('a'+i)),
			compileUnit(tb, files, "unit.cpp"),
		})
	}
	return out
}

// TestReadMatchesSequential: the chunked parallel reader must be
// byte-identical to the sequential reader on every corpus database,
// for any worker count.
func TestReadMatchesSequential(t *testing.T) {
	ctx := context.Background()
	for _, entry := range corpus(t) {
		text := pdbText(t, entry.db)
		seq, err := ductape.Read(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: sequential read: %v", entry.name, err)
		}
		want := pdbText(t, seq)
		for _, workers := range []int{1, 2, 4, 8} {
			got, err := pdbio.Read(ctx, strings.NewReader(text),
				pdbio.WithWorkers(workers))
			if err != nil {
				t.Fatalf("%s workers=%d: %v", entry.name, workers, err)
			}
			if g := pdbText(t, got); g != want {
				t.Errorf("%s workers=%d: parallel read differs from sequential",
					entry.name, workers)
			}
		}
	}
}

// TestReadErrorsMatchSequential: malformed streams must fail with the
// same error text on both paths.
func TestReadErrorsMatchSequential(t *testing.T) {
	ctx := context.Background()
	longLine := "<PDB 1.0>\nso#1 a.h\nro#2 " + strings.Repeat("x", 4096) + "\n"
	cases := []struct {
		name  string
		input string
		limit int
	}{
		{"empty", "", 0},
		{"no-header", "ro#1 orphan\n", 0},
		{"attr-outside-item", "<PDB 1.0>\nrcall ro#1 no so#1 1 1\n", 0},
		{"line-too-long", longLine, 256},
	}
	for _, tc := range cases {
		_, seqErr := pdb.ReadLimit(strings.NewReader(tc.input), tc.limit)
		if seqErr == nil {
			t.Fatalf("%s: sequential read unexpectedly succeeded", tc.name)
		}
		for _, workers := range []int{1, 4} {
			opts := []pdbio.Option{pdbio.WithWorkers(workers)}
			if tc.limit > 0 {
				opts = append(opts, pdbio.WithMaxLineBytes(tc.limit))
			}
			_, err := pdbio.Read(ctx, strings.NewReader(tc.input), opts...)
			if err == nil {
				t.Fatalf("%s workers=%d: parallel read unexpectedly succeeded",
					tc.name, workers)
			}
			if err.Error() != seqErr.Error() {
				t.Errorf("%s workers=%d: error = %q, sequential = %q",
					tc.name, workers, err, seqErr)
			}
		}
	}
}

// TestMergeMatchesSequentialFold: pdbio.Merge must be byte-identical
// to the sequential left-to-right ductape.Merge fold at every input
// and worker count.
func TestMergeMatchesSequentialFold(t *testing.T) {
	ctx := context.Background()
	entries := corpus(t)
	dbs := make([]*ductape.PDB, len(entries))
	for i, e := range entries {
		dbs[i] = e.db
	}
	if len(dbs) < 8 {
		t.Fatalf("corpus has %d databases, want >= 8", len(dbs))
	}
	for _, n := range []int{1, 2, 3, 5, 8} {
		want := pdbText(t, ductape.Merge(dbs[:n]...))
		for _, workers := range []int{1, 4} {
			got, err := pdbio.Merge(ctx, dbs[:n], pdbio.WithWorkers(workers))
			if err != nil {
				t.Fatalf("n=%d workers=%d: %v", n, workers, err)
			}
			if g := pdbText(t, got); g != want {
				t.Errorf("n=%d workers=%d: merge differs from sequential fold",
					n, workers)
			}
		}
	}
}

// TestMergeFilesMatchesSequential drives the whole on-disk pipeline and
// compares it against loading and folding by hand.
func TestMergeFilesMatchesSequential(t *testing.T) {
	ctx := context.Background()
	entries := corpus(t)
	dir := t.TempDir()
	var paths []string
	dbs := make([]*ductape.PDB, 0, len(entries))
	for i, e := range entries {
		path := filepath.Join(dir, "u"+string(rune('0'+i))+".pdb")
		if err := os.WriteFile(path, []byte(pdbText(t, e.db)), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
		seq, err := ductape.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dbs = append(dbs, seq)
	}
	want := pdbText(t, ductape.Merge(dbs...))

	var sb strings.Builder
	if err := pdbio.MergeFiles(ctx, &sb, paths, pdbio.WithWorkers(4)); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Error("MergeFiles output differs from the sequential fold")
	}
}

// TestMergeFilesDeduplicatesOnDisk: both units instantiate Box<int>;
// the on-disk pipeline must collapse the duplicates (the paper's
// duplicate-instantiation elimination) into a database that reads
// back and validates.
func TestMergeFilesDeduplicatesOnDisk(t *testing.T) {
	hdr := "#ifndef S_H\n#define S_H\n" +
		"template <class T> class Box { public: Box() { } T v; int get() { return 1; } };\n" +
		"#endif\n"
	dir := t.TempDir()
	var paths []string
	for _, u := range []string{"u1", "u2"} {
		db := compileUnit(t, map[string]string{"s.h": hdr,
			u + ".cpp": "#include \"s.h\"\nvoid " + u + "() { Box<int> b; b.get(); }\n"}, u+".cpp")
		path := filepath.Join(dir, u+".pdb")
		if err := os.WriteFile(path, []byte(pdbText(t, db)), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	var out strings.Builder
	if err := pdbio.MergeFiles(context.Background(), &out, paths); err != nil {
		t.Fatalf("MergeFiles: %v", err)
	}
	merged, err := ductape.Read(strings.NewReader(out.String()))
	if err != nil {
		t.Fatalf("merged output unreadable: %v", err)
	}
	boxes := 0
	for _, c := range merged.Classes() {
		if c.Name() == "Box<int>" {
			boxes++
		}
	}
	if boxes != 1 {
		t.Errorf("Box<int> appears %d times after merge, want 1", boxes)
	}
	if errs := merged.Raw().Validate(); len(errs) != 0 {
		t.Errorf("merged output invalid: %v", errs[0])
	}
}

// TestMergeFilesErrors: no inputs, a missing input and a malformed
// input all fail the pipeline.
func TestMergeFilesErrors(t *testing.T) {
	ctx := context.Background()
	var out strings.Builder
	if err := pdbio.MergeFiles(ctx, &out, nil); err == nil ||
		!strings.Contains(err.Error(), "no input files") {
		t.Errorf("no-input error = %v", err)
	}
	dir := t.TempDir()
	if err := pdbio.MergeFiles(ctx, &out, []string{filepath.Join(dir, "missing.pdb")}); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.pdb")
	if err := os.WriteFile(bad, []byte("not a pdb"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := pdbio.MergeFiles(ctx, &out, []string{bad}); err == nil {
		t.Error("malformed file accepted")
	}
}

func TestMergeEmpty(t *testing.T) {
	if _, err := pdbio.Merge(context.Background(), nil); err == nil {
		t.Error("merging zero databases should fail")
	}
}

// TestLoadAllKeepGoing: every input is attempted and the aggregated
// error names each failure, %w-wrapped so errors.Is still works.
func TestLoadAllKeepGoing(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	entries := corpus(t)

	good := filepath.Join(dir, "good.pdb")
	if err := os.WriteFile(good, []byte(pdbText(t, entries[0].db)), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.pdb")
	if err := os.WriteFile(bad, []byte("this is not a pdb\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.pdb")

	dbs, err := pdbio.LoadAll(ctx, []string{good, missing, bad})
	if err == nil {
		t.Fatal("LoadAll with bad inputs should fail")
	}
	if dbs != nil {
		t.Errorf("dbs = %v, want nil on error", dbs)
	}
	if !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("error does not wrap fs.ErrNotExist: %v", err)
	}
	msg := err.Error()
	for _, frag := range []string{"missing.pdb", "bad.pdb", "missing <PDB> header"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("error %q does not mention %q", msg, frag)
		}
	}
	if strings.Contains(msg, "good.pdb") {
		t.Errorf("error %q blames the good input", msg)
	}

	// All-good inputs succeed and come back in input order.
	dbs, err = pdbio.LoadAll(ctx, []string{good, good})
	if err != nil {
		t.Fatal(err)
	}
	if len(dbs) != 2 || dbs[0] == nil || dbs[1] == nil {
		t.Fatalf("dbs = %v, want two databases", dbs)
	}
}

// TestLoadStrictValidation: WithStrictValidation rejects files with
// dangling references that the lenient path would accept.
func TestLoadStrictValidation(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()

	dangling := &pdb.PDB{Routines: []*pdb.Routine{{
		ID: 1, Name: "f",
		Signature: pdb.Ref{Prefix: pdb.PrefixType, ID: 42},
	}}}
	var sb strings.Builder
	if err := dangling.Write(&sb); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "dangling.pdb")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	_, err := pdbio.Load(ctx, path, pdbio.WithStrictValidation())
	if err == nil || !strings.Contains(err.Error(), "integrity") {
		t.Errorf("strict load error = %v, want integrity failure", err)
	}

	good := filepath.Join(dir, "good.pdb")
	if err := os.WriteFile(good, []byte(pdbText(t, corpus(t)[0].db)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := pdbio.Load(ctx, good, pdbio.WithStrictValidation()); err != nil {
		t.Errorf("strict load of a valid file failed: %v", err)
	}
}

// TestCanceledContext: a pre-canceled context fails every entry point
// with context.Canceled.
func TestCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	entries := corpus(t)
	text := pdbText(t, entries[0].db)
	dir := t.TempDir()
	path := filepath.Join(dir, "a.pdb")
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		if _, err := pdbio.Read(ctx, strings.NewReader(text),
			pdbio.WithWorkers(workers)); !errors.Is(err, context.Canceled) {
			t.Errorf("Read workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if _, err := pdbio.Load(ctx, path,
			pdbio.WithWorkers(workers)); !errors.Is(err, context.Canceled) {
			t.Errorf("Load workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
	if _, err := pdbio.LoadAll(ctx, []string{path, path}); !errors.Is(err, context.Canceled) {
		t.Errorf("LoadAll: err = %v, want context.Canceled", err)
	}
	dbs := []*ductape.PDB{entries[0].db, entries[1].db}
	if _, err := pdbio.Merge(ctx, dbs); !errors.Is(err, context.Canceled) {
		t.Errorf("Merge: err = %v, want context.Canceled", err)
	}
}

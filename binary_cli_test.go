// Acceptance tests for the binary encoding at the tool boundary:
// pdbconv translates between encodings losslessly, pdbmerge writes
// binary output on request, and a pdbd daemon serving a binary corpus
// answers byte-identically to one serving the ASCII original — same
// bodies, same fingerprints, and the same cache keys, proven by the
// binary daemon hitting the disk cache the ASCII daemon filled.
package pdt_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pdt/internal/obs"
	"pdt/internal/pdbd"
)

func TestPdbconvBinaryTranslation(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	src := workloadPDB(t)
	tmp := t.TempDir()
	binPath := filepath.Join(tmp, "workload.bpdb")
	backPath := filepath.Join(tmp, "back.pdb")

	if _, stderr, err := runTool(t, "pdbconv", "-to=binary", "-o", binPath, src); err != nil {
		t.Fatalf("pdbconv -to=binary: %v\n%s", err, stderr)
	}
	bin, err := os.ReadFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(bin), "PDTB") {
		t.Fatalf("binary output does not start with the PDTB magic: %q", bin[:min(len(bin), 8)])
	}

	if _, stderr, err := runTool(t, "pdbconv", "-to=ascii", "-o", backPath, binPath); err != nil {
		t.Fatalf("pdbconv -to=ascii: %v\n%s", err, stderr)
	}
	orig, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	back, err := os.ReadFile(backPath)
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != string(orig) {
		t.Fatalf("ascii -> binary -> ascii via pdbconv is not byte-identical (%d vs %d bytes)",
			len(back), len(orig))
	}
	if len(bin) >= len(orig) {
		t.Errorf("binary encoding (%d bytes) is not smaller than ascii (%d bytes)", len(bin), len(orig))
	}

	// Every read-only tool must produce identical stdout from either
	// encoding — readers auto-detect, no flags needed.
	tools := []struct {
		tool string
		args []string
	}{
		{"pdbconv", nil},
		{"pdbtree", []string{"-calls"}},
		{"pdblint", []string{"-format=json"}},
		{"pdbquery", []string{"nodes"}},
	}
	for _, tc := range tools {
		var outs [2]string
		for i, path := range []string{src, binPath} {
			args := append([]string{}, tc.args...)
			if tc.tool == "pdbquery" {
				args = append([]string{path}, tc.args...)
			} else {
				args = append(args, path)
			}
			out, stderr, err := runTool(t, tc.tool, args...)
			// pdblint exits nonzero when it has findings; only other
			// tools' failures are fatal here.
			if err != nil && tc.tool != "pdblint" {
				t.Fatalf("%s %v: %v\n%s", tc.tool, args, err, stderr)
			}
			outs[i] = out
		}
		if outs[0] != outs[1] {
			t.Errorf("%s %v output differs between encodings\n--- ascii ---\n%s\n--- binary ---\n%s",
				tc.tool, tc.args, outs[0], outs[1])
		}
	}
}

func TestPdbmergeBinaryOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	src := workloadPDB(t)
	tmp := t.TempDir()
	asciiOut := filepath.Join(tmp, "merged.pdb")
	binOut := filepath.Join(tmp, "merged.bpdb")
	backOut := filepath.Join(tmp, "back.pdb")

	// Merging a database with itself dedups to the same content, so
	// the two encodings of the merge must carry the same model.
	if _, stderr, err := runTool(t, "pdbmerge", "-o", asciiOut, src, src); err != nil {
		t.Fatalf("pdbmerge: %v\n%s", err, stderr)
	}
	if _, stderr, err := runTool(t, "pdbmerge", "-format=binary", "-o", binOut, src, src); err != nil {
		t.Fatalf("pdbmerge -format=binary: %v\n%s", err, stderr)
	}
	bin, err := os.ReadFile(binOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(bin), "PDTB") {
		t.Fatal("pdbmerge -format=binary did not write a PDTB stream")
	}
	if _, stderr, err := runTool(t, "pdbconv", "-to=ascii", "-o", backOut, binOut); err != nil {
		t.Fatalf("pdbconv -to=ascii: %v\n%s", err, stderr)
	}
	want, err := os.ReadFile(asciiOut)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(backOut)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("binary pdbmerge output does not decode to the ascii pdbmerge output")
	}
}

// TestPdbdServesBinaryCorpus proves the daemon is encoding-blind: the
// same corpus served from a binary file answers every endpoint with
// the bytes the ASCII-served daemon produced and reports the same
// corpus fingerprint. Both daemons share one cache directory, so the
// binary daemon's lint runs splice the findings the ASCII daemon
// journaled.
func TestPdbdServesBinaryCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test")
	}
	asciiPath := workloadPDB(t)
	binPath := filepath.Join(t.TempDir(), "workload.bpdb")
	if _, stderr, err := runTool(t, "pdbconv", "-to=binary", "-o", binPath, asciiPath); err != nil {
		t.Fatalf("pdbconv -to=binary: %v\n%s", err, stderr)
	}
	cacheDir := t.TempDir()
	endpoints := []string{
		"/v1/query/nodes",
		"/v1/query/deps?node=file:krylov.cpp",
		"/v1/query/affected?file=StackAr.h&format=json",
		"/v1/lint",
		"/v1/lint?format=json",
		"/v1/tree?calls",
	}

	type response struct {
		body, fingerprint string
	}
	serve := func(t *testing.T, path string) map[string]response {
		srv, err := pdbd.New(context.Background(), pdbd.Config{
			Paths:    []string{path},
			CacheDir: cacheDir,
			Metrics:  obs.New("pdbd"),
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		out := make(map[string]response, len(endpoints))
		for _, ep := range endpoints {
			resp, err := http.Get(ts.URL + ep)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s = %d\n%s", ep, resp.StatusCode, body)
			}
			out[ep] = response{
				body:        string(body),
				fingerprint: resp.Header.Get("X-Pdbd-Fingerprint"),
			}
		}
		return out
	}

	fromASCII := serve(t, asciiPath)
	fromBinary := serve(t, binPath)
	for _, ep := range endpoints {
		a, b := fromASCII[ep], fromBinary[ep]
		if b.body != a.body {
			t.Errorf("%s body differs between encodings\n--- ascii ---\n%s\n--- binary ---\n%s",
				ep, a.body, b.body)
		}
		if a.fingerprint == "" || b.fingerprint != a.fingerprint {
			t.Errorf("%s fingerprint %q (binary) != %q (ascii)", ep, b.fingerprint, a.fingerprint)
		}
	}
}

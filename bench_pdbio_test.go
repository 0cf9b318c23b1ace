// Benchmark snapshot for the PDB encodings.
//
// TestBenchSnapshotPdbio is gated on PDT_BENCH_SNAPSHOT_PDBIO: when the
// variable names an output path, the test times reading the benchmark
// corpus from the ASCII and binary encodings and writes the
// measurements as JSON. CI runs it on every push and uploads the
// artifact; the committed BENCH_pdbio.json is the documented baseline.
// The binary decoder must beat the ASCII parser by at least 2x — that
// floor is asserted, not just recorded.
package pdt_test

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"pdt/internal/pdb"
)

func TestBenchSnapshotPdbio(t *testing.T) {
	out := os.Getenv("PDT_BENCH_SNAPSHOT_PDBIO")
	if out == "" {
		t.Skip("set PDT_BENCH_SNAPSHOT_PDBIO=<path> to write the benchmark snapshot")
	}

	db := benchCorpus(t, 48, 4, 8, 8)
	var ascii, bin bytes.Buffer
	if err := db.Write(&ascii); err != nil {
		t.Fatal(err)
	}
	if err := db.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	items := db.Raw().ItemCount()

	// Both timings go through the same auto-detecting entry point, so
	// the comparison includes the sniff both production paths pay.
	asciiMS := timeMin(9, func() {
		if _, err := pdb.Read(bytes.NewReader(ascii.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	binMS := timeMin(9, func() {
		if _, err := pdb.Read(bytes.NewReader(bin.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	asciiRate := float64(ascii.Len()) / 1e6 / (asciiMS / 1e3)
	binRate := float64(bin.Len()) / 1e6 / (binMS / 1e3)

	snap := map[string]any{
		"generated_by":     "TestBenchSnapshotPdbio",
		"corpus":           map[string]int{"layer_depth": 48, "layer_width": 4, "layer_methods": 8, "merge_units": 8},
		"items":            items,
		"ascii_bytes":      ascii.Len(),
		"binary_bytes":     bin.Len(),
		"ascii_read_ms":    asciiMS,
		"binary_read_ms":   binMS,
		"ascii_read_mb_s":  asciiRate,
		"binary_read_mb_s": binRate,
		"binary_speedup":   asciiMS / binMS,
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("ascii %.2fms (%.1f MB/s, %d bytes) binary %.2fms (%.1f MB/s, %d bytes) speedup %.2fx",
		asciiMS, asciiRate, ascii.Len(), binMS, binRate, bin.Len(), asciiMS/binMS)

	if binMS*2 > asciiMS {
		t.Errorf("binary read (%.2fms) is not at least 2x faster than ascii (%.2fms)", binMS, asciiMS)
	}
	if bin.Len() >= ascii.Len() {
		t.Errorf("binary encoding (%d bytes) is not smaller than ascii (%d bytes)", bin.Len(), ascii.Len())
	}
}

// pdbmerge merges PDB files from separate compilations into one PDB
// file, eliminating duplicate template instantiations in the process
// (Table 2). Inputs are loaded concurrently and merged with one linear
// left-to-right fold.
//
// Output is crash-consistent: the merged database is staged, fsynced,
// and atomically renamed over -o, so a killed run never leaves a torn
// file. A flock-based lock file next to -o keeps two concurrent runs
// from interleaving (the second exits 5 immediately).
//
// Usage:
//
//	pdbmerge [-o out.pdb] [-format ascii|binary] [-j N] [-strict]
//	         [-lenient] [-quarantine dir] [-retry N]
//	         [-metrics file|-] [-trace] a.pdb b.pdb ...
//
// Exit codes: 0 success, 3 usage or I/O failure, 4 completed but
// -lenient recovered past malformed input, 5 another pdbmerge holds
// the output lock.
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"

	"pdt/internal/cliutil"
	"pdt/internal/durable"
	"pdt/internal/pdbio"
)

func main() {
	t := cliutil.New("pdbmerge", "pdbmerge [-o out.pdb] [-format ascii|binary] [-j N] [-strict] [-lenient] [-quarantine dir] [-retry N] [-metrics file|-] [-trace] a.pdb b.pdb ...")
	out := t.OutFlag()
	workers := t.WorkersFlag()
	strict := t.Flags.Bool("strict", false,
		"validate the referential integrity of every input database")
	format := t.Flags.String("format", "ascii",
		"output encoding: ascii or binary (inputs are auto-detected)")
	res := t.ResilienceFlags()
	t.ObsFlags()
	t.Parse(os.Args[1:], 1, -1)

	if *format != "ascii" && *format != "binary" {
		t.Fatalf("invalid -format=%s (want ascii or binary)", *format)
	}

	// One writer at a time: an flock next to the output makes a second
	// concurrent pdbmerge fail fast with a distinct exit code instead
	// of interleaving writes.
	if *out != "" {
		lock, err := durable.AcquireLock(*out + ".lock")
		if err != nil {
			if errors.Is(err, durable.ErrLocked) {
				fmt.Fprintf(t.Stderr, "pdbmerge: %v (another pdbmerge is writing here; retry when it exits)\n", err)
				t.Exit(cliutil.ExitLocked)
				return
			}
			t.Fatalf("%v", err)
			return
		}
		defer lock.Release()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := []pdbio.Option{pdbio.WithWorkers(*workers), pdbio.WithMetrics(t.Obs())}
	if *format == "binary" {
		opts = append(opts, pdbio.WithFormat(pdbio.FormatBinary))
	}
	if *strict {
		opts = append(opts, pdbio.WithStrictValidation())
	}
	opts = append(opts, res.Options()...)

	var err error
	if *out != "" {
		// File output goes through the fully durable path: staged,
		// fsynced, renamed, directory-fsynced.
		err = pdbio.MergeToFile(ctx, *out, t.Flags.Args(), opts...)
	} else {
		err = t.WithOutput("", func(w io.Writer) error {
			return pdbio.MergeFiles(ctx, w, t.Flags.Args(), opts...)
		})
	}
	if err != nil {
		t.Fatalf("%v", err)
	}
	t.FlushObs()
	t.Exit(res.Exit(cliutil.ExitOK))
}

// cxxparse is the PDT frontend driver: it compiles a C++ source file
// (preprocess, parse, semantic analysis with template instantiation),
// runs the IL Analyzer over the resulting IL, and writes the program
// database.
//
// Usage:
//
//	cxxparse [-o out.pdb] [-I dir]... [-D name[=value]]... [-eager]
//	         [-direct-origin] [-v] file.cpp
package main

import (
	"flag"
	"fmt"
	"os"

	"pdt/internal/cliutil"
	"pdt/internal/core"
	"pdt/internal/cpp/sema"
	"pdt/internal/ilanalyzer"
)

type stringList []string

func (s *stringList) String() string { return fmt.Sprint(*s) }

func (s *stringList) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	var includes, defines stringList
	out := flag.String("o", "", "output PDB file (default: stdout)")
	eager := flag.Bool("eager", false, "instantiate all template members (EDG automatic mode) instead of used-only")
	direct := flag.Bool("direct-origin", false, "link instantiations to templates via direct IL IDs instead of the location match")
	verbose := flag.Bool("v", false, "print frontend statistics")
	check := flag.Bool("check", false, "validate the referential integrity of the generated PDB")
	flag.Var(&includes, "I", "add an include search directory (repeatable)")
	flag.Var(&defines, "D", "predefine a macro NAME or NAME=VALUE (repeatable)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cxxparse [options] file.cpp")
		flag.PrintDefaults()
		os.Exit(2)
	}

	opts := core.Options{IncludePaths: includes, Defines: defines}
	if *eager {
		opts.Mode = sema.Eager
	}
	fs := core.NewFileSet(opts)
	res, err := core.CompileFile(fs, flag.Arg(0), opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cxxparse: %v\n", err)
		os.Exit(1)
	}
	for _, d := range res.Diagnostics {
		fmt.Fprintf(os.Stderr, "%v\n", d)
	}
	if res.HasErrors() {
		os.Exit(1)
	}

	analyzerOpts := ilanalyzer.Options{}
	if *direct {
		analyzerOpts.TemplateOrigin = ilanalyzer.OriginDirect
	}
	db := ilanalyzer.Analyze(res.Unit, analyzerOpts)

	if *check {
		if errs := db.Validate(); len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintf(os.Stderr, "cxxparse: integrity: %v\n", e)
			}
			os.Exit(1)
		}
	}

	if *verbose {
		st := res.Stats
		fmt.Fprintf(os.Stderr, "cxxparse: %d classes (%d instantiations), %d routines (%d instantiations), %d bodies analyzed, %d types, %d PDB items\n",
			st.Classes, st.ClassInsts, st.Routines, st.RoutineInsts,
			st.BodiesAnalyzed, st.Types, db.ItemCount())
	}

	// Output goes through the shared cliutil.Create seam (by default a
	// crash-consistent durable write): a full disk surfaces on commit
	// instead of exiting 0 with a truncated PDB, and a killed run
	// never leaves a torn file at -o.
	if err := cliutil.WriteOutput(*out, db.Write); err != nil {
		fmt.Fprintf(os.Stderr, "cxxparse: %v\n", err)
		os.Exit(1)
	}
}

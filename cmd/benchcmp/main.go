// Command benchcmp reports what moved between two benchmark artifact sets
// produced by `benchsuite -json`. It loads a baseline and a candidate (each
// a single BENCH_*.json file or a directory of them), aligns series by
// experiment + key and prints a delta table: which series moved, by how
// much, and first in which experiment. Every artifact is deterministic
// virtual time, so any change in a directed series is a move.
//
// Exit codes: 0 = nothing moved, 1 = a directed series moved, 2 = schema or
// shape mismatch or usage error.
//
// Example:
//
//	benchsuite -experiment all -json out/
//	benchcmp results/baseline out/
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"tofumd/internal/bench"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchcmp: ")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: benchcmp <baseline> <candidate>\n")
		fmt.Fprintf(flag.CommandLine.Output(), "baseline/candidate: a BENCH_*.json file or a directory of them\n")
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}

	base, err := bench.LoadArtifacts(flag.Arg(0))
	if err != nil {
		log.Printf("baseline: %v", err)
		os.Exit(2)
	}
	cand, err := bench.LoadArtifacts(flag.Arg(1))
	if err != nil {
		log.Printf("candidate: %v", err)
		os.Exit(2)
	}

	res := bench.Compare(base, cand)
	fmt.Print(res.FormatTable())
	switch {
	case len(res.Errors) > 0:
		os.Exit(2)
	case len(res.Moved) > 0:
		os.Exit(1)
	}
}

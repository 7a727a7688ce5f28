// Command bench is the job-budget benchmark: it hosts the whole system in
// one process over loopback TCP — worker serve loops, fleet, job-queue server
// and facade clients — and puts one product through it in four regimes,
// reporting what a user sees end to end and, on a traced pass, what each
// layer's public entry point costs on the same job. See README.md.
//
//	go run ./bench                       # all four workloads, end-to-end metrics
//	go run ./bench -traced -out r.json   # plus the per-layer ladder, written to r.json
//	go run ./bench -compare a.json b.json
//
// The benchmark driver calls it as
// `go run ./bench --workload W --seed N --seconds S --trace 0|1` and reads
// the last line of standard output.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	var (
		names   = flag.String("workload", "", "workloads to run, comma separated (default: all four)")
		seed    = flag.Int64("seed", defaultSeed, "seed every generated input derives from")
		seconds = flag.Float64("seconds", defaultSeconds, "measured phase per workload, split into 5 repetitions (halved on a traced run; the ladder gets the other half)")
		trace   = flag.Int("trace", 0, "1: run the traced pass and print the per-layer metrics on the last line")
		traced  = flag.Bool("traced", false, "same as -trace 1")
		short   = flag.Bool("short", false, "smoke run: 1 repetition of ~1 s, 3 ladder iterations, no regime checks")
		out     = flag.String("out", "", "write the full result (medians, IQRs, samples, host) to this JSON file")
		compare = flag.Bool("compare", false, "compare two result files given as arguments instead of running")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare A.json B.json")
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() > 0 {
		fatal("unexpected arguments %q", flag.Args())
	}

	opt := options{seed: *seed, seconds: *seconds, traced: *traced || *trace == 1, short: *short, resultsDir: resultsDir}
	if opt.short {
		opt.seconds = 1
		if opt.traced {
			opt.seconds = 2
		}
	}
	if opt.seconds <= 0 {
		fatal("-seconds must be positive")
	}
	run := workloads
	if *names != "" {
		run = nil
		for _, name := range strings.Split(*names, ",") {
			wl, ok := workloadByName(name)
			if !ok {
				fatal("unknown workload %q", name)
			}
			run = append(run, wl)
		}
	}

	file := newResultFile(opt)
	failed := false
	var last string
	for _, wl := range run {
		res, err := runWorkload(context.Background(), wl, opt)
		if err != nil {
			fatal("%v", err)
		}
		res.print(os.Stdout)
		file.Workloads = append(file.Workloads, res)
		failed = failed || len(res.Flags) > 0
		if last, err = res.driverLine(opt.traced); err != nil {
			fatal("%v", err)
		}
	}
	if *out != "" {
		if err := file.write(*out); err != nil {
			fatal("%v", err)
		}
	}
	fmt.Println(last)
	if failed {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

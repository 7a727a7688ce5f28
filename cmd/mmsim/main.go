// Command mmsim runs one scheduling algorithm on one platform in the
// discrete-event simulator and reports the paper's measurements, optionally
// with a text Gantt chart or a CSV trace dump.
//
// The platform is given as a comma-separated list of worker specs c:w:m
// (link cost per block, compute cost per update, memory in blocks), or as a
// named experimental platform.
//
// Usage:
//
//	mmsim -alg Het -platform hetero-comm -r 50 -s 400 -t 50
//	mmsim -alg BMM -workers 1:1:320,2:1.5:640 -r 20 -s 60 -t 20 -gantt
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/platform"
	"repro/internal/sched"
)

var namedPlatforms = map[string]func() *platform.Platform{
	"hetero-mem":  platform.HeteroMemory,
	"hetero-comm": platform.HeteroComm,
	"hetero-comp": platform.HeteroComp,
	"lyon-aug07":  platform.LyonAugust2007,
	"lyon-nov06":  platform.LyonNovember2006,
	"fully-het-2": func() *platform.Platform { return platform.FullyHetero(2) },
	"fully-het-4": func() *platform.Platform { return platform.FullyHetero(4) },
}

func main() {
	alg := flag.String("alg", "Het", "algorithm: Hom, HomI, Het, ORROML, OMMOML, ODDOML, BMM, MaxReuse")
	name := flag.String("platform", "", "named platform (hetero-mem, hetero-comm, hetero-comp, fully-het-2/4, lyon-aug07, lyon-nov06)")
	workers := flag.String("workers", "", "explicit workers as c:w:m,c:w:m,…")
	r := flag.Int("r", 50, "rows of C in blocks")
	s := flag.Int("s", 400, "columns of C in blocks")
	t := flag.Int("t", 50, "inner dimension in blocks")
	gantt := flag.Bool("gantt", false, "print a text Gantt chart")
	csv := flag.Bool("csv", false, "dump the raw trace as CSV")
	analyze := flag.Bool("analyze", false, "print the utilization/bottleneck breakdown")
	flag.Parse()

	if err := run(*alg, *name, *workers, sched.Instance{R: *r, S: *s, T: *t}, *gantt, *csv, *analyze); err != nil {
		fmt.Fprintln(os.Stderr, "mmsim:", err)
		os.Exit(1)
	}
}

func run(alg, name, workers string, inst sched.Instance, gantt, csv, analyze bool) error {
	// The §6 algorithms, plus the §3 single-worker layout for comparison.
	s, err := sched.Lookup(alg, sched.MaxReuse{})
	if err != nil {
		return err
	}
	pl, err := buildPlatform(name, workers)
	if err != nil {
		return err
	}
	res, err := s.Schedule(pl, inst)
	if err != nil {
		return err
	}
	st := res.Stats
	fmt.Printf("algorithm    %s\n", res.Algorithm)
	fmt.Printf("platform     %s\n", pl)
	fmt.Printf("instance     C %dx%d blocks, t=%d (%d block updates)\n", inst.R, inst.S, inst.T, inst.Updates())
	fmt.Printf("makespan     %.1f time units\n", st.Makespan)
	fmt.Printf("enrolled     %d of %d workers %v\n", len(res.Enrolled), pl.P(), res.Enrolled)
	fmt.Printf("comm volume  %d blocks (master busy %.1f%%)\n", st.CommBlocks, 100*st.MasterBusy/st.Makespan)
	fmt.Printf("CCR          %.5f comms/update\n", float64(st.CommBlocks)/float64(st.Updates))
	if res.Note != "" {
		fmt.Printf("note         %s\n", res.Note)
	}
	if analyze {
		fmt.Print(res.Trace.Analyze().Report())
	}
	if gantt {
		fmt.Println(res.Trace.Gantt(100))
	}
	if csv {
		return res.Trace.WriteCSV(os.Stdout)
	}
	return nil
}

func buildPlatform(name, workers string) (*platform.Platform, error) {
	switch {
	case name != "" && workers != "":
		return nil, fmt.Errorf("give either -platform or -workers, not both")
	case name != "":
		b, ok := namedPlatforms[name]
		if !ok {
			return nil, fmt.Errorf("unknown platform %q", name)
		}
		return b(), nil
	case workers != "":
		ws, err := platform.ParseWorkers(workers)
		if err != nil {
			return nil, err
		}
		return platform.New(ws...)
	default:
		return platform.HeteroMemory(), nil
	}
}

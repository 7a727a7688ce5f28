package main

import (
	"strings"
	"testing"

	"repro/internal/sched"
)

func TestBuildPlatformNamed(t *testing.T) {
	pl, err := buildPlatform("hetero-comm", "")
	if err != nil {
		t.Fatal(err)
	}
	if pl.P() != 8 {
		t.Errorf("hetero-comm has %d workers", pl.P())
	}
	if _, err := buildPlatform("no-such", ""); err == nil {
		t.Error("unknown platform accepted")
	}
}

func TestBuildPlatformSpecs(t *testing.T) {
	pl, err := buildPlatform("", "1:2:100,3.5:1:50")
	if err != nil {
		t.Fatal(err)
	}
	if pl.P() != 2 || pl.Workers[1].C != 3.5 || pl.Workers[0].M != 100 {
		t.Errorf("parsed platform = %v", pl)
	}
	for _, bad := range []string{"1:2", "x:1:1", "1:y:1", "1:1:z"} {
		if _, err := buildPlatform("", bad); err == nil {
			t.Errorf("bad spec %q accepted", bad)
		}
	}
	if _, err := buildPlatform("hetero-comm", "1:1:10"); err == nil {
		t.Error("both -platform and -workers accepted")
	}
}

func TestBuildPlatformDefault(t *testing.T) {
	pl, err := buildPlatform("", "")
	if err != nil {
		t.Fatal(err)
	}
	if pl.P() != 8 {
		t.Errorf("default platform has %d workers", pl.P())
	}
}

func TestRunAllAlgorithms(t *testing.T) {
	for _, s := range append(sched.Algorithms(), sched.MaxReuse{}) {
		name := strings.ToLower(s.Name())
		if err := run(name, "", "1:1:60,2:1.5:40", sched.Instance{R: 6, S: 12, T: 4}, false, false, false); err != nil {
			t.Errorf("run(%s): %v", name, err)
		}
	}
	if err := run("nope", "", "", sched.Instance{R: 1, S: 1, T: 1}, false, false, false); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

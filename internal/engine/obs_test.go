package engine

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/matrix"
	"repro/internal/sched"
	"repro/internal/trace"
)

// TestRecorderEventCounts checks the invariant the per-job trace export
// relies on: a recorded run carries exactly one sendC and one recvC span per
// chunk and one sendAB span per installment — the same op counts as the
// plan — whichever loop and policy ran it (plus one chunk's worth per
// redundant unit the gate dispatched), and the computed C is still correct.
func TestRecorderEventCounts(t *testing.T) {
	pl := smallPlatform()
	inst := sched.Instance{R: 7, S: 11, T: 5}
	res, err := sched.Het{}.Schedule(pl, inst)
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Plan()
	want := map[trace.Kind]int{}
	for _, op := range plan {
		want[op.Kind]++
	}
	if want[trace.SendC] == 0 || want[trace.SendAB] == 0 || want[trace.SendC] != want[trace.RecvC] {
		t.Fatalf("degenerate plan: op counts %v", want)
	}

	// Each loop and each policy of the core; the redundant row runs the gate
	// with no planned units, so only idle-worker speculation adds work.
	red := &Redundancy{Mode: "replicated"}
	for name, cfg := range map[string]Config{
		"sequential": {},
		"static":     {Pipelined: true},
		"elastic":    {Pipelined: true, Options: Options{Elastic: &Elastic{Tracker: testTracker(pl.P())}}},
		"redundant":  {Pipelined: true, Options: Options{Redundancy: red}},
	} {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			q := 3
			a := matrix.NewBlockMatrix(inst.R, inst.T, q)
			b := matrix.NewBlockMatrix(inst.T, inst.S, q)
			c := matrix.NewBlockMatrix(inst.R, inst.S, q)
			a.FillRandom(rng)
			b.FillRandom(rng)
			c.FillRandom(rng)
			wantC := c.Clone()
			if err := matrix.Multiply(wantC, a, b); err != nil {
				t.Fatal(err)
			}

			rec := trace.NewRecorder("Het")
			ctx := trace.NewContext(context.Background(), rec)
			cfg.Workers, cfg.T = pl.P(), inst.T
			if err := RunContext(ctx, cfg, plan, a, b, c); err != nil {
				t.Fatal(err)
			}
			if d := c.MaxAbsDiff(wantC); d > 1e-9 {
				t.Errorf("recorded run deviates from reference by %g", d)
			}

			tr := rec.Trace()
			got := map[trace.Kind]int{}
			for _, x := range tr.Transfers {
				if x.Worker < 0 || x.Worker >= pl.P() {
					t.Errorf("span on worker %d outside the platform", x.Worker)
				}
				got[x.Kind]++
			}
			// Only the gate dispatches units beyond the plan's own, each one
			// more chunk's worth of spans (the in-process backend cannot cancel
			// a laggard, so each runs to its recvC) — while a plan job whose
			// speculative copy landed first is skipped, so the floor stays the
			// plan's own counts.
			extra := 0
			if cfg.Options.Redundancy != nil {
				extra = int(red.Stats().Units)
			}
			if n := got[trace.SendC]; n < want[trace.SendC] || n > want[trace.SendC]+extra || got[trace.RecvC] != n {
				t.Errorf("sendC/recvC spans = %d/%d, plan has %d chunks (+%d redundant units)", n, got[trace.RecvC], want[trace.SendC], extra)
			}
			if n := got[trace.SendAB]; n < want[trace.SendAB] || (extra == 0 && n != want[trace.SendAB]) {
				t.Errorf("sendAB spans = %d, plan has %d installments (+%d redundant units)", n, want[trace.SendAB], extra)
			}
			// 2·chunks + installments: the uniform per-job total the serve
			// layer's exported traces are checked against.
			if total, exp := len(tr.Transfers), 2*got[trace.SendC]+got[trace.SendAB]; total != exp {
				t.Errorf("total spans = %d, want 2·chunks+installments = %d", total, exp)
			}
		})
	}
}

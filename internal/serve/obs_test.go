package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sched"
)

// TestTraceExportAndMetricsAgree runs one job on a TraceDir-configured
// server and checks the two observability surfaces against each other: the
// exported file is Chrome trace-event JSON whose span counts obey the
// chunk/installment invariant, and the process-wide /metrics counters moved
// by exactly what Status() reports for the job.
func TestTraceExportAndMetricsAgree(t *testing.T) {
	addrs := startWorkers(t, 2, nil)
	f, err := NewFleet(addrs, homSpecs(2), FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dir := t.TempDir()
	s := NewServer(f, Config{Logger: testLogger(t), TraceDir: dir})
	defer s.Close()

	// The obs registry is process-global, so compare before/after deltas:
	// this server is the only one running jobs while the test executes.
	sub0 := mJobsSubmitted.Value()
	done0 := mJobsFinished.With("done").Value()
	hits0, miss0 := mCacheHits.Value(), mCacheMisses.Value()

	inst := sched.Instance{R: 4, S: 6, T: 3}
	a, b, c, want := testMatrices(t, inst, 3, 901)
	id, err := s.Submit(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Wait(id); err != nil {
		t.Fatal(err)
	}
	if d := c.MaxAbsDiff(want); d != 0 {
		t.Errorf("C differs from the engine oracle by %g", d)
	}

	st := s.Status()
	if st.Done != 1 || st.Queued != 0 || st.Running != 0 {
		t.Fatalf("status = %d done, %d queued, %d running", st.Done, st.Queued, st.Running)
	}
	if got := mJobsSubmitted.Value() - sub0; got != 1 {
		t.Errorf("mm_serve_jobs_submitted_total moved %d, want 1", got)
	}
	if got := mJobsFinished.With("done").Value() - done0; got != 1 {
		t.Errorf(`mm_serve_jobs_finished_total{state="done"} moved %d, want 1`, got)
	}
	if gJobsQueued.Value() != 0 || gJobsRunning.Value() != 0 {
		t.Errorf("gauges queued=%d running=%d after the fleet drained",
			gJobsQueued.Value(), gJobsRunning.Value())
	}
	if ct := st.Cache; ct != nil {
		if got := mCacheHits.Value() - hits0; got != ct.PanelHits {
			t.Errorf("mm_serve_cache_panel_hits_total moved %d, Status reports %d", got, ct.PanelHits)
		}
		if got := mCacheMisses.Value() - miss0; got != ct.PanelMisses {
			t.Errorf("mm_serve_cache_panel_misses_total moved %d, Status reports %d", got, ct.PanelMisses)
		}
	}

	// The exported per-job trace: valid Chrome JSON, spans per kind obeying
	// one sendC + one recvC per chunk and the 2·chunks+installments total.
	data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("job-%d.trace.json", id)))
	if err != nil {
		t.Fatalf("trace file missing after Wait: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace export is not JSON: %v", err)
	}
	counts := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			counts[e.Name]++
		}
	}
	chunks, installments := counts["sendC"], counts["sendAB"]
	if chunks == 0 || installments == 0 {
		t.Fatalf("no spans recorded: %v", counts)
	}
	if counts["recvC"] != chunks {
		t.Errorf("recvC spans = %d, sendC spans = %d; every chunk must round-trip", counts["recvC"], chunks)
	}
	if total := counts["sendC"] + counts["sendAB"] + counts["recvC"]; total != 2*chunks+installments {
		t.Errorf("transfer spans = %d, want 2·chunks+installments = %d", total, 2*chunks+installments)
	}
}

package engine

import (
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

// Process-wide executor metrics. There are two plan-execution loops — the
// sequential oracle (ExecuteContext) and the concurrent core (Dispatch) — and
// each has exactly one place per event: a chunk is counted where it is
// dispatched (the sequential SendC op / runJob, the core's runUnit), a worker
// failure and the orphans it leaves where the worker is retired (each loop's
// retire), a re-plan in the core's reassign hook, the redundancy family in
// the core's commit hook (the k-of-n gate), and every backend operation's
// latency in stager.observe. So these counters and histograms cover all real
// executions — in-process, distributed, and every serve lease — and mean the
// same thing under every policy.
var (
	mChunks = obs.NewCounter("mm_engine_chunks_total",
		"Chunk jobs dispatched to workers, replays included.")
	mReplays = obs.NewCounter("mm_engine_chunk_replays_total",
		"Chunk jobs re-queued onto survivors after a worker failure or departure.")
	mFailovers = obs.NewCounter("mm_engine_worker_failures_total",
		"Workers retired mid-run (connection loss, heartbeat timeout, elastic departure).")
	mReplans = obs.NewCounter("mm_engine_replans_total",
		"Elastic re-plans (worker join, departure, or estimate drift).")

	mRedundantUnits = obs.NewCounter("mm_engine_redundant_units_total",
		"Redundant work units dispatched by the k-of-n gate (replicas, parities, speculative copies).")
	mDuplicateWins = obs.NewCounter("mm_engine_duplicate_wins_total",
		"Results discarded because another copy of the job had already committed.")
	mWastedBytes = obs.NewCounter("mm_engine_wasted_bytes_total",
		"Wire-size bytes of discarded duplicate results.")
	mDecodes = obs.NewCounter("mm_engine_decodes_total",
		"Chunk results reconstructed from MDS parity instead of a systematic unit.")

	hSendC = obs.NewHistogram("mm_engine_sendc_seconds",
		"Latency of delivering a C chunk to a worker.")
	hSendAB = obs.NewHistogram("mm_engine_sendab_seconds",
		"Latency of delivering one A/B installment to a worker.")
	hRecvC = obs.NewHistogram("mm_engine_recvc_seconds",
		"Latency of retrieving a finished chunk (includes the worker's residual compute).")
	hStragglerAbsorbed = obs.NewHistogram("mm_engine_straggler_absorbed_seconds",
		"In-flight time of units abandoned because their job completed elsewhere first.")
)

// observe feeds one completed backend operation into the latency histograms
// and, when the run is recorded, the per-job trace. Two time.Now() calls
// and a few atomic adds per operation — negligible next to the network or
// channel transfer it measures, and allocation-free unless recording.
func (st *stager) observe(w int, kind trace.Kind, blocks int, start, end time.Time) {
	switch kind {
	case trace.SendC:
		hSendC.Observe(end.Sub(start))
	case trace.SendAB:
		hSendAB.Observe(end.Sub(start))
	case trace.RecvC:
		hRecvC.Observe(end.Sub(start))
	}
	if st.rec != nil {
		st.rec.Transfer(w, kind, blocks, start, end)
	}
}

// Package serve is the multi-job scheduling service over a persistent worker
// fleet: the layer that turns the one-shot master-worker runtime into a
// long-lived daemon.
//
// A Fleet dials every worker once and keeps the registered sessions open
// across jobs (internal/net's WorkerConn/Detach lease handshake); a Server
// admits submitted products into a queue, picks a throughput-best *subset* of
// the idle fleet per job — the paper's resource selection, applied per
// product instead of per process — and runs the leased jobs concurrently
// through the engine's backend-agnostic concurrent core. Disjoint leases mean
// concurrent jobs never share a worker session, so one job's failover (a
// worker dying mid-job is replayed within its own lease) cannot touch another
// job's arithmetic or its latency.
//
// # Queue policies and admission
//
// Which queued job the next free lease goes to is decided by
// Config.QueuePolicy; each policy was measured against seeded synthetic
// traffic before shipping, and the checked-in hypotheses/ reports
// (cmd/mmlab's output) carry the numbers:
//
//   - PolicyFIFO (the default) dispatches in submission order.
//   - PolicySJF dispatches the least predicted work (r·s·t·q³ block updates)
//     first — hypotheses/fifo-vs-sjf measured ~3.6× lower small-job p99 on a
//     bimodal mix — with starvation bounded by Config.AgingBound: a job
//     queued past the bound is dispatched next regardless of policy order.
//   - PolicyPriority dispatches by SLO class (interactive → standard →
//     batch; FIFO within a class, aging-bounded across classes).
//
// A job's JobClass arrives through SubmitClass, the client protocol's submit
// frame (matmul.WithClass end to end), or defaults to ClassStandard.
// Config.AdmissionRate/AdmissionBurst add per-class token-bucket admission
// control: a submission finding its class's bucket empty fails immediately
// with ErrAdmission instead of joining an unbounded backlog
// (hypotheses/admission-vs-unbounded). Policies reorder admission into
// leases only — execution under a lease is identical under every policy, so
// the computed C stays bitwise-identical.
//
// Queue state is observable three ways, and they agree: Stats
// (Queued/QueuedByClass/AdmissionRejected, per-job JobStatus.Class), the
// mm_serve_queue_* metric family on the debug mux, and mmserve -status.
package serve

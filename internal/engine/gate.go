package engine

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/matrix"
	"repro/internal/sim"
)

// ErrUnitCanceled marks a dispatched unit abandoned on purpose by the k-of-n
// gate: the job's result already landed from another copy (or a parity
// decode), so the unit's worker was told to drop it. The core treats it as
// absorbed straggler time, not as a failure. A backend may additionally wrap
// ErrWorkerDown when the cancel handshake had to retire the link (a stalled
// worker never answers the cancel).
var ErrUnitCanceled = errors.New("unit canceled")

// UnitCanceler is optionally implemented by Backends that can ask a worker to
// abandon the unit it has in flight (internal/net's Master, via the
// wire-level cancel handshake). Without it the gate still arbitrates
// duplicate results; laggard units simply run to completion and are
// discarded.
type UnitCanceler interface {
	// CancelUnit requests that worker w abandon chunk ch. Best-effort and
	// non-blocking: the outcome surfaces on the unit's own dispatch path as
	// ErrUnitCanceled (possibly also wrapping ErrWorkerDown), as a duplicate
	// result, or not at all.
	CancelUnit(w int, ch matrix.Chunk)
}

// RawSender is optionally implemented by Backends that address installments
// by content digest (internal/net's Master during a panel-cache epoch).
// Parity units carry pre-encoded payloads under borrowed chunk coordinates,
// so their sends must bypass digest addressing and their results must not
// promote panel residency.
type RawSender interface {
	SendABRaw(w int, ch matrix.Chunk, k0, k1 int, a, b []*matrix.Block) error
	RecvCRaw(w int, ch matrix.Chunk) ([]*matrix.Block, error)
}

// ReconstructFunc solves one parity group for its missing members. members
// holds the group's committed chunk results by slot (nil where missing; the
// blocks are read-only views into C). Each received parity contributes one
// coefficient row (its per-member encoding coefficients, slot order) and its
// result blocks. It returns freshly allocated blocks per recovered slot (the
// gate takes them over, like any result), or
// ok=false when the system is still underdetermined. internal/coded installs
// the MDS solver here; the engine stays free of coding theory.
type ReconstructFunc func(members [][]*matrix.Block, coeffs [][]float64, parities [][]*matrix.Block) (map[int][]*matrix.Block, bool)

// RedundantUnit is one planned unit of extra work beyond the plan's own jobs.
// Job ≥ 0 replicates that plan job verbatim on Worker. Job < 0 is a parity
// unit: the worker runs an ordinary chunk job whose C seed and A panels were
// pre-encoded (at plan time, from the initial C) as the coefficient-weighted
// sum of the group members' payloads, under the borrowed chunk coordinates of
// the first member — B panels are shared by construction, so the returned
// "chunk" equals the same weighted sum of the members' true results.
type RedundantUnit struct {
	Worker int
	Job    int // ≥ 0: replica of that plan job; < 0: parity unit

	// Parity-only fields.
	Group   int               // parity group id; all units of a group share Members
	Members []int             // plan job indices the parity spans
	Coeffs  []float64         // per-member encoding coefficients, Members order
	Chunk   matrix.Chunk      // borrowed geometry (the first member's chunk)
	Panels  [][2]int          // installment schedule, identical to the members'
	CSeed   []*matrix.Block   // pre-encoded C payload, row-major over Chunk
	ASeeds  [][]*matrix.Block // pre-encoded A panels per installment
}

// RedundancyStats counts what the k-of-n gate did during a run.
type RedundancyStats struct {
	Units         int64 // redundant units dispatched (replicas, parities, speculative copies)
	DuplicateWins int64 // results discarded because the job had already committed
	WastedBytes   int64 // wire-size bytes of those discarded results
	Decodes       int64 // chunk results reconstructed from parity
	Absorbed      int64 // in-flight units wire-cancelled after their job completed elsewhere
	Speculative   int64 // of Units, copies claimed dynamically by idle workers
}

// Redundancy is the k-of-n commit policy and collects its stats. Units
// carries the planned redundancy (internal/coded builds it from adapt
// estimates); an empty Units still enables the gate's dynamic speculation,
// which is what absorbs a straggler no placement predicted.
type Redundancy struct {
	Mode  string // "replicated" or "coded"; informational
	Units []RedundantUnit
	// Reconstruct decodes parity groups; required for parity units to be
	// usable (internal/coded always sets it).
	Reconstruct ReconstructFunc

	mu sync.Mutex
	st RedundancyStats
}

// Stats returns a snapshot of the run's redundancy counters; valid during
// and after execution.
func (r *Redundancy) Stats() RedundancyStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st
}

func (r *Redundancy) bump(f func(*RedundancyStats)) {
	r.mu.Lock()
	f(&r.st)
	r.mu.Unlock()
}

// speculationLimit caps the concurrent copies of one job claimed through the
// gate (planned replicas and the dynamic idle-worker speculation; the
// primary dispatch is exempt): a primary plus one backup, the classic
// speculative-execution bound.
const speculationLimit = 2

// parityGroup tracks one parity group: its member jobs and the parity results
// held until the group decodes.
type parityGroup struct {
	members []int
	coeffs  [][]float64
	results [][]*matrix.Block
}

// kofnGate is the k-of-n commit policy's state: which jobs have committed,
// how many capped copies of each are in flight, and the parity results
// waiting to decode. It has no lock of its own — every method runs under the
// core's mutex, which therefore orders every C access of a gated run
// (snapshot staging, result commit, decode reads); that is what lets several
// copies of one job coexist safely.
type kofnGate struct {
	red       *Redundancy
	uc        UnitCanceler // nil: laggards run to completion and are discarded
	carriers  bool         // copying backend: results are copied into C and recycled
	jobs      []sim.PlanJob
	c         *matrix.BlockMatrix
	committed []bool
	copies    []int // in-flight capped copies per job (primaries exempt)
	groups    map[int]*parityGroup
}

func newGate(red *Redundancy, jobs []sim.PlanJob, c *matrix.BlockMatrix, be Backend) *kofnGate {
	g := &kofnGate{
		red: red, jobs: jobs, c: c,
		committed: make([]bool, len(jobs)),
		copies:    make([]int, len(jobs)),
		groups:    make(map[int]*parityGroup),
	}
	g.uc, _ = be.(UnitCanceler)
	g.carriers = copiesBlocks(be)
	for i := range red.Units {
		if ru := &red.Units[i]; ru.Job < 0 && g.groups[ru.Group] == nil {
			g.groups[ru.Group] = &parityGroup{members: ru.Members}
		}
	}
	return g
}

// missing lists the slots of pg's members that have not committed.
func (g *kofnGate) missing(pg *parityGroup) []int {
	var out []int
	for s, ji := range pg.members {
		if !g.committed[ji] {
			out = append(out, s)
		}
	}
	return out
}

// admit decides whether a unit about to be dispatched can still matter, and
// counts it if so. The plan's own copy of a job always runs unless the job
// already committed; an extra copy must also fit under the copy cap; a parity
// runs while its group has a member missing.
func (g *kofnGate) admit(u unit) bool {
	switch {
	case u.parity != nil:
		if len(g.missing(g.groups[u.parity.Group])) == 0 {
			return false
		}
	case g.committed[u.job] || u.copy && g.copies[u.job] >= speculationLimit:
		return false
	case !u.copy:
		return true // a primary is not redundant work
	default:
		g.copies[u.job]++
	}
	g.red.bump(func(st *RedundancyStats) {
		st.Units++
		if u.spec {
			st.Speculative++
		}
	})
	mRedundantUnits.Inc()
	return true
}

// release undoes admit's cap accounting once the unit is no longer in flight.
func (g *kofnGate) release(u unit) {
	if u.copy {
		g.copies[u.job]--
	}
}

// claim picks the speculative copy an idle worker should run: the pending job
// with the fewest live copies (lowest index on ties, for determinism) still
// under the copy cap.
func (g *kofnGate) claim() (unit, bool) {
	best := -1
	for ji := range g.jobs {
		if !g.committed[ji] && g.copies[ji] < speculationLimit && (best < 0 || g.copies[ji] < g.copies[best]) {
			best = ji
		}
	}
	return unit{job: best, copy: true, spec: true}, best >= 0
}

// commit lands one unit's result and returns how many jobs it newly
// committed (0 or 1). The first copy of a job wins and is written into C;
// later copies are counted as duplicate wins and dropped. A parity result is
// held for its group's decode. The error is fatal: a malformed result.
func (g *kofnGate) commit(u unit, blocks []*matrix.Block) (int, error) {
	if u.parity != nil {
		if pg := g.groups[u.parity.Group]; len(g.missing(pg)) > 0 {
			pg.coeffs = append(pg.coeffs, u.parity.Coeffs)
			pg.results = append(pg.results, blocks)
			return 0, nil
		}
	} else if !g.committed[u.job] {
		if err := writeChunk(g.c, g.jobs[u.job].Chunk, blocks, g.carriers); err != nil {
			return 0, err
		}
		g.committed[u.job] = true
		return 1, nil
	}
	wasted := wireBytes(blocks)
	if g.carriers {
		matrix.SharedPool.PutAll(blocks)
	}
	g.red.bump(func(st *RedundancyStats) {
		st.DuplicateWins++
		st.WastedBytes += wasted
	})
	mDuplicateWins.Inc()
	mWastedBytes.Add(wasted)
	return 0, nil
}

// dropParities recycles the parity results still held for a decode, once the
// run is over and every dispatch goroutine has returned (Reconstruct works on
// clones, so nothing else refers to them).
func (g *kofnGate) dropParities() {
	if !g.carriers {
		return
	}
	for _, pg := range g.groups {
		for _, blocks := range pg.results {
			matrix.SharedPool.PutAll(blocks)
		}
		pg.results = nil
	}
}

// lost reports whether an in-flight unit's outcome can no longer matter:
// copies of a job lose when it commits; parity units only once everything
// committed (a parity that lands while other groups are still open is at
// worst a duplicate win).
func (g *kofnGate) lost(u unit, allDone bool) bool {
	if u.parity != nil {
		return allDone
	}
	return g.committed[u.job]
}

// decode reconstructs, group by group, the uncommitted members that enough
// parity results have arrived for, committing each recovery exactly as a job
// result; it returns how many jobs that landed. Decode is strictly a last
// resort: a member is only reconstructed once its systematic avenue is
// exhausted — the copy cap reached by copies that are still in flight
// (stalled stragglers hold their slots). A member that can still be claimed
// keeps its chance to land verbatim, which is what keeps straggler-free runs
// decode-free and bitwise-identical.
func (g *kofnGate) decode() (landed int, err error) {
	if g.red.Reconstruct == nil {
		return 0, nil
	}
groups:
	for gid, pg := range g.groups {
		missing := g.missing(pg)
		if len(missing) == 0 || len(pg.results) < len(missing) {
			continue
		}
		for _, s := range missing {
			if g.copies[pg.members[s]] < speculationLimit {
				continue groups
			}
		}
		members := make([][]*matrix.Block, len(pg.members))
		for s, ji := range pg.members {
			if g.committed[ji] {
				members[s] = chunkView(g.c, g.jobs[ji].Chunk)
			}
		}
		recovered, ok := g.red.Reconstruct(members, pg.coeffs, pg.results)
		if !ok {
			continue
		}
		for slot, blocks := range recovered {
			if slot < 0 || slot >= len(pg.members) {
				return landed, fmt.Errorf("engine: parity decode of group %d produced slot %d of %d", gid, slot, len(pg.members))
			}
			ji := pg.members[slot]
			if g.committed[ji] {
				continue
			}
			if err := writeChunk(g.c, g.jobs[ji].Chunk, blocks, g.carriers); err != nil {
				return landed, err
			}
			g.committed[ji] = true
			landed++
			g.red.bump(func(st *RedundancyStats) { st.Decodes++ })
			mDecodes.Inc()
		}
	}
	return landed, nil
}

// chunkView collects read-only pointers to chunk ch's blocks in C, row-major.
func chunkView(c *matrix.BlockMatrix, ch matrix.Chunk) []*matrix.Block {
	out := make([]*matrix.Block, 0, ch.Blocks())
	for i := ch.Row0; i < ch.Row0+ch.H; i++ {
		for j := ch.Col0; j < ch.Col0+ch.W; j++ {
			out = append(out, c.Block(i, j))
		}
	}
	return out
}

func wireBytes(blocks []*matrix.Block) int64 {
	if len(blocks) == 0 {
		return 0
	}
	return int64(len(blocks)) * int64(matrix.BlockWireSize(blocks[0].Q))
}

// cloneBlocks deep-copies a block list.
func cloneBlocks(blocks []*matrix.Block) []*matrix.Block {
	out := make([]*matrix.Block, len(blocks))
	for i, blk := range blocks {
		out[i] = blk.Clone()
	}
	return out
}

// validateRedundancy checks red.Units against the validated plan: worker and
// job ranges, and for parity units the full payload geometry — group
// consistency, member compatibility (same chunk shape, B columns, and
// installment schedule, which is what makes the weighted-sum algebra hold),
// and pre-encoded seed shapes.
func validateRedundancy(red *Redundancy, jobs []sim.PlanJob, nw, t int, c *matrix.BlockMatrix) error {
	groupMembers := make(map[int][]int)
	for i := range red.Units {
		ru := &red.Units[i]
		if ru.Worker < 0 || ru.Worker >= nw {
			return fmt.Errorf("engine: redundant unit %d references worker %d of %d", i, ru.Worker, nw)
		}
		if ru.Job >= 0 {
			if ru.Job >= len(jobs) {
				return fmt.Errorf("engine: redundant unit %d replicates job %d of %d", i, ru.Job, len(jobs))
			}
			continue
		}
		if len(ru.Members) == 0 || len(ru.Coeffs) != len(ru.Members) {
			return fmt.Errorf("engine: parity unit %d has %d members, %d coefficients", i, len(ru.Members), len(ru.Coeffs))
		}
		if prev, ok := groupMembers[ru.Group]; ok {
			if len(prev) != len(ru.Members) {
				return fmt.Errorf("engine: parity group %d has inconsistent member sets", ru.Group)
			}
			for s := range prev {
				if prev[s] != ru.Members[s] {
					return fmt.Errorf("engine: parity group %d has inconsistent member sets", ru.Group)
				}
			}
		} else {
			groupMembers[ru.Group] = ru.Members
		}
		if !ru.Chunk.Valid(c.Rows, c.Cols) {
			return fmt.Errorf("engine: parity unit %d chunk %v outside C (%dx%d)", i, ru.Chunk, c.Rows, c.Cols)
		}
		if len(ru.CSeed) != ru.Chunk.Blocks() {
			return fmt.Errorf("engine: parity unit %d seeds %d blocks for chunk %v", i, len(ru.CSeed), ru.Chunk)
		}
		if len(ru.ASeeds) != len(ru.Panels) {
			return fmt.Errorf("engine: parity unit %d has %d A seeds for %d installments", i, len(ru.ASeeds), len(ru.Panels))
		}
		for pi, p := range ru.Panels {
			if p[0] < 0 || p[1] > t || p[0] >= p[1] {
				return fmt.Errorf("engine: parity unit %d installment panels [%d,%d) outside t=%d", i, p[0], p[1], t)
			}
			if len(ru.ASeeds[pi]) != ru.Chunk.H*(p[1]-p[0]) {
				return fmt.Errorf("engine: parity unit %d installment %d seeds %d A blocks, want %d", i, pi, len(ru.ASeeds[pi]), ru.Chunk.H*(p[1]-p[0]))
			}
		}
		for s, ji := range ru.Members {
			if ji < 0 || ji >= len(jobs) {
				return fmt.Errorf("engine: parity unit %d member %d references job %d of %d", i, s, ji, len(jobs))
			}
			mc := jobs[ji].Chunk
			if mc.H != ru.Chunk.H || mc.W != ru.Chunk.W || mc.Col0 != ru.Chunk.Col0 {
				return fmt.Errorf("engine: parity unit %d member job %d chunk %v incompatible with parity chunk %v", i, ji, mc, ru.Chunk)
			}
			if len(jobs[ji].Panels) != len(ru.Panels) {
				return fmt.Errorf("engine: parity unit %d member job %d installment schedule differs", i, ji)
			}
			for pi, p := range jobs[ji].Panels {
				if p != ru.Panels[pi] {
					return fmt.Errorf("engine: parity unit %d member job %d installment schedule differs", i, ji)
				}
			}
		}
	}
	return nil
}

package coded

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/matrix"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/sim"
)

func TestParseModeAndSpec(t *testing.T) {
	for in, want := range map[string]Mode{"": ModeOff, "off": ModeOff, "Replicated": ModeReplicated, " coded ": ModeCoded} {
		got, err := ParseMode(in)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode accepted bogus")
	}
	for in, want := range map[string]struct {
		m Mode
		r int
	}{"off": {ModeOff, 0}, "replicated": {ModeReplicated, 1}, "coded:3": {ModeCoded, 3}, "replicated:0": {ModeReplicated, 0}} {
		m, r, err := ParseSpec(in)
		if err != nil || m != want.m || r != want.r {
			t.Errorf("ParseSpec(%q) = %v,%d,%v; want %v,%d", in, m, r, err, want.m, want.r)
		}
	}
	for _, in := range []string{"coded:-1", "coded:x", "bogus:1"} {
		if _, _, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted", in)
		}
	}
}

// randomList builds n random q×q blocks; integer-valued when exact is set, so
// MDS encode/decode arithmetic is exact and bitwise-comparable.
func randomList(rng *rand.Rand, n, q int, exact bool) []*matrix.Block {
	out := make([]*matrix.Block, n)
	for i := range out {
		b := matrix.NewBlock(q)
		for j := range b.Data {
			if exact {
				b.Data[j] = float64(rng.Intn(64) - 32)
			} else {
				b.Data[j] = rng.Float64()*2 - 1
			}
		}
		out[i] = b
	}
	return out
}

// encode builds r parity rows over the member lists with the planner's
// generalized-Vandermonde coefficients (node p, coef_i = p^i).
func encode(membersTrue [][]*matrix.Block, r, q int) (coeffs [][]float64, parities [][]*matrix.Block) {
	n := len(membersTrue[0])
	for p := 1; p <= r; p++ {
		cs := make([]float64, len(membersTrue))
		pow := 1.0
		for i := range cs {
			cs[i] = pow
			pow *= float64(p)
		}
		par := zeroBlocks(n, q)
		for s, m := range membersTrue {
			axpyList(par, cs[s], m)
		}
		coeffs = append(coeffs, cs)
		parities = append(parities, par)
	}
	return coeffs, parities
}

// TestReconstructSingleMissingBitwise: with integer payloads and the p=1
// all-ones parity, recovering one missing member is pure integer add/subtract
// and must be bitwise-exact against the oracle.
func TestReconstructSingleMissingBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q, n := 3, 4
	truth := [][]*matrix.Block{randomList(rng, n, q, true), randomList(rng, n, q, true), randomList(rng, n, q, true)}
	coeffs, parities := encode(truth, 1, q)
	for miss := 0; miss < len(truth); miss++ {
		members := make([][]*matrix.Block, len(truth))
		for s := range truth {
			if s != miss {
				members[s] = truth[s]
			}
		}
		got, ok := Reconstruct(members, coeffs, parities)
		if !ok {
			t.Fatalf("miss=%d: not ok", miss)
		}
		for i, b := range got[miss] {
			if d := b.MaxAbsDiff(truth[miss][i]); d != 0 {
				t.Fatalf("miss=%d block %d: off by %g (want bitwise)", miss, i, d)
			}
		}
	}
}

// TestReconstructMultiMissingTolerance solves two missing members from two
// parity rows over float payloads; Gaussian elimination introduces rounding,
// so the oracle comparison is within tolerance.
func TestReconstructMultiMissingTolerance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	q, n := 3, 5
	truth := [][]*matrix.Block{
		randomList(rng, n, q, false), randomList(rng, n, q, false),
		randomList(rng, n, q, false), randomList(rng, n, q, false),
	}
	coeffs, parities := encode(truth, 2, q)
	members := [][]*matrix.Block{nil, truth[1], nil, truth[3]}
	got, ok := Reconstruct(members, coeffs, parities)
	if !ok {
		t.Fatal("not ok")
	}
	for _, miss := range []int{0, 2} {
		for i, b := range got[miss] {
			if d := b.MaxAbsDiff(truth[miss][i]); d > 1e-9 {
				t.Fatalf("miss=%d block %d: off by %g", miss, i, d)
			}
		}
	}
	// Inputs must not be mutated by the solve.
	_, reParities := encode(truth, 2, q)
	for j := range parities {
		for i := range parities[j] {
			if d := parities[j][i].MaxAbsDiff(reParities[j][i]); d != 0 {
				t.Fatalf("parity row %d block %d mutated by Reconstruct", j, i)
			}
		}
	}
}

// TestReconstructConditioning pins groupWidth's decode bound: for every
// parity count r ≤ groupWidth, every missing subset of a full group is
// recovered from every set of received parity rows large enough to solve it,
// within the relative error groupWidth's comment states.
func TestReconstructConditioning(t *testing.T) {
	const bound = 1e-12
	rng := rand.New(rand.NewSource(4))
	q, n := 4, 3
	truth := make([][]*matrix.Block, groupWidth)
	scale, zero := 0.0, matrix.NewBlock(q)
	for s := range truth {
		truth[s] = randomList(rng, n, q, false)
		for _, b := range truth[s] {
			scale = math.Max(scale, b.MaxAbsDiff(zero))
		}
	}
	worst := 0.0
	for r := 1; r <= groupWidth; r++ {
		coeffs, parities := encode(truth, r, q)
		for miss := 1; miss < 1<<groupWidth; miss++ {
			for rows := 1; rows < 1<<r; rows++ {
				if bits.OnesCount(uint(rows)) < bits.OnesCount(uint(miss)) {
					continue
				}
				members := make([][]*matrix.Block, groupWidth)
				for s := range members {
					if miss&(1<<s) == 0 {
						members[s] = truth[s]
					}
				}
				var cs [][]float64
				var ps [][]*matrix.Block
				for j := 0; j < r; j++ {
					if rows&(1<<j) != 0 {
						cs, ps = append(cs, coeffs[j]), append(ps, parities[j])
					}
				}
				got, ok := Reconstruct(members, cs, ps)
				if !ok {
					t.Fatalf("r=%d missing %04b rows %04b: not solved", r, miss, rows)
				}
				for s, list := range got {
					for i, b := range list {
						worst = math.Max(worst, b.MaxAbsDiff(truth[s][i])/scale)
					}
				}
			}
		}
	}
	t.Logf("worst relative decode error at width %d: %.2g", groupWidth, worst)
	if worst > bound {
		t.Fatalf("worst relative decode error %.2g exceeds the stated bound %.0e", worst, bound)
	}
}

func TestReconstructUnderdetermined(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q, n := 2, 3
	truth := [][]*matrix.Block{randomList(rng, n, q, false), randomList(rng, n, q, false), randomList(rng, n, q, false)}
	coeffs, parities := encode(truth, 1, q)
	if _, ok := Reconstruct([][]*matrix.Block{nil, nil, truth[2]}, coeffs, parities); ok {
		t.Fatal("2 missing from 1 parity reported ok")
	}
	if out, ok := Reconstruct(truth, coeffs, parities); !ok || len(out) != 0 {
		t.Fatalf("nothing missing: got %v, %v", out, ok)
	}
}

func testbed() *platform.Platform {
	return platform.MustNew(
		platform.Worker{C: 1, W: 1, M: 40},
		platform.Worker{C: 2, W: 1.5, M: 24},
		platform.Worker{C: 1.5, W: 2, M: 60},
	)
}

func buildMatrices(t *testing.T, inst sched.Instance, q int, seed int64) (a, b, c, want *matrix.BlockMatrix) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	a = matrix.NewBlockMatrix(inst.R, inst.T, q)
	b = matrix.NewBlockMatrix(inst.T, inst.S, q)
	c = matrix.NewBlockMatrix(inst.R, inst.S, q)
	a.FillRandom(rng)
	b.FillRandom(rng)
	c.FillRandom(rng)
	want = c.Clone()
	if err := matrix.Multiply(want, a, b); err != nil {
		t.Fatal(err)
	}
	return a, b, c, want
}

func TestPlanOffAndDegenerate(t *testing.T) {
	inst := sched.Instance{R: 6, S: 9, T: 4}
	res, err := sched.Het{}.Schedule(testbed(), inst)
	if err != nil {
		t.Fatal(err)
	}
	a, _, c, _ := buildMatrices(t, inst, 3, 5)
	red, err := Plan(inst.T, res.Plan(), a, c, 3, Options{Mode: ModeOff})
	if err != nil || red != nil {
		t.Fatalf("ModeOff: got %v, %v; want nil, nil", red, err)
	}
	red, err = Plan(inst.T, res.Plan(), a, c, 1, Options{Mode: ModeReplicated})
	if err != nil || red == nil || len(red.Units) != 0 {
		t.Fatalf("1 worker: got %+v, %v; want empty-units gate", red, err)
	}
}

// TestPlanPlacement checks the planner's structural invariants: replicas
// never land on their job's own worker, parity units carry consistent
// geometry, and parity placement prefers non-member workers.
func TestPlanPlacement(t *testing.T) {
	inst := sched.Instance{R: 8, S: 12, T: 5}
	res, err := sched.Het{}.Schedule(testbed(), inst)
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Plan()
	jobs, _, err := sim.JobsFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	a, _, c, _ := buildMatrices(t, inst, 3, 6)

	red, err := Plan(inst.T, plan, a, c, 3, Options{Mode: ModeReplicated, R: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(red.Units) != 2 {
		t.Fatalf("replicated R=2: %d units", len(red.Units))
	}
	for _, u := range red.Units {
		if u.Job < 0 || u.Job >= len(jobs) {
			t.Fatalf("replica of job %d out of range", u.Job)
		}
		if u.Worker == jobs[u.Job].Worker {
			t.Errorf("replica of job %d placed on its own worker %d", u.Job, u.Worker)
		}
	}

	red, err = Plan(inst.T, plan, a, c, 3, Options{Mode: ModeCoded, R: 1})
	if err != nil {
		t.Fatal(err)
	}
	if red.Reconstruct == nil {
		t.Fatal("coded plan without Reconstruct")
	}
	covered := make(map[int]bool)
	for _, u := range red.Units {
		if u.Job >= 0 {
			t.Fatalf("coded plan emitted a replica unit %+v", u)
		}
		if len(u.Coeffs) != len(u.Members) {
			t.Fatalf("group %d: %d coeffs for %d members", u.Group, len(u.Coeffs), len(u.Members))
		}
		if len(u.CSeed) != u.Chunk.Blocks() {
			t.Fatalf("group %d: CSeed %d blocks for chunk %v", u.Group, len(u.CSeed), u.Chunk)
		}
		if len(u.ASeeds) != len(u.Panels) {
			t.Fatalf("group %d: %d ASeeds for %d panels", u.Group, len(u.ASeeds), len(u.Panels))
		}
		for _, ji := range u.Members {
			covered[ji] = true
		}
	}
	for ji := range jobs {
		if !covered[ji] {
			t.Errorf("job %d not covered by any parity group", ji)
		}
	}
}

// csBackend is the coded tests' in-process compute backend: real installment
// arithmetic, plus a stall predicate that freezes matching units at RecvC
// until CancelUnit releases them (see the engine package's stallBackend).
type csBackend struct {
	nw    int
	stall func(w int, ch matrix.Chunk) bool

	mu      sync.Mutex
	held    []map[matrix.Chunk][]*matrix.Block
	cancels []map[matrix.Chunk]chan struct{}
}

func newCSBackend(nw int, stall func(w int, ch matrix.Chunk) bool) *csBackend {
	be := &csBackend{nw: nw, stall: stall}
	be.held = make([]map[matrix.Chunk][]*matrix.Block, nw)
	be.cancels = make([]map[matrix.Chunk]chan struct{}, nw)
	for w := 0; w < nw; w++ {
		be.held[w] = make(map[matrix.Chunk][]*matrix.Block)
		be.cancels[w] = make(map[matrix.Chunk]chan struct{})
	}
	return be
}

func (be *csBackend) Workers() int { return be.nw }

func (be *csBackend) SendC(w int, ch matrix.Chunk, blocks []*matrix.Block) error {
	be.mu.Lock()
	defer be.mu.Unlock()
	if _, dup := be.held[w][ch]; dup {
		return fmt.Errorf("worker %d already holds chunk %v", w, ch)
	}
	be.held[w][ch] = blocks
	return nil
}

func (be *csBackend) SendAB(w int, ch matrix.Chunk, k0, k1 int, a, b []*matrix.Block) error {
	be.mu.Lock()
	blocks, ok := be.held[w][ch]
	be.mu.Unlock()
	if !ok {
		return fmt.Errorf("worker %d got inputs for %v it does not hold", w, ch)
	}
	return engine.ApplyInstallment(ch, blocks, a, b, k1-k0)
}

func (be *csBackend) RecvC(w int, ch matrix.Chunk) ([]*matrix.Block, error) {
	be.mu.Lock()
	blocks, ok := be.held[w][ch]
	if !ok {
		be.mu.Unlock()
		return nil, fmt.Errorf("worker %d asked to flush %v it does not hold", w, ch)
	}
	if be.stall != nil && be.stall(w, ch) {
		cancel, ok := be.cancels[w][ch]
		if !ok {
			cancel = make(chan struct{})
			be.cancels[w][ch] = cancel
		}
		be.mu.Unlock()
		select {
		case <-cancel:
		case <-time.After(30 * time.Second):
			return nil, fmt.Errorf("worker %d stalled on %v and was never canceled", w, ch)
		}
		be.mu.Lock()
		delete(be.cancels[w], ch)
		delete(be.held[w], ch)
		be.mu.Unlock()
		return nil, fmt.Errorf("stalled unit dropped: %w", engine.ErrUnitCanceled)
	}
	delete(be.held[w], ch)
	be.mu.Unlock()
	return blocks, nil
}

func (be *csBackend) CancelUnit(w int, ch matrix.Chunk) {
	be.mu.Lock()
	defer be.mu.Unlock()
	cancel, ok := be.cancels[w][ch]
	if !ok {
		// The unit has not reached its flush yet: leave the cancel for RecvC
		// to find, as the real master's per-link cancel flag does.
		cancel = make(chan struct{})
		be.cancels[w][ch] = cancel
	}
	select {
	case <-cancel:
	default:
		close(cancel)
	}
}

// TestPlannedRedundancyHealthyBitwise runs both modes through the engine on
// a healthy fleet and demands C bitwise-identical to the plain pipelined
// executor: replicas replay identical systematic work, and parity results
// are discarded unused when every member returns.
func TestPlannedRedundancyHealthyBitwise(t *testing.T) {
	inst := sched.Instance{R: 8, S: 12, T: 5}
	res, err := sched.Het{}.Schedule(testbed(), inst)
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Plan()
	q := 3
	for _, mode := range []Mode{ModeReplicated, ModeCoded} {
		a, b, c, _ := buildMatrices(t, inst, q, 7)
		_, _, base, _ := buildMatrices(t, inst, q, 7)
		cfg := engine.Config{Workers: testbed().P(), T: inst.T, Pipelined: true}
		if err := engine.RunContext(context.Background(), cfg, plan, a, b, base); err != nil {
			t.Fatal(err)
		}
		red, err := Plan(inst.T, plan, a, c, testbed().P(), Options{Mode: mode, R: 2})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		cfg.Options.Redundancy = red
		if err := engine.RunContext(context.Background(), cfg, plan, a, b, c); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		d := c.MaxAbsDiff(base)
		if st := red.Stats(); st.Decodes == 0 {
			// No decode fired: every committed result was systematic and the
			// output must be bitwise-identical to the plain executor's.
			if d != 0 {
				t.Fatalf("%s: C differs from plain run by %g (want bitwise equal, stats %+v)", mode, d, st)
			}
		} else if d > 1e-9 {
			// An end-of-run race let a parity decode beat a healthy copy (the
			// copy cap was saturated, so the gate was within its rights);
			// reconstructed values are exact only to solver tolerance.
			t.Fatalf("%s: C differs from plain run by %g after %d decodes", mode, d, st.Decodes)
		}
	}
}

// TestCodedDecodeRecoversStalledJob forces the parity path end to end: every
// systematic copy of one group member stalls at its result (the chosen job is
// not its group's first member, so its chunk coordinates are distinct from
// the parity unit's borrowed ones), leaving the pre-encoded parity unit as
// the only way to complete the job. The gate must decode the missing member,
// wire-cancel the stalled copies, and produce a C that matches the serial
// oracle within solver tolerance.
func TestCodedDecodeRecoversStalledJob(t *testing.T) {
	inst := sched.Instance{R: 8, S: 12, T: 5}
	res, err := sched.Het{}.Schedule(testbed(), inst)
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Plan()
	jobs, _, err := sim.JobsFromPlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	a, b, c, want := buildMatrices(t, inst, 3, 8)
	red, err := Plan(inst.T, plan, a, c, testbed().P(), Options{Mode: ModeCoded, R: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Stall every copy of one group member's chunk. The victim must not be
	// its group's first member (the parity unit borrows that member's chunk
	// coordinates, so stalling it would stall the parity too), and its primary
	// must not live on the parity's host worker (the stalled primary would
	// wedge the host's queue before the parity ever dispatched).
	victim := matrix.Chunk{}
	for _, u := range red.Units {
		for _, ji := range u.Members[1:] {
			if jobs[ji].Worker != u.Worker {
				victim = jobs[ji].Chunk
				break
			}
		}
		if victim != (matrix.Chunk{}) {
			break
		}
	}
	if victim == (matrix.Chunk{}) {
		t.Skip("no stallable multi-member parity group in this plan")
	}
	be := newCSBackend(testbed().P(), func(w int, ch matrix.Chunk) bool { return ch == victim })
	start := time.Now()
	if err := engine.Dispatch(context.Background(), inst.T, plan, a, b, c, be, engine.Options{Redundancy: red}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("run took %v; the stalled job was waited out instead of decoded around", elapsed)
	}
	if d := c.MaxAbsDiff(want); d > 1e-6 {
		t.Fatalf("decoded C differs from serial oracle by %g", d)
	}
	st := red.Stats()
	if st.Decodes == 0 {
		t.Errorf("no decode recorded (stats %+v)", st)
	}
	if st.Absorbed == 0 {
		t.Errorf("stalled copies never recorded as absorbed (stats %+v)", st)
	}
}

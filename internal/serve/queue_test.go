package serve

import (
	"context"
	"errors"
	"log/slog"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/matrix"
	mmnet "repro/internal/net"
	"repro/internal/sched"
)

func TestParseClassAndPolicy(t *testing.T) {
	for name, want := range map[string]JobClass{
		"": ClassStandard, "standard": ClassStandard, "Interactive": ClassInteractive,
		" batch ": ClassBatch,
	} {
		got, err := ParseClass(name)
		if err != nil || got != want {
			t.Errorf("ParseClass(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseClass("bulk"); err == nil {
		t.Error("ParseClass accepted an unknown class")
	}
	for name, want := range map[string]string{
		"": PolicyFIFO, "FIFO": PolicyFIFO, "sjf": PolicySJF, " priority ": PolicyPriority,
	} {
		got, err := ParseQueuePolicy(name)
		if err != nil || got != want {
			t.Errorf("ParseQueuePolicy(%q) = %q, %v; want %q", name, got, err, want)
		}
	}
	if _, err := ParseQueuePolicy("lifo"); err == nil {
		t.Error("ParseQueuePolicy accepted an unknown policy")
	}
}

// queueOf builds a bare server (no fleet, no loop) holding the given queued
// jobs — pickLocked only reads policy, cfg, log and the queue.
func queueOf(policy string, jobs ...*job) *Server {
	return &Server{policy: policy, log: slog.New(slog.DiscardHandler), queue: jobs}
}

// TestPickLockedPolicies pins the pick rule per policy on a hand-built
// queue: fifo takes the head, sjf the cheapest, priority the best class, and
// a head job past the aging bound preempts both scans.
func TestPickLockedPolicies(t *testing.T) {
	now := time.Now()
	mk := func(id uint64, edge, q int, class JobClass, age time.Duration) *job {
		return &job{
			id: id, inst: sched.Instance{R: edge, S: edge, T: edge}, q: q,
			class: class, submitted: now.Add(-age), state: JobQueued,
		}
	}
	big := mk(1, 8, 16, ClassStandard, 3*time.Second)
	small := mk(2, 2, 8, ClassStandard, 2*time.Second)
	tiny := mk(3, 2, 4, ClassBatch, time.Second)
	urgent := mk(4, 8, 16, ClassInteractive, 0)

	if got := queueOf(PolicyFIFO, big, small, tiny, urgent).pickLocked(now); got != big {
		t.Errorf("fifo picked job %d, want head %d", got.id, big.id)
	}
	if got := queueOf(PolicySJF, big, small, tiny, urgent).pickLocked(now); got != tiny {
		t.Errorf("sjf picked job %d, want cheapest %d", got.id, tiny.id)
	}
	if got := queueOf(PolicyPriority, big, small, tiny, urgent).pickLocked(now); got != urgent {
		t.Errorf("priority picked job %d, want interactive %d", got.id, urgent.id)
	}

	// Aging: once the head has waited past the bound, sjf and priority both
	// fall back to it, and the promotion is counted.
	stale := mk(5, 8, 16, ClassBatch, defaultAgingBound+time.Second)
	for _, policy := range []string{PolicySJF, PolicyPriority} {
		aged0 := mQueueAged.Value()
		if got := queueOf(policy, stale, tiny, urgent).pickLocked(now); got != stale {
			t.Errorf("%s picked job %d over the aged head %d", policy, got.id, stale.id)
		}
		if mQueueAged.Value() != aged0+1 {
			t.Errorf("%s: mm_serve_queue_aged_total did not move on promotion", policy)
		}
	}

	// The aging counter stays put when the aged head is the only queued job:
	// the policy would have picked it anyway.
	aged0 := mQueueAged.Value()
	if got := queueOf(PolicySJF, stale).pickLocked(now); got != stale {
		t.Errorf("single-job queue picked %d", got.id)
	}
	if mQueueAged.Value() != aged0 {
		t.Error("aging counted a promotion with nothing to bypass")
	}
}

// oneWorkerServer builds a 1-worker fleet so dispatch is strictly serial:
// completion order equals pick order, making policy ordering observable
// without races.
func oneWorkerServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	return oneWorkerStalledServer(t, cfg, 0)
}

// oneWorkerStalledServer is oneWorkerServer with the worker rigged to stall
// for stallFor after its first installment (0 disables). The stall pins down
// how long a blocker job holds the worker, so "submitted while the blocker
// runs" is a guarantee rather than a race against loopback compute speed.
func oneWorkerStalledServer(t *testing.T, cfg Config, stallFor time.Duration) *Server {
	t.Helper()
	var opts func(i int) mmnet.WorkerOptions
	if stallFor > 0 {
		opts = stalledWorkerOpts(map[int]bool{0: true}, stallFor)
	}
	addrs := startWorkers(t, 1, opts)
	f, err := NewFleet(addrs, homSpecs(1), FleetOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	cfg.Logger = testLogger(t)
	s := NewServer(f, cfg)
	t.Cleanup(s.Close)
	return s
}

// blockerInst is the shape every blocker product uses. It is deliberately
// small: the stalled worker (oneWorkerStalledServer), not compute time, is
// what guarantees the blocker holds the fleet while probes queue behind it.
var blockerInst = sched.Instance{R: 4, S: 4, T: 4}

const blockerQ = 16

// submitBlocker submits the blocker product and blocks until the server has
// leased it — only then is a subsequent submission guaranteed to queue
// behind it rather than race it for the worker.
func submitBlocker(t *testing.T, s *Server, seed int64) uint64 {
	t.Helper()
	a, b, c, _ := testMatrices(t, blockerInst, blockerQ, seed)
	id, err := s.Submit(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, js := range s.Status().Jobs {
			if js.ID == id {
				switch js.State {
				case "running":
					return id
				case "queued":
				default:
					t.Fatalf("blocker reached state %s before any probe was submitted", js.State)
				}
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatal("blocker never started running")
	return 0
}

// waitOrder waits for every job and returns their ids in completion order.
func waitOrder(t *testing.T, s *Server, ids []uint64) []uint64 {
	t.Helper()
	type fin struct {
		id uint64
		at time.Time
	}
	var mu sync.Mutex
	var fins []fin
	var wg sync.WaitGroup
	for _, id := range ids {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Wait(id); err != nil {
				t.Errorf("job %d: %v", id, err)
				return
			}
			mu.Lock()
			fins = append(fins, fin{id, time.Now()})
			mu.Unlock()
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(fins); i++ {
		if fins[i].at.Before(fins[i-1].at) {
			fins[i], fins[i-1] = fins[i-1], fins[i]
		}
	}
	out := make([]uint64, len(fins))
	for i, f := range fins {
		out[i] = f.id
	}
	return out
}

// TestQueuePolicyDispatchOrder drives each policy end to end on a serial
// (1-worker) fleet: a blocker occupies the worker while two probes queue,
// and the probes' completion order exposes which one the policy dispatched
// first. Every C is still checked bitwise — policies reorder admission,
// never arithmetic.
func TestQueuePolicyDispatchOrder(t *testing.T) {
	bigInst, smallInst := sched.Instance{R: 6, S: 6, T: 6}, sched.Instance{R: 2, S: 2, T: 2}
	cases := []struct {
		policy    string
		classA    JobClass // first probe submitted (the big one under fifo/sjf)
		classB    JobClass
		wantFirst int // index (0 = probe A, 1 = probe B) expected to finish first
		sameSize  bool
	}{
		{policy: PolicyFIFO, wantFirst: 0}, // submission order
		{policy: PolicySJF, wantFirst: 1},  // small jumps big
		{policy: PolicyPriority, classA: ClassBatch, classB: ClassInteractive, wantFirst: 1, sameSize: true}, // class order
	}
	for _, tc := range cases {
		t.Run(tc.policy, func(t *testing.T) {
			s := oneWorkerStalledServer(t, Config{QueuePolicy: tc.policy, NoCache: true}, 50*time.Millisecond)
			blocker := submitBlocker(t, s, 41)

			instA := bigInst
			if tc.sameSize {
				instA = smallInst
			}
			aa, ab, ac, awant := testMatrices(t, instA, 8, 42)
			sa, sb, sc, swant := testMatrices(t, smallInst, 8, 43)
			idA, err := s.SubmitClass(aa, ab, ac, nil, tc.classA)
			if err != nil {
				t.Fatal(err)
			}
			idB, err := s.SubmitClass(sa, sb, sc, nil, tc.classB)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Wait(blocker); err != nil {
				t.Fatal(err)
			}
			order := waitOrder(t, s, []uint64{idA, idB})
			if t.Failed() {
				return
			}
			want := []uint64{idA, idB}[tc.wantFirst]
			if order[0] != want {
				t.Errorf("%s dispatched job %d first, want %d", tc.policy, order[0], want)
			}
			for _, chk := range []struct{ c, want *matrix.BlockMatrix }{{ac, awant}, {sc, swant}} {
				if d := chk.c.MaxAbsDiff(chk.want); d != 0 {
					t.Errorf("C differs from the engine oracle by %g", d)
				}
			}
		})
	}
}

// TestAgingBoundsStarvation pins the no-starvation guarantee end to end:
// under sjf with a tiny aging bound, a big job at the head of the queue is
// dispatched before a cheaper later arrival, because it aged past the bound
// while the blocker held the fleet.
func TestAgingBoundsStarvation(t *testing.T) {
	s := oneWorkerStalledServer(t, Config{QueuePolicy: PolicySJF, AgingBound: time.Millisecond, NoCache: true}, 75*time.Millisecond)
	// The aged counter must be read before any pick this test causes can
	// bump it — the blocker's completion (and the aging pick behind it) can
	// land at any point after the probes are queued.
	aged0 := mQueueAged.Value()
	blocker := submitBlocker(t, s, 51)

	bigA, bigB, bigC, _ := testMatrices(t, sched.Instance{R: 6, S: 6, T: 6}, 16, 52)
	big, err := s.Submit(bigA, bigB, bigC)
	if err != nil {
		t.Fatal(err)
	}
	smallA, smallB, smallC, _ := testMatrices(t, sched.Instance{R: 2, S: 2, T: 2}, 8, 53)
	small, err := s.Submit(smallA, smallB, smallC)
	if err != nil {
		t.Fatal(err)
	}
	// The stalled worker holds the blocker for 75ms, so by the time the next
	// pick happens the big head job has aged far past the 1ms bound.
	if err := s.Wait(blocker); err != nil {
		t.Fatal(err)
	}
	order := waitOrder(t, s, []uint64{big, small})
	if t.Failed() {
		return
	}
	if order[0] != big {
		t.Errorf("sjf with a 1ms aging bound dispatched job %d first, want the aged big job %d", order[0], big)
	}
	if mQueueAged.Value() == aged0 {
		t.Error("aging promotion was not counted")
	}
}

// TestCancelWhileQueuedEveryPolicy cancels a still-queued job under each
// policy and checks it never runs, errors with context.Canceled, and leaves
// no residue in the per-class queue stats or depth gauge.
func TestCancelWhileQueuedEveryPolicy(t *testing.T) {
	for _, policy := range []string{PolicyFIFO, PolicySJF, PolicyPriority} {
		t.Run(policy, func(t *testing.T) {
			s := oneWorkerStalledServer(t, Config{QueuePolicy: policy, NoCache: true}, 50*time.Millisecond)
			blocker := submitBlocker(t, s, 61)

			a, b, c, _ := testMatrices(t, sched.Instance{R: 2, S: 2, T: 2}, 8, 62)
			depth0 := gQueueDepth.With("interactive").Value()
			id, err := s.SubmitClass(a, b, c, nil, ClassInteractive)
			if err != nil {
				t.Fatal(err)
			}
			if got := gQueueDepth.With("interactive").Value(); got != depth0+1 {
				t.Errorf("queue depth gauge = %d after enqueue, want %d", got, depth0+1)
			}
			if got := s.Status().QueuedByClass["interactive"]; got != 1 {
				t.Errorf("QueuedByClass[interactive] = %d, want 1", got)
			}
			if err := s.Cancel(id); err != nil {
				t.Fatal(err)
			}
			if err := s.Wait(id); !errors.Is(err, context.Canceled) {
				t.Errorf("canceled queued job's Wait = %v, want context.Canceled", err)
			}
			if got := gQueueDepth.With("interactive").Value(); got != depth0 {
				t.Errorf("queue depth gauge = %d after cancel, want %d", got, depth0)
			}
			st := s.Status()
			if st.QueuedByClass["interactive"] != 0 {
				t.Errorf("QueuedByClass[interactive] = %d after cancel", st.QueuedByClass["interactive"])
			}
			if err := s.Wait(blocker); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStatsMetricsAgreePerClass holds a backlog of classed jobs and checks
// the three accounting surfaces against each other: Stats.QueuedByClass, the
// mm_serve_queue_depth gauge per class, and each job's Status class string.
func TestStatsMetricsAgreePerClass(t *testing.T) {
	s := oneWorkerStalledServer(t, Config{QueuePolicy: PolicyPriority, NoCache: true}, 50*time.Millisecond)

	depth := func(class string) int64 { return gQueueDepth.With(class).Value() }
	base := map[string]int64{}
	for _, c := range []string{"interactive", "standard", "batch"} {
		base[c] = depth(c)
	}

	wait0 := hQueueWait.Count()
	blocker := submitBlocker(t, s, 71)
	var ids []uint64
	for _, class := range []JobClass{ClassInteractive, ClassBatch, ClassBatch} {
		a, b, c, _ := testMatrices(t, sched.Instance{R: 2, S: 2, T: 2}, 8, 72)
		id, err := s.SubmitClass(a, b, c, nil, class)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	st := s.Status()
	want := map[string]int{"interactive": 1, "batch": 2}
	for class, n := range want {
		if st.QueuedByClass[class] != n {
			t.Errorf("QueuedByClass[%s] = %d, want %d", class, st.QueuedByClass[class], n)
		}
		if got := depth(class) - base[class]; got != int64(n) {
			t.Errorf("mm_serve_queue_depth{class=%q} moved %d, want %d", class, got, n)
		}
	}
	sum := 0
	for _, n := range st.QueuedByClass {
		sum += n
	}
	if sum != st.Queued {
		t.Errorf("QueuedByClass sums to %d, Queued = %d", sum, st.Queued)
	}
	classOf := map[uint64]string{ids[0]: "interactive", ids[1]: "batch", ids[2]: "batch"}
	for _, js := range st.Jobs {
		if wantClass, ok := classOf[js.ID]; ok && js.Class != wantClass {
			t.Errorf("job %d reports class %q, want %q", js.ID, js.Class, wantClass)
		}
	}

	if err := s.Wait(blocker); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if err := s.Wait(id); err != nil {
			t.Fatal(err)
		}
	}
	st = s.Status()
	if st.Queued != 0 || len(st.QueuedByClass) != 0 {
		t.Errorf("after drain: Queued=%d QueuedByClass=%v", st.Queued, st.QueuedByClass)
	}
	for _, class := range []string{"interactive", "standard", "batch"} {
		if got := depth(class); got != base[class] {
			t.Errorf("mm_serve_queue_depth{class=%q} = %d after drain, want %d", class, got, base[class])
		}
	}
	// Every dispatched job (blocker + 3 probes) observed its queue wait.
	if got := hQueueWait.Count() - wait0; got != 4 {
		t.Errorf("mm_serve_queue_wait_seconds observed %d jobs, want 4", got)
	}
}

// TestAdmissionTokenBucket drives the per-class buckets on a fake clock:
// burst admitted, overflow rejected, refill at the configured rate, and one
// class's exhaustion never touching another class's tokens.
func TestAdmissionTokenBucket(t *testing.T) {
	now := time.Unix(1000, 0)
	a := newAdmission(2, 2) // 2 jobs/s, burst 2
	a.now = func() time.Time { return now }

	for i := 0; i < 2; i++ {
		if !a.take(ClassBatch) {
			t.Fatalf("take %d rejected within burst", i)
		}
	}
	if a.take(ClassBatch) {
		t.Fatal("take admitted past the burst with no time elapsed")
	}
	// Batch is drained; interactive's bucket must still be full.
	if !a.take(ClassInteractive) {
		t.Fatal("interactive rejected after a batch flood")
	}
	// Half a second at 2 jobs/s refills one batch token.
	now = now.Add(500 * time.Millisecond)
	if !a.take(ClassBatch) {
		t.Fatal("take rejected after refill")
	}
	if a.take(ClassBatch) {
		t.Fatal("take admitted a second job after a one-token refill")
	}
	rej := a.rejectedByClass()
	if rej["batch"] != 2 || rej["interactive"] != 0 {
		t.Errorf("rejectedByClass = %v, want batch=2 interactive=0", rej)
	}

	// Default burst: one second of refill, at least 1.
	if b := newAdmission(0.25, 0); b.burst != 1 {
		t.Errorf("newAdmission(0.25, 0).burst = %g, want 1", b.burst)
	}
	if b := newAdmission(3.5, 0); b.burst != 4 {
		t.Errorf("newAdmission(3.5, 0).burst = %g, want 4", b.burst)
	}
	if newAdmission(0, 5) != nil {
		t.Error("newAdmission(0, …) should disable admission")
	}
}

// TestAdmissionRejectsAtSubmit checks the server-level behavior: with a
// one-job bucket, the second immediate submission fails with ErrAdmission,
// the rejection is visible in Stats and the rejection counter, and the
// admitted job is untouched.
func TestAdmissionRejectsAtSubmit(t *testing.T) {
	s := oneWorkerServer(t, Config{AdmissionRate: 0.001, AdmissionBurst: 1, NoCache: true})

	rej0 := mQueueRejected.With("standard").Value()
	a, b, c, want := testMatrices(t, sched.Instance{R: 2, S: 2, T: 2}, 8, 81)
	id, err := s.Submit(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	a2, b2, c2, _ := testMatrices(t, sched.Instance{R: 2, S: 2, T: 2}, 8, 82)
	if _, err := s.Submit(a2, b2, c2); !errors.Is(err, ErrAdmission) {
		t.Fatalf("second submit = %v, want ErrAdmission", err)
	}
	if got := mQueueRejected.With("standard").Value() - rej0; got != 1 {
		t.Errorf("mm_serve_queue_admission_rejected_total moved %d, want 1", got)
	}
	if got := s.Status().AdmissionRejected["standard"]; got != 1 {
		t.Errorf("Stats.AdmissionRejected[standard] = %d, want 1", got)
	}
	if err := s.Wait(id); err != nil {
		t.Fatal(err)
	}
	if d := c.MaxAbsDiff(want); d != 0 {
		t.Errorf("admitted job's C differs from the oracle by %g", d)
	}
}

// TestSubmitProductClassEndToEnd submits a classed product over the real
// client protocol and checks the class is visible daemon-side and the result
// is bitwise-correct; a standard-class submission with nil panels round-trips
// on the same one frame.
func TestSubmitProductClassEndToEnd(t *testing.T) {
	s := oneWorkerServer(t, Config{QueuePolicy: PolicyPriority, NoCache: true})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go s.ListenAndServe(ln)
	daemon := ln.Addr().String()

	inst := sched.Instance{R: 4, S: 6, T: 3}
	a, b, c, want := testMatrices(t, inst, 8, 91)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	out, id, err := SubmitProduct(ctx, daemon, a, b, c, nil, ClassBatch)
	if err != nil {
		t.Fatal(err)
	}
	if d := out.MaxAbsDiff(want); d != 0 {
		t.Errorf("C differs from the oracle by %g", d)
	}
	found := false
	for _, js := range s.Status().Jobs {
		if js.ID == id {
			found = true
			if js.Class != "batch" {
				t.Errorf("daemon reports class %q, want batch", js.Class)
			}
		}
	}
	if !found {
		t.Errorf("job %d missing from daemon status", id)
	}

	a2, b2, c2, want2 := testMatrices(t, inst, 8, 92)
	out2, id2, err := SubmitProduct(ctx, daemon, a2, b2, c2, nil, ClassStandard)
	if err != nil {
		t.Fatal(err)
	}
	if d := out2.MaxAbsDiff(want2); d != 0 {
		t.Errorf("standard-class C differs from the oracle by %g", d)
	}
	for _, js := range s.Status().Jobs {
		if js.ID == id2 && js.Class != "standard" {
			t.Errorf("daemon reports class %q for the nil-panels submit, want standard", js.Class)
		}
	}
}

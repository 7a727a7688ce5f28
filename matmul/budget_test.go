package matmul

import (
	"context"
	stdnet "net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	mmnet "repro/internal/net"
	"repro/internal/platform"
	"repro/internal/serve"
)

// The two budgets below are the tier-1 tripwires of the data path, so a gain
// measured by bench/ cannot rot between benchmark runs: a Remote job
// allocates a small fraction of its operand bytes (every per-job block is
// pool-born or decoded in place), and a small job costs no more socket
// calls than it used to (blocks coalesce in the links' buffers).

// countingListener counts the Read and Write calls on the connections it
// accepts — one end of a link, seen from the accepting process.
type countingListener struct {
	stdnet.Listener
	reads, writes atomic.Int64
}

func (l *countingListener) Accept() (stdnet.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: conn, l: l}, nil
}

type countingConn struct {
	stdnet.Conn
	l *countingListener
}

func (c *countingConn) Read(p []byte) (int, error)  { c.l.reads.Add(1); return c.Conn.Read(p) }
func (c *countingConn) Write(p []byte) (int, error) { c.l.writes.Add(1); return c.Conn.Write(p) }

// startCountedDaemon is startDaemon over 2 workers — worker i caching in
// caches[i], cacheless where that is nil — with the daemon's client listener
// and worker 0's listener counted. Heartbeats and keepalive pings are pushed
// out of the test's lifetime: every counted call belongs to a job.
func startCountedDaemon(t *testing.T, caches [2]*cache.PanelCache) (addr string, client, worker *countingListener) {
	t.Helper()
	listen := func() *countingListener {
		ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		return &countingListener{Listener: ln}
	}
	addrs := make([]string, 2)
	for i := range addrs {
		ln := listen()
		if i == 0 {
			worker = ln
		}
		addrs[i] = ln.Addr().String()
		go mmnet.Serve(ln, addrs[i], mmnet.WorkerOptions{Heartbeat: time.Hour, Cache: caches[i]})
	}
	fleet, err := serve.NewFleet(addrs, platform.Homogeneous(2, 1, 1, 60).Workers, serve.FleetOptions{Keepalive: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	srv := serve.NewServer(fleet, serve.Config{})
	t.Cleanup(srv.Close)
	client = listen()
	go srv.ListenAndServe(client)
	return client.Addr().String(), client, worker
}

func remoteJob(t *testing.T, sess *Session, a, b, c *Matrix) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	j, err := sess.Submit(ctx, a, b, c)
	if err == nil {
		err = j.Wait(ctx)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestRemoteJobAllocationBudget: a warm job over a loopback fleet allocates
// less than half its operand bytes — before the data path touched its bytes
// once a Remote job was ≈ 3.3× — and its result lands in the caller's own C
// blocks. Both server-driven runtimes are measured: Remote through the
// client protocol, Distributed through its embedded server.
func TestRemoteJobAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a quarter of its Puts; the budget holds without it")
	}
	addr, _, _ := startCountedDaemon(t, [2]*cache.PanelCache{})
	quiet := func(int) mmnet.WorkerOptions { return mmnet.WorkerOptions{Heartbeat: time.Hour} }
	for name, rt := range map[string]Runtime{
		"remote":      Remote(addr),
		"distributed": Distributed(startWorkers(t, 2, quiet)...),
	} {
		t.Run(name, func(t *testing.T) {
			sess, err := Open(context.Background(), WithRuntime(rt))
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			const r, s, tt, q = 12, 12, 1, 80
			a, b, c := seeded(t, r, s, tt, q, 5)
			want := c.Clone()
			if err := Multiply(want, a, b); err != nil {
				t.Fatal(err)
			}
			first := c.Block(0, 0)
			for i := 0; i < 3; i++ { // warm-up: pools, codecs, sessions
				remoteJob(t, sess, a, b, c)
				if i == 0 {
					if d := c.MaxAbsDiff(want); d != 0 {
						t.Fatalf("C differs from the serial product by %g", d)
					}
				}
			}
			if c.Block(0, 0) != first {
				t.Error("the result was not decoded into the caller's C blocks")
			}
			checkAllocBudget(t, 0.5, operandBytes(a, b, c), func() { remoteJob(t, sess, a, b, c) })
		})
	}
}

// TestCachingWorkersAllocationBudget is the same budget in the regime the
// cacheless one cannot see, the benchmark's: workers with a bounded panel
// cache, and operands whose every panel is new to it (one element of each A
// row panel and B column panel changes per job), so each job's panels are
// absorbed and as many evicted. Evicted blocks go back to the pool the next
// install decodes from: once the caches are full a job allocates less than a
// quarter of its operand bytes. While eviction left them to the collector it
// was ×1.19.
func TestCachingWorkersAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a quarter of its Puts; the budget holds without it")
	}
	const r, s, tt, q = 16, 16, 16, 80
	a, b, c := seeded(t, r, s, tt, q, 7)
	// One job's A and B panels fill both caches together.
	budget := cache.PanelDataBytes(q, tt) * (r + s) / 2
	caches := [2]*cache.PanelCache{cache.NewPanelCache(budget), cache.NewPanelCache(budget)}
	addr, _, _ := startCountedDaemon(t, caches)
	sess, err := Open(context.Background(), WithRuntime(Remote(addr)))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	stamp := 0.0
	job := func() {
		stamp++
		for i := 0; i < r; i++ {
			a.Block(i, 0).Data[0] = stamp
		}
		for j := 0; j < s; j++ {
			b.Block(0, j).Data[0] = stamp
		}
		remoteJob(t, sess, a, b, c)
	}
	full := func() bool {
		return caches[0].Snapshot().Evictions > 0 && caches[1].Snapshot().Evictions > 0
	}
	for warm := 0; !full() || warm < 3; warm++ {
		if warm == 10 {
			t.Fatalf("caches not full after %d jobs: %+v, %+v", warm, caches[0].Snapshot(), caches[1].Snapshot())
		}
		job()
	}
	checkAllocBudget(t, 0.25, operandBytes(a, b, c), job)
	if st := caches[0].Snapshot(); st.Hits != 0 {
		t.Errorf("test premise broken: %d cache hits, every panel should be new", st.Hits)
	}
}

func operandBytes(ms ...*Matrix) (n float64) {
	for _, m := range ms {
		n += float64(m.Rows * m.Cols * 8 * m.Q * m.Q)
	}
	return n
}

// checkAllocBudget runs job five times and fails if the process allocated
// limit×operand bytes or more per run.
func checkAllocBudget(t *testing.T, limit, operand float64, job func()) {
	t.Helper()
	const jobs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < jobs; i++ {
		job()
	}
	runtime.ReadMemStats(&after)
	perJob := float64(after.TotalAlloc-before.TotalAlloc) / jobs
	t.Logf("%.2f MB allocated per job for %.2f MB of operands (×%.2f)", perJob/1e6, operand/1e6, perJob/operand)
	if perJob >= limit*operand {
		t.Errorf("a warm job allocates %.0f bytes, ≥ %.2f× its %.0f operand bytes", perJob, limit, operand)
	}
}

// TestSmallJobSocketCallBudget pins what one small job (the shape of the
// benchmark's control workload: 6×9×4 blocks of 2 KB) costs in socket calls
// on the daemon's end of the client link and on a worker's end of its master
// link. The counts are what the links' 64 KB buffers make of the protocol; a
// change that flushes per block or per field multiplies them.
func TestSmallJobSocketCallBudget(t *testing.T) {
	addr, client, worker := startCountedDaemon(t, [2]*cache.PanelCache{})
	sess, err := Open(context.Background(), WithRuntime(Remote(addr)))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	a, b, c := seeded(t, 6, 9, 4, 16, 6)
	remoteJob(t, sess, a, b, c) // warm-up, so both counted jobs run on pooled sessions
	cr0, cw0 := client.reads.Load(), client.writes.Load()
	wr0, ww0 := worker.reads.Load(), worker.writes.Load()
	remoteJob(t, sess, a, b, c)
	cr, cw := client.reads.Load()-cr0, client.writes.Load()-cw0
	wr, ww := worker.reads.Load()-wr0, worker.writes.Load()-ww0
	t.Logf("client link (daemon end): %d reads, %d writes; worker link (worker end): %d reads, %d writes", cr, cw, wr, ww)
	if cw > maxClientLinkWrites || ww > maxWorkerLinkWrites {
		t.Errorf("writes: client link %d (budget %d), worker link %d (budget %d)", cw, maxClientLinkWrites, ww, maxWorkerLinkWrites)
	}
	if cr > maxClientLinkReads || wr > maxWorkerLinkReads {
		t.Errorf("reads: client link %d (budget %d), worker link %d (budget %d)", cr, maxClientLinkReads, wr, maxWorkerLinkReads)
	}
}

// Measured at the parent of the change that added this test (5 runs, all
// equal): 3 writes on each end (accept + result; hello aside, have-ack +
// one result per chunk), 5 and 4 reads. Writes are deterministic — the
// buffered writers flush once per frame — so their budget is the measured
// count. How many reads drain a 230 KB frame through a 64 KB buffer depends
// on how the kernel delivers it, so reads get twice the measured count:
// loose against scheduling noise, tight against a read per block (≈150).
const (
	maxClientLinkWrites = 3
	maxWorkerLinkWrites = 3
	maxClientLinkReads  = 2 * 5
	maxWorkerLinkReads  = 2 * 4
)

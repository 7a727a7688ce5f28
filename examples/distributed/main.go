// Distributed run on a single machine: two worker endpoints on loopback TCP,
// a master that schedules the product with the heterogeneous algorithm and
// replays the plan over the wire, and a five-way verification — the
// distributed C of BOTH low-level executors (the sequential op loop and the
// pipelined per-worker dispatcher) must equal the in-process engine's C
// bitwise (same per-chunk operation order, same kernel) and match the serial
// product, and the public facade (a matmul.Session on the Distributed
// runtime, the way library callers drive these workers) must reproduce the
// same bits over the same daemons.
//
//	go run ./examples/distributed
//
// Against real machines the worker side is cmd/mmworker and the master side
// is cmd/mmrun -distributed; this example wires the same endpoints in one
// process so it can run anywhere (including CI) without orchestration.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	stdnet "net"
	"time"

	"repro/internal/engine"
	"repro/internal/matrix"
	mmnet "repro/internal/net"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/matmul"
)

func main() {
	// Two loopback workers, each a goroutine running the exact serve loop
	// cmd/mmworker runs per connection.
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer ln.Close()
		name := fmt.Sprintf("worker-%d", i+1)
		addrs = append(addrs, ln.Addr().String())
		go mmnet.Serve(ln, name, mmnet.WorkerOptions{Heartbeat: 200 * time.Millisecond})
	}

	// Schedule C (6×12 blocks) += A (6×4) · B (4×12) for two workers.
	pl := platform.Homogeneous(len(addrs), 1, 1, 60)
	inst := sched.Instance{R: 6, S: 12, T: 4}
	res, err := sched.Het{}.Schedule(pl, inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scheduled %s: %d transfers for %d chunk jobs\n",
		res.Algorithm, len(res.Trace.Transfers), countChunks(res))

	q := 8
	rng := rand.New(rand.NewSource(1))
	a := matrix.NewBlockMatrix(inst.R, inst.T, q)
	b := matrix.NewBlockMatrix(inst.T, inst.S, q)
	cNet := matrix.NewBlockMatrix(inst.R, inst.S, q)
	a.FillRandom(rng)
	b.FillRandom(rng)
	cNet.FillRandom(rng)
	cEng := cNet.Clone()
	cPipe := cNet.Clone()
	cLib := cNet.Clone()
	want := cNet.Clone()
	if err := matrix.Multiply(want, a, b); err != nil {
		log.Fatal(err)
	}

	// In-process execution of the same plan, for the bitwise comparison.
	if err := engine.Run(engine.Config{Workers: pl.P(), T: inst.T}, res.Plan(), a, b, cEng); err != nil {
		log.Fatal(err)
	}

	// Distributed execution over TCP: once through the sequential oracle,
	// once through the concurrent core, on the same sessions.
	ctx := context.Background()
	m, err := mmnet.Dial(addrs, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("master connected to %v\n", m.WorkerNames())
	start := time.Now()
	if err := m.RunContext(ctx, inst.T, res.Plan(), a, b, cNet); err != nil {
		log.Fatal(err)
	}
	seqElapsed := time.Since(start)
	start = time.Now()
	if err := m.Execute(ctx, inst.T, res.Plan(), a, b, cPipe, engine.Options{}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed runs finished: sequential %v, pipelined %v\n", seqElapsed, time.Since(start))
	// Release (not Shutdown): the worker daemons keep serving, so the facade
	// session below re-dials the very same endpoints.
	if err := m.Release(); err != nil {
		log.Fatal(err)
	}

	// The public way in: a matmul.Session on the Distributed runtime over
	// the same daemons (homogeneous platform, same algorithm — the plan may
	// lease a subset, and in any case C has the same bits). Its Close
	// releases the worker sessions; the deferred listener closes end the
	// daemons.
	sess, err := matmul.Open(context.Background(),
		matmul.WithRuntime(matmul.Distributed(addrs...)),
		matmul.WithAlgorithm("Het"),
	)
	if err != nil {
		log.Fatal(err)
	}
	job, err := sess.Submit(context.Background(), a, b, cLib)
	if err != nil {
		log.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		log.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		log.Fatal(err)
	}

	if d := cNet.MaxAbsDiff(cEng); d != 0 {
		log.Fatalf("distributed C deviates from in-process C by %g (want bitwise equality)", d)
	}
	if d := cPipe.MaxAbsDiff(cEng); d != 0 {
		log.Fatalf("pipelined distributed C deviates from in-process C by %g (want bitwise equality)", d)
	}
	if d := cLib.MaxAbsDiff(cEng); d != 0 {
		log.Fatalf("facade C deviates from in-process C by %g (want bitwise equality)", d)
	}
	if d := cNet.MaxAbsDiff(want); d > 1e-9 {
		log.Fatalf("distributed C deviates from serial product by %g", d)
	}
	fmt.Println("verification OK: sequential ≡ pipelined ≡ facade ≡ in-process C, C = C₀ + A·B")
}

func countChunks(res *sched.Result) int {
	n := 0
	for _, t := range res.Trace.Transfers {
		if t.Kind == trace.SendC {
			n++
		}
	}
	return n
}

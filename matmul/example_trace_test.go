package matmul_test

import (
	"context"
	"fmt"
	"io"
	"log"

	"repro/matmul"
)

// ExampleJob_Trace records a job's execution timeline and exports it as
// Chrome trace-event JSON. Every job is recorded automatically — in-process
// as it runs, on Distributed and Remote sessions by the scheduling server;
// after Wait the trace carries one span per protocol step — sendC, each
// sendAB installment, recvC — per worker. Writing it through
// WriteChromeTrace (here to io.Discard; normally a .json file) produces a
// timeline loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
func ExampleJob_Trace() {
	ctx := context.Background()
	sess, err := matmul.Open(ctx, matmul.WithAlgorithm("Het"))
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	const q = 4
	a := matmul.NewMatrix(2, 2, q)
	b := matmul.NewMatrix(2, 3, q)
	c := matmul.NewMatrix(2, 3, q)
	for i := 0; i < 2*q; i++ {
		a.Set(i, i, 1)
	}

	job, err := sess.Submit(ctx, a, b, c)
	if err != nil {
		log.Fatal(err)
	}
	if err := job.Wait(ctx); err != nil {
		log.Fatal(err)
	}

	tr := job.Trace()
	fmt.Println("recorded:", tr != nil && len(tr.Transfers) > 0)
	if err := tr.WriteChromeTrace(io.Discard); err != nil {
		log.Fatal(err)
	}
	fmt.Println("perfetto export written")
	// Output:
	// recorded: true
	// perfetto export written
}

package main

import (
	"context"
	stdnet "net"
	"strings"
	"testing"
	"time"

	mmnet "repro/internal/net"
	"repro/internal/sched"
)

func TestRunVerifiesSmallProduct(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		o := options{alg: "het", inst: sched.Instance{R: 4, S: 10, T: 3}, q: 4, seed: 1, pipelined: pipelined}
		if err := run(context.Background(), o); err != nil {
			t.Fatalf("pipelined=%v: %v", pipelined, err)
		}
	}
}

func TestRunPipelinedWithProcsAndOnePortPace(t *testing.T) {
	o := options{
		alg: "bmm", inst: sched.Instance{R: 4, S: 10, T: 3}, q: 4, seed: 2,
		pace: 2 * time.Microsecond, pipelined: true, onePort: true, procs: 2,
	}
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	if err := run(context.Background(), options{alg: "nope", inst: sched.Instance{R: 2, S: 2, T: 2}, q: 2, seed: 1}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestRunDistributedAgainstLoopbackWorkers is the acceptance check for
// -distributed: two loopback workers, the full mmrun path (schedule, drive
// over TCP, verify C within 1e-9 of the serial product — run fails itself
// if the deviation exceeds that). The sequential executor is in-process
// only and must be rejected by name.
func TestRunDistributedAgainstLoopbackWorkers(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		addrs = append(addrs, ln.Addr().String())
		go mmnet.Serve(ln, addrs[i], mmnet.WorkerOptions{Heartbeat: 50 * time.Millisecond})
	}
	o := options{
		alg: "het", inst: sched.Instance{R: 4, S: 10, T: 3}, q: 4, seed: 1,
		distributed: strings.Join(addrs, ","), pipelined: true,
	}
	if err := run(context.Background(), o); err != nil {
		t.Fatal(err)
	}
	o.pipelined = false
	if err := run(context.Background(), o); err == nil || !strings.Contains(err.Error(), "-pipelined=false") {
		t.Fatalf("-pipelined=false with -distributed not rejected clearly: %v", err)
	}
}

func TestRunDistributedRejectsEmptyAddressList(t *testing.T) {
	if err := run(context.Background(), options{alg: "het", inst: sched.Instance{R: 2, S: 2, T: 2}, q: 2, seed: 1, distributed: " , "}); err == nil {
		t.Fatal("empty address list accepted")
	}
}

func TestRunDistributedRejectsProcs(t *testing.T) {
	o := options{alg: "het", inst: sched.Instance{R: 2, S: 2, T: 2}, q: 2, seed: 1, distributed: "127.0.0.1:1", procs: 4}
	if err := run(context.Background(), o); err == nil || !strings.Contains(err.Error(), "mmworker -procs") {
		t.Fatalf("-procs with -distributed not rejected clearly: %v", err)
	}
}

// TestRunCancelledContext is the SIGINT path: a paced run whose context is
// cancelled mid-flight must come back promptly with a cancellation error
// instead of riding out the modeled transfer time.
func TestRunCancelledContext(t *testing.T) {
	o := options{
		alg: "het", inst: sched.Instance{R: 8, S: 16, T: 6}, q: 8, seed: 3,
		pace: time.Millisecond, pipelined: true,
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := run(ctx, o)
	if err == nil {
		t.Fatal("cancelled run returned nil")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled run took %v, want prompt return", elapsed)
	}
}

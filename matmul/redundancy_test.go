package matmul

import (
	"context"
	"strings"
	"testing"
)

// TestWithRedundancyInProcessMatchesPlain runs the same product with the
// k-of-n gate on and off through the in-process runtime. Replicated mode must
// stay bitwise-identical (every commit is systematic); coded mode is bitwise
// except for the rare end-of-run race where a parity decode beats a healthy
// copy, so it gets solver tolerance.
func TestWithRedundancyInProcessMatchesPlain(t *testing.T) {
	const r, s, tt, q, seed = 6, 9, 4, 8, 43

	plain := func() *Matrix {
		sess, err := Open(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		a, b, c := seeded(t, r, s, tt, q, seed)
		job, err := sess.Submit(context.Background(), a, b, c)
		if err != nil {
			t.Fatal(err)
		}
		if err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		return c
	}()

	for _, mode := range []string{"replicated", "coded"} {
		t.Run(mode, func(t *testing.T) {
			sess, err := Open(context.Background(), WithRedundancy(mode, 2))
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			if st, err := sess.Stats(); err != nil || st.Redundancy != mode {
				t.Errorf("session stats: %+v, %v; want redundancy %q", st, err, mode)
			}
			a, b, c := seeded(t, r, s, tt, q, seed)
			job, err := sess.Submit(context.Background(), a, b, c)
			if err != nil {
				t.Fatal(err)
			}
			if err := job.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			d := c.MaxAbsDiff(plain)
			if mode == "replicated" && d != 0 {
				t.Errorf("replicated C differs from plain session by %g (want bitwise equal)", d)
			}
			if d > 1e-9 {
				t.Errorf("%s C differs from plain session by %g", mode, d)
			}
		})
	}
}

// TestWithRedundancyDistributed: the gate must also hold over TCP workers.
func TestWithRedundancyDistributed(t *testing.T) {
	const r, s, tt, q, seed = 6, 9, 4, 8, 44
	addrs := startWorkers(t, 2, nil)
	sess, err := Open(context.Background(),
		WithRuntime(Distributed(addrs...)), WithRedundancy("replicated", 1))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	a, b, c := seeded(t, r, s, tt, q, seed)
	job, err := sess.Submit(context.Background(), a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	if err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := engineReference(t, r, s, tt, q, seed)
	if d := c.MaxAbsDiff(want); d != 0 {
		t.Errorf("distributed replicated C differs from reference by %g (want bitwise equal)", d)
	}
}

// TestWithRedundancyValidation pins the option's rejection surface.
func TestWithRedundancyValidation(t *testing.T) {
	if _, err := Open(context.Background(), WithRedundancy("bogus", 1)); err == nil {
		t.Error("bogus redundancy mode accepted")
	}
	if _, err := Open(context.Background(), WithRedundancy("replicated", 1), WithPipelined(false)); err == nil {
		t.Error("redundancy over the sequential executor accepted")
	}
	daemon := startDaemon(t, 2, nil)
	_, err := Open(context.Background(), WithRuntime(Remote(daemon)), WithRedundancy("replicated", 1))
	if err == nil {
		t.Fatal("WithRedundancy on the Remote runtime accepted")
	}
	if !strings.Contains(err.Error(), "mmserve") {
		t.Errorf("remote rejection %q does not point at the daemon's -redundancy flag", err)
	}
}

// TestRemoteJobTraceFetched: a job run by a scheduling server — a Remote
// daemon or a Distributed session's embedded one — is not recorded by the
// facade: Trace() must fetch the server's recording after completion, and
// keep returning it (memoized) afterwards.
func TestRemoteJobTraceFetched(t *testing.T) {
	for name, opts := range runtimes(t, nil) {
		if name == "inprocess" {
			continue
		}
		t.Run(name, func(t *testing.T) {
			sess, err := Open(context.Background(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer sess.Close()
			a, b, c := seeded(t, 6, 9, 4, 8, 45)
			job, err := sess.Submit(context.Background(), a, b, c)
			if err != nil {
				t.Fatal(err)
			}
			if err := job.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
			tr := job.Trace()
			if tr == nil {
				t.Fatal("job trace unavailable after Wait")
			}
			if len(tr.Transfers) == 0 {
				t.Error("fetched trace has no transfers")
			}
			if again := job.Trace(); again != tr {
				t.Error("second Trace() call refetched instead of memoizing")
			}
		})
	}
}

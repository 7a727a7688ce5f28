package matmul

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/serve"
	"repro/internal/trace"
)

// JobState is a Job's lifecycle state as seen through the facade.
type JobState uint8

const (
	// JobRunning: submitted and not yet terminal (on a Distributed or Remote
	// session this covers queueing for a lease too — the handle does not
	// tell a queued job from a running one; the server's stats do).
	JobRunning JobState = iota
	// JobDone: completed; C holds the product.
	JobDone
	// JobFailed: ended with an error other than cancellation — execution
	// errors, and expired deadlines too: a submit context that merely timed
	// out reports JobFailed with an error wrapping context.DeadlineExceeded,
	// so "we stopped it" (canceled) stays distinguishable from "it ran out
	// of budget or broke" (failed).
	JobFailed
	// JobCanceled: deliberately stopped — by Cancel, a cancelled submit
	// context, or session close. Err wraps context.Canceled.
	JobCanceled
)

func (s JobState) String() string {
	switch s {
	case JobRunning:
		return "running"
	case JobDone:
		return "done"
	case JobFailed:
		return "failed"
	case JobCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// JobStatus is a Job's externally visible state.
type JobStatus struct {
	State JobState
	// Class is the job's SLO class name as declared at Submit (WithClass):
	// "interactive", "standard" or "batch".
	Class string
	// Err is the terminal error (nil while running and after success). A
	// canceled job's Err wraps context.Canceled.
	Err error
	// RemoteID is the scheduling server's job id of a Distributed or Remote
	// submission, once the server has accepted it (0 before that, and
	// always 0 in-process).
	RemoteID uint64
}

// Job is one submitted product's handle.
type Job struct {
	cancel context.CancelFunc
	done   chan struct{}
	rec    *trace.Recorder // non-nil when the runtime records in-process
	class  serve.JobClass  // SLO class declared at Submit; set before run starts

	mu         sync.Mutex
	state      JobState
	err        error
	remoteID   uint64
	traceFetch func(ctx context.Context) (*trace.Trace, error) // server-side timeline
	traced     *trace.Trace                                    // memoized successful fetch
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel asks the job to stop: a queued job is dequeued before it leases
// anything, a running one is aborted mid-transfer. Cancel returns
// immediately; observe completion through Wait or Done. Cancelling a
// terminal job is a no-op.
func (j *Job) Cancel() { j.cancel() }

// Wait blocks until the job is terminal and returns its error (nil on
// success — C has been updated in place). If ctx ends first, Wait returns
// ctx.Err() and the job keeps running: abandoning a wait is not a cancel.
func (j *Job) Wait(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	select {
	case <-j.done:
		j.mu.Lock()
		defer j.mu.Unlock()
		return j.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Trace returns the job's recorded execution timeline: one span per
// transfer and compute, keyed by worker, on a clock starting at the job's
// submission. In-process jobs record as they run: calling Trace before the
// job is terminal returns the spans recorded so far, and the full timeline
// is available after Wait. Distributed and Remote jobs are recorded by
// their scheduling server (a Remote one is fetched over the client
// protocol), so Trace is nil until the job's lease has ended there (and on
// daemons predating trace fetch); the fetched timeline is memoized.
// Render the result with Trace.WriteChromeTrace for Perfetto, or inspect
// the spans directly.
func (j *Job) Trace() *Trace {
	if j.rec != nil {
		return j.rec.Trace()
	}
	j.mu.Lock()
	fetch, cached := j.traceFetch, j.traced
	j.mu.Unlock()
	if cached != nil {
		return cached
	}
	if fetch == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	tr, err := fetch(ctx)
	if err != nil || tr == nil {
		return nil
	}
	j.mu.Lock()
	j.traced = tr
	j.mu.Unlock()
	return tr
}

// Status snapshots the job's state without blocking.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{State: j.state, Class: j.class.String(), Err: j.err, RemoteID: j.remoteID}
}

// accepted records the scheduling server's id of a submission and the
// fetcher of its server-side timeline.
func (j *Job) accepted(id uint64, fetch func(ctx context.Context) (*trace.Trace, error)) {
	j.mu.Lock()
	j.remoteID, j.traceFetch = id, fetch
	j.mu.Unlock()
}

// finish moves the job to its terminal state. Cancellation wins over the
// secondary errors an abort provokes on the way down.
func (j *Job) finish(err error) {
	j.mu.Lock()
	switch {
	case err == nil:
		j.state = JobDone
	case errors.Is(err, context.Canceled):
		j.state, j.err = JobCanceled, err
	default:
		j.state, j.err = JobFailed, err
	}
	j.mu.Unlock()
	close(j.done)
}

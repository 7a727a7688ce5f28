package serve

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"
)

// This file is the queue-policy layer the scheduling lab shipped (see
// hypotheses/): job SLO classes, the pick rule that decides which queued job
// the next free lease goes to, and token-bucket admission control. The
// policies only reorder *admission into leases* — once a job holds a lease,
// execution is identical under every policy, so C stays bitwise-identical.

// JobClass is a submitted product's SLO class. It rides the client protocol
// (matmul.WithClass → submit frame → daemon), orders dispatch under the
// priority queue policy, and partitions admission control and the
// mm_serve_queue_* metrics. The zero value is ClassStandard, so a submission
// that declares no class is a standard one.
type JobClass uint8

const (
	// ClassStandard is the default for submissions that do not declare a class.
	ClassStandard JobClass = iota
	// ClassInteractive marks latency-sensitive jobs; the priority policy
	// dispatches them first.
	ClassInteractive
	// ClassBatch marks throughput jobs that tolerate queueing; the priority
	// policy dispatches them last (aging still bounds their wait).
	ClassBatch

	numClasses = 3
)

func (c JobClass) String() string {
	switch c {
	case ClassStandard:
		return "standard"
	case ClassInteractive:
		return "interactive"
	case ClassBatch:
		return "batch"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// ParseClass maps a class name ("interactive", "standard", "batch"; empty
// means standard) to its JobClass.
func ParseClass(name string) (JobClass, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "standard":
		return ClassStandard, nil
	case "interactive":
		return ClassInteractive, nil
	case "batch":
		return ClassBatch, nil
	default:
		return ClassStandard, fmt.Errorf("serve: unknown job class %q (want interactive, standard or batch)", name)
	}
}

// rank orders classes for the priority policy: lower dispatches first.
func (c JobClass) rank() int {
	switch c {
	case ClassInteractive:
		return 0
	case ClassStandard:
		return 1
	default:
		return 2
	}
}

// Queue policies. See Config.QueuePolicy.
const (
	// PolicyFIFO dispatches strictly in submission order (the pre-lab
	// behavior and the default).
	PolicyFIFO = "fifo"
	// PolicySJF dispatches the queued job with the least predicted work
	// (r·s·t·q³ block updates) first. hypotheses/fifo-vs-sjf measured ~3.6×
	// lower small-job p99 on bimodal mixes; the starvation risk for large
	// jobs is bounded by Config.AgingBound.
	PolicySJF = "sjf"
	// PolicyPriority dispatches by SLO class (interactive → standard →
	// batch), FIFO within a class, aging-bounded across classes, and applies
	// admission control per class so one class's burst cannot drain another
	// class's tokens.
	PolicyPriority = "priority"
)

// ParseQueuePolicy normalizes a policy name; empty means PolicyFIFO.
func ParseQueuePolicy(name string) (string, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", PolicyFIFO:
		return PolicyFIFO, nil
	case PolicySJF:
		return PolicySJF, nil
	case PolicyPriority:
		return PolicyPriority, nil
	default:
		return PolicyFIFO, fmt.Errorf("serve: unknown queue policy %q (want fifo, sjf or priority)", name)
	}
}

// defaultAgingBound caps how long sjf/priority may bypass a queued job: once
// the queue's oldest job has waited this long it is dispatched next
// regardless of size or class. The bound trades a little small-job latency
// for a hard no-starvation guarantee (tested in queue_test.go).
const defaultAgingBound = 15 * time.Second

// agingBound resolves the configured starvation bound.
func (s *Server) agingBound() time.Duration {
	if s.cfg.AgingBound > 0 {
		return s.cfg.AgingBound
	}
	return defaultAgingBound
}

// cost is the job's predicted work in block updates — r·s·t·q³ — the SJF
// ordering key. Block counts, not measured speed: the prediction must exist
// before the job has ever run, and relative size is all the ordering needs.
func (j *job) cost() float64 {
	return float64(j.inst.R) * float64(j.inst.S) * float64(j.inst.T) *
		float64(j.q) * float64(j.q) * float64(j.q)
}

// pickLocked returns the queued job the next lease should go to, per the
// server's queue policy. The queue itself stays in submission order — FIFO
// picks index 0, sjf/priority scan — so the aging check is O(1): the oldest
// queued job is always s.queue[0]. Caller holds s.mu and has checked the
// queue is non-empty.
func (s *Server) pickLocked(now time.Time) *job {
	switch s.policy {
	case PolicySJF:
		if now.Sub(s.queue[0].submitted) > s.agingBound() {
			s.agedLocked(s.queue[0])
			return s.queue[0]
		}
		best := s.queue[0]
		for _, j := range s.queue[1:] {
			if j.cost() < best.cost() {
				best = j
			}
		}
		return best
	case PolicyPriority:
		if now.Sub(s.queue[0].submitted) > s.agingBound() {
			s.agedLocked(s.queue[0])
			return s.queue[0]
		}
		best := s.queue[0]
		for _, j := range s.queue[1:] {
			if j.class.rank() < best.class.rank() {
				best = j
			}
		}
		return best
	default: // PolicyFIFO
		return s.queue[0]
	}
}

// agedLocked records one aging promotion: the oldest queued job bypassed the
// policy order because it exceeded the starvation bound. Counted only when
// the policy would have picked someone else.
func (s *Server) agedLocked(oldest *job) {
	if len(s.queue) > 1 {
		mQueueAged.Inc()
		s.log.Info("queued job promoted by aging", "job", oldest.id,
			"waited", time.Since(oldest.submitted), "bound", s.agingBound())
	}
}

// dequeueLocked removes j from the queue if it is still there, reporting
// whether it was. A job can leave the queue between pick and commit (Cancel,
// Close), so dispatch re-checks under the lock.
func (s *Server) dequeueLocked(j *job) bool {
	for i, q := range s.queue {
		if q == j {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return true
		}
	}
	return false
}

// admission is per-class token-bucket admission control. Each class refills
// at the same configured rate into its own bucket, so a burst of batch
// submissions empties only the batch bucket — interactive admission is
// untouched. hypotheses/admission-vs-unbounded measured the effect: under a
// Gamma burst the bucket sheds the excess at submit time (clients get an
// immediate error and can back off) instead of growing an unbounded queue
// whose every job pays the backlog's latency.
type admission struct {
	rate  float64 // tokens (jobs) per second, per class
	burst float64 // bucket capacity
	now   func() time.Time

	mu       sync.Mutex
	tokens   [numClasses]float64
	last     [numClasses]time.Time
	rejected [numClasses]int64
}

// newAdmission builds the bucket set; rate ≤ 0 disables admission (nil).
func newAdmission(rate float64, burst int) *admission {
	if rate <= 0 {
		return nil
	}
	b := float64(burst)
	if burst <= 0 {
		// Default capacity: one second of refill, at least one job, so a
		// paced client is never rejected and a burst is clipped to ~rate.
		b = math.Max(1, math.Ceil(rate))
	}
	return &admission{rate: rate, burst: b, now: time.Now}
}

// take spends one token from class c's bucket, reporting whether the job is
// admitted. Buckets start full.
func (a *admission) take(c JobClass) bool {
	if a == nil {
		return true
	}
	if c >= numClasses {
		c = ClassStandard
	}
	now := a.now()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.last[c].IsZero() {
		a.tokens[c] = a.burst
	} else {
		a.tokens[c] = math.Min(a.burst, a.tokens[c]+now.Sub(a.last[c]).Seconds()*a.rate)
	}
	a.last[c] = now
	if a.tokens[c] < 1 {
		a.rejected[c]++
		return false
	}
	a.tokens[c]--
	return true
}

// rejectedByClass snapshots the per-class rejection counts (nil admission:
// nil map).
func (a *admission) rejectedByClass() map[string]int64 {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int64, numClasses)
	for c := JobClass(0); c < numClasses; c++ {
		out[c.String()] = a.rejected[c]
	}
	return out
}

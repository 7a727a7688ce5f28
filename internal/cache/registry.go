package cache

import (
	"container/list"
	"sync"
)

// registryCap bounds how many digests the registry remembers per worker. A
// panel nobody submits again is never queried again, so without a bound its
// entry would stay until the worker died; beyond the cap the entries absorbed
// longest ago go first, which are also the ones the worker's own LRU has most
// likely evicted.
const registryCap = 1 << 16

// Registry is the master-side per-worker resident-set tracker: which panel
// digests each fleet worker was last known to hold, and how many bytes they
// amount to. Resource selection scores candidates with Fraction, biasing a
// job toward the subset already holding its operands.
//
// The registry is advisory by construction. Transfer skipping is decided by
// the per-job have/need handshake against the worker itself, so the registry
// being stale — a worker quietly evicted a panel, or crashed and came back
// with an empty cache — can misprice affinity for one scheduling pass but
// can never corrupt a result. Invalidate keeps it honest on the one
// transition the fleet actually observes: a worker going down (its re-dialed
// successor is a fresh session whose cache contents must be re-discovered by
// the next job's handshake). It is also bounded: at most registryCap digests
// per worker, whatever the worker's own budget is, so Resident is the
// master's capped belief and not the worker's occupancy.
type Registry struct {
	mu  sync.Mutex
	res map[int]*residentSet // by fleet worker
}

// residentSet is one worker's believed panels, in last-absorb order.
type residentSet struct {
	order *list.List // of residentPanel; front = absorbed longest ago
	elems map[Digest]*list.Element
	bytes int64
}

type residentPanel struct {
	d     Digest
	bytes int64
}

func (s *residentSet) remove(e *list.Element) {
	p := s.order.Remove(e).(residentPanel)
	delete(s.elems, p.d)
	s.bytes -= p.bytes
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{res: make(map[int]*residentSet)}
}

// Absorb folds one finished job's exact knowledge about worker w into the
// registry: every digest in have (digest → payload bytes) is now resident
// there, and every digest in queried but not in have is known absent (the
// handshake asked and the worker said no, or the master never promoted it) —
// those are removed so an evicted panel stops attracting jobs. Resident ones
// become the most recently absorbed, and the oldest beyond registryCap are
// forgotten.
func (r *Registry) Absorb(w int, have map[Digest]int64, queried []Digest) {
	r.mu.Lock()
	defer r.mu.Unlock()
	set := r.res[w]
	if set == nil {
		set = &residentSet{order: list.New(), elems: make(map[Digest]*list.Element, len(have))}
		r.res[w] = set
	}
	for _, d := range queried {
		b, resident := have[d]
		e, known := set.elems[d]
		switch {
		case resident && known:
			set.order.MoveToBack(e) // a digest covers the panel's shape: same bytes
		case resident:
			set.elems[d] = set.order.PushBack(residentPanel{d, b})
			set.bytes += b
		case known:
			set.remove(e)
		}
	}
	for set.order.Len() > registryCap {
		set.remove(set.order.Front())
	}
}

// Invalidate forgets everything about worker w. Call it when the worker
// leaves the fleet's live set: a crashed worker's re-dialed session is a new
// process with an empty cache, and even a survivor recycled after a failed
// job is cheaper to re-discover than to trust.
func (r *Registry) Invalidate(w int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.res, w)
}

// Fraction scores worker w's affinity for a job: the fraction of the job's
// distinct panel bytes already resident on w, in [0, 1]. Zero when nothing
// is known (or jp is nil), one when every panel is already there.
func (r *Registry) Fraction(w int, jp *JobPanels) float64 {
	if jp == nil {
		return 0
	}
	ds := jp.Digests()
	if len(ds) == 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	set := r.res[w]
	if set == nil {
		return 0
	}
	have := 0
	for _, d := range ds {
		if _, ok := set.elems[d]; ok {
			have++
		}
	}
	return float64(have) / float64(len(ds))
}

// Resident reports how many panels (and payload bytes) worker w is believed
// to hold: at most registryCap panels, and never read from the worker.
func (r *Registry) Resident(w int) (panels int, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if set := r.res[w]; set != nil {
		return set.order.Len(), set.bytes
	}
	return 0, 0
}

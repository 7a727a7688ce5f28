package serve

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	mmnet "repro/internal/net"
	"repro/internal/obs"
	"repro/internal/platform"
)

// WorkerState is a fleet worker's lease state.
type WorkerState uint8

const (
	// StateIdle: connected, registered, available for the next lease.
	StateIdle WorkerState = iota
	// StateLeased: its connection is owned by a running job's master.
	StateLeased
	// StateDown: unreachable; the fleet re-dials it before the next lease.
	StateDown
)

func (s WorkerState) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateLeased:
		return "leased"
	case StateDown:
		return "down"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// FleetOptions tunes a worker fleet.
type FleetOptions struct {
	// Master carries the per-connection options every lease's master runs
	// with (timeouts, one-port gating).
	Master mmnet.MasterOptions
	// Keepalive is the interval at which idle pooled connections are pinged
	// (so the worker's idle timeout never fires between jobs) and their
	// heartbeat backlog drained (so the socket buffer never fills while a
	// session waits). Default 15s; negative disables.
	Keepalive time.Duration
	// Logger, when non-nil, receives fleet events (redials, downed workers)
	// as structured records carrying worker index and address attrs; nil
	// discards them.
	Logger *slog.Logger
}

func (o FleetOptions) keepalive() time.Duration {
	if o.Keepalive != 0 {
		return o.Keepalive
	}
	return 15 * time.Second
}

// logger resolves the fleet's logger: Logger, or discard.
func (o FleetOptions) logger() *slog.Logger {
	if o.Logger != nil {
		return o.Logger
	}
	return obs.NopLogger()
}

// Fleet holds one persistent, registered connection per worker daemon and
// leases disjoint subsets of them to jobs. Workers that die (or were never
// reachable) are marked down and re-dialed before the next lease — the
// worker *process* is never restarted, only its session.
type Fleet struct {
	opts  FleetOptions
	log   *slog.Logger
	addrs []string
	specs []platform.Worker

	mu       sync.Mutex
	conns    []*mmnet.WorkerConn // non-nil iff state == StateIdle
	state    []WorkerState
	names    []string // last registered name per worker ("" before first contact)
	kernels  []string // last registered block-update kernel per worker
	jobs     []int    // completed leases per worker, for metrics
	dialing  []bool   // a re-dial is in flight outside the lock
	pinging  []bool   // borrowed by the keepalive loop, not by a job
	lastDial []time.Time
	dials    sync.WaitGroup // in-flight redial goroutines, awaited by Close
	closed   bool
	stop     chan struct{}
	done     chan struct{}
	// onDown, when set, observes every transition of a worker into StateDown
	// (session died mid-job, failed-job recycle, keepalive loss). The server
	// hooks it to invalidate the worker's panel-residency record: the re-dialed
	// successor may be a freshly restarted process with an empty cache, and
	// stale residency must not keep attracting jobs it can no longer serve
	// cheaply. Called with the fleet lock held; the hook must not call back
	// into the fleet.
	onDown func(i int)
}

// SetOnDown installs the down-transition observer. Call once, before jobs
// run (the server does, right after constructing the fleet's server).
func (f *Fleet) SetOnDown(fn func(i int)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.onDown = fn
}

// downLocked marks worker i down and notifies the observer. The fleet lock
// must be held.
func (f *Fleet) downLocked(i int) {
	f.conns[i], f.state[i] = nil, StateDown
	if f.onDown != nil {
		f.onDown(i)
	}
}

// WorkerMetric is one worker's row in the fleet metrics. The Est fields are
// filled by an adaptive Server (the fleet itself only knows connectivity):
// live measured costs in milliseconds, zero until the worker's first
// observed job.
type WorkerMetric struct {
	// ID is the worker's fleet index — the identifier leases, plans, and the
	// cache registry all key on, and the stable sort key for status output.
	ID   int    `json:"id"`
	Addr string `json:"addr"`
	Name string `json:"name,omitempty"`
	// Kernel is the block-update kernel the worker announced at registration
	// (generic, tiled, avx2, ...), empty before first contact.
	Kernel string          `json:"kernel,omitempty"`
	Spec   platform.Worker `json:"spec"`
	State  string          `json:"state"`
	Jobs   int             `json:"jobs"`
	// EstC/EstW are the measured per-block link cost and per-update compute
	// cost (ms), EWMA over observed jobs; Samples counts the observations.
	EstC    float64 `json:"est_c_ms,omitempty"`
	EstW    float64 `json:"est_w_ms,omitempty"`
	Samples int     `json:"samples,omitempty"`
	// Panel-cache effectiveness, filled by a caching Server: handshake
	// hit/miss counts and operand bytes sent/saved, cumulative over the
	// worker's completed leases; the Resident figures are the server's
	// current belief about the worker's cache content.
	CacheHits      int64 `json:"cache_hits,omitempty"`
	CacheMisses    int64 `json:"cache_misses,omitempty"`
	SentBytes      int64 `json:"cache_sent_bytes,omitempty"`
	SavedBytes     int64 `json:"cache_saved_bytes,omitempty"`
	ResidentPanels int   `json:"resident_panels,omitempty"`
	ResidentBytes  int64 `json:"resident_bytes,omitempty"`
}

// NewFleet dials every worker address and keeps the sessions open. specs[i]
// is worker i's platform description (c_i, w_i, m_i), the input to per-job
// resource selection; it must match addrs in length. Workers that cannot be
// reached start down and are re-dialed on demand — the fleet comes up as
// long as at least one worker registers.
func NewFleet(addrs []string, specs []platform.Worker, opts FleetOptions) (*Fleet, error) {
	conns := make([]*mmnet.WorkerConn, len(addrs))
	for i, addr := range addrs {
		var err error
		if conns[i], err = mmnet.DialWorker(addr, &opts.Master); err != nil {
			opts.logger().Warn("worker down", "worker", i, "addr", addr, "err", err)
		}
	}
	return NewFleetConns(addrs, conns, specs, opts)
}

// NewFleetConns is NewFleet over sessions the caller already dialed (and so
// bounded by its own context and failure policy): conns[i] is addrs[i]'s
// registered connection, nil for a worker that starts down. The fleet owns
// every connection from the call on, on error too.
func NewFleetConns(addrs []string, conns []*mmnet.WorkerConn, specs []platform.Worker, opts FleetOptions) (f *Fleet, err error) {
	up := 0
	for _, wc := range conns {
		if wc != nil {
			up++
		}
	}
	defer func() {
		if err != nil {
			for _, wc := range conns {
				if wc != nil {
					wc.Release()
				}
			}
		}
	}()
	switch {
	case len(addrs) == 0:
		return nil, fmt.Errorf("serve: fleet needs at least one worker address")
	case len(specs) != len(addrs) || len(conns) != len(addrs):
		return nil, fmt.Errorf("serve: %d specs and %d connections for %d workers", len(specs), len(conns), len(addrs))
	case up == 0:
		return nil, fmt.Errorf("serve: no worker of %v reachable", addrs)
	}
	// Copy before defaulting names, so the caller's slice is never mutated.
	specs = append([]platform.Worker(nil), specs...)
	for i := range specs {
		if specs[i].Name == "" {
			specs[i].Name = fmt.Sprintf("P%d", i+1)
		}
		if err := specs[i].Validate(); err != nil {
			return nil, err
		}
	}
	f = &Fleet{
		opts:     opts,
		log:      opts.logger(),
		addrs:    append([]string(nil), addrs...),
		specs:    specs,
		conns:    make([]*mmnet.WorkerConn, len(addrs)),
		state:    make([]WorkerState, len(addrs)),
		names:    make([]string, len(addrs)),
		kernels:  make([]string, len(addrs)),
		jobs:     make([]int, len(addrs)),
		dialing:  make([]bool, len(addrs)),
		pinging:  make([]bool, len(addrs)),
		lastDial: make([]time.Time, len(addrs)),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for i, wc := range conns {
		f.lastDial[i] = time.Now()
		if wc != nil {
			f.poolLocked(i, wc)
		} else {
			f.downLocked(i)
		}
	}
	go f.keepaliveLoop()
	return f, nil
}

// poolLocked makes wc worker i's idle session. The fleet lock must be held
// (or the fleet not yet shared).
func (f *Fleet) poolLocked(i int, wc *mmnet.WorkerConn) {
	f.conns[i], f.state[i] = wc, StateIdle
	f.names[i], f.kernels[i] = wc.Name(), wc.Kernel()
}

// Size returns the fleet's worker count (reachable or not).
func (f *Fleet) Size() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.addrs)
}

// Specs returns a copy of the per-worker platform descriptions.
func (f *Fleet) Specs() []platform.Worker {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]platform.Worker(nil), f.specs...)
}

// Add registers a worker *after* startup — the elastic half of fleet
// membership: the address is dialed immediately and, when reachable, the new
// worker is idle and leasable the moment Add returns; when not, it starts
// down and the usual re-dial machinery keeps trying, so a daemon that
// announces itself before its listener is routable still joins eventually.
// Returns the new worker's fleet index.
func (f *Fleet) Add(addr string, spec platform.Worker) (int, error) {
	// Reject duplicates before dialing: the existing session holds the
	// worker's (sequential) serve loop, so a second dial would hang until
	// the dial timeout for nothing. addConn re-checks under the lock in case
	// two Adds race.
	f.mu.Lock()
	err := f.admitLocked(addr, spec)
	f.mu.Unlock()
	if err != nil {
		return 0, err
	}
	// Dial outside the lock: a slow or unroutable address must not block
	// Lease/Return/Idle while we wait on the connect.
	wc, err := mmnet.DialWorker(addr, &f.opts.Master)
	i, aerr := f.addConn(addr, wc, spec)
	if aerr != nil {
		return 0, aerr
	}
	if err != nil {
		f.log.Warn("worker joined but is down", "worker", i, "addr", addr, "err", err)
	}
	return i, nil
}

// admitLocked checks that a worker may join: a valid spec, a fresh address,
// an open fleet. The fleet lock must be held.
func (f *Fleet) admitLocked(addr string, spec platform.Worker) error {
	if addr == "" {
		return fmt.Errorf("serve: add worker: empty address")
	}
	if spec.Name == "" {
		spec.Name = addr
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	if f.closed {
		return fmt.Errorf("serve: fleet is closed")
	}
	for _, a := range f.addrs {
		if a == addr {
			return fmt.Errorf("serve: worker %s already registered", addr)
		}
	}
	return nil
}

// addConn appends a worker whose session wc is already registered (nil: it
// starts down and is re-dialed on demand). The fleet owns wc from the call
// on, on error too.
func (f *Fleet) addConn(addr string, wc *mmnet.WorkerConn, spec platform.Worker) (int, error) {
	if spec.Name == "" {
		spec.Name = addr
	}
	f.mu.Lock()
	if err := f.admitLocked(addr, spec); err != nil {
		f.mu.Unlock()
		if wc != nil {
			wc.Release()
		}
		return 0, err
	}
	i := len(f.addrs)
	f.addrs = append(f.addrs, addr)
	f.specs = append(f.specs, spec)
	f.conns = append(f.conns, nil)
	f.state = append(f.state, StateDown)
	f.names = append(f.names, "")
	f.kernels = append(f.kernels, "")
	f.jobs = append(f.jobs, 0)
	f.dialing = append(f.dialing, false)
	f.pinging = append(f.pinging, false)
	f.lastDial = append(f.lastDial, time.Now())
	if wc != nil {
		f.poolLocked(i, wc)
	}
	f.mu.Unlock()
	return i, nil
}

// LeaseExtra moves one *idle* worker into an existing lease mid-job: its
// pooled connection is joined to the lease's master (Master.AddWorker) and
// the worker is leased until Return. Returns the plan worker index the
// master assigned — the index to deliver on the job's Elastic.Join channel.
// The caller must include i in the index slice it eventually passes to
// Return (join order matches Detach's connection order).
func (f *Fleet) LeaseExtra(i int, m *mmnet.Master) (int, error) {
	f.mu.Lock()
	switch {
	case f.closed:
		f.mu.Unlock()
		return 0, fmt.Errorf("serve: fleet is closed")
	case i < 0 || i >= len(f.addrs):
		f.mu.Unlock()
		return 0, fmt.Errorf("serve: lease-extra index %d out of range", i)
	case f.state[i] != StateIdle:
		f.mu.Unlock()
		return 0, fmt.Errorf("serve: worker %d (%s) is %s, not idle", i, f.addrs[i], f.state[i])
	}
	wc := f.conns[i]
	f.conns[i], f.state[i] = nil, StateLeased
	f.mu.Unlock()

	w, err := m.AddWorker(wc)
	if err != nil {
		// The master would not take it (detached, spent); hand the session
		// back to the pool untouched.
		f.mu.Lock()
		if f.closed {
			f.mu.Unlock()
			wc.Release()
		} else {
			f.conns[i], f.state[i] = wc, StateIdle
			f.mu.Unlock()
		}
		return 0, err
	}
	return w, nil
}

// redialBackoff rate-limits re-dial attempts per down worker, so a
// permanently dead address costs at most one (off-lock) dial per interval
// instead of one per scheduling pass.
const redialBackoff = time.Second

// Idle returns the indices currently available for a lease, kicking off
// re-dials of down workers (their daemons survive crashes of individual
// sessions, so a worker lost to one job serves the next). Dials run in
// their own goroutines — a slow or unroutable address never blocks the
// scheduling loop, Metrics, Lease or Return — each attempted at most once
// per redialBackoff; a re-registered worker shows up in a later Idle call
// (the server's retry timer polls while jobs wait).
func (f *Fleet) Idle() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	var idle []int
	for i := range f.addrs {
		if f.state[i] == StateDown && !f.dialing[i] && time.Since(f.lastDial[i]) >= redialBackoff {
			f.dialing[i] = true
			f.lastDial[i] = time.Now()
			f.dials.Add(1)
			go f.redial(i)
		}
		if f.state[i] == StateIdle {
			idle = append(idle, i)
		}
	}
	return idle
}

// redial attempts to reconnect one down worker and fold the session back
// into the pool. It owns worker i's dialing flag for the duration.
func (f *Fleet) redial(i int) {
	defer f.dials.Done()
	wc, err := mmnet.DialWorker(f.addrs[i], &f.opts.Master)
	f.mu.Lock()
	f.dialing[i] = false
	closed := f.closed
	switch {
	case err != nil:
		f.log.Warn("worker still down", "worker", i, "addr", f.addrs[i], "err", err)
	case closed || f.state[i] != StateDown:
		// The fleet closed (or the slot changed hands) while we dialed.
	default:
		f.poolLocked(i, wc)
		f.log.Info("worker re-registered", "worker", i, "addr", f.addrs[i])
		wc = nil // pooled; do not release below
	}
	f.mu.Unlock()
	if err == nil && wc != nil {
		// Hand the unwanted session straight back to the daemon's accept loop.
		wc.Release()
	}
}

// Lease hands the connections of the given idle workers to a fresh master,
// in index order: plan worker j maps to fleet worker idx[j]. The workers
// stay leased until Return.
func (f *Fleet) Lease(idx []int) (*mmnet.Master, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, fmt.Errorf("serve: fleet is closed")
	}
	conns := make([]*mmnet.WorkerConn, len(idx))
	for j, i := range idx {
		if i < 0 || i >= len(f.addrs) {
			return nil, fmt.Errorf("serve: lease index %d out of range", i)
		}
		if f.state[i] != StateIdle {
			return nil, fmt.Errorf("serve: worker %d (%s) is %s, not idle", i, f.addrs[i], f.state[i])
		}
		conns[j] = f.conns[i]
	}
	m, err := mmnet.NewMaster(conns, &f.opts.Master)
	if err != nil {
		return nil, err
	}
	for _, i := range idx {
		f.conns[i], f.state[i] = nil, StateLeased
	}
	return m, nil
}

// Return ends a lease: the master's surviving connections go back to the
// idle pool, dead ones mark their workers down for re-dial. idx must be the
// slice the lease was taken with. failed reports whether the job's execution
// errored — the reusable-backend contract only covers successful runs, so a
// failed run's survivors may still hold chunks and are never pooled: their
// sessions are released (the daemon's accept loop hands the next master a
// fresh one) and the workers marked down for re-dial. Session handshakes
// happen with the lock released.
func (f *Fleet) Return(idx []int, m *mmnet.Master, failed bool) {
	conns := m.Detach()
	var release []*mmnet.WorkerConn
	f.mu.Lock()
	for j, i := range idx {
		f.jobs[i]++
		alive := j < len(conns) && conns[j] != nil && conns[j].Alive()
		switch {
		case alive && !failed && !f.closed:
			f.conns[i], f.state[i] = conns[j], StateIdle
		case alive:
			if failed {
				f.log.Info("worker survived a failed job; recycling its session", "worker", i, "addr", f.addrs[i])
			}
			release = append(release, conns[j])
			f.downLocked(i)
		default:
			f.downLocked(i)
			f.log.Warn("worker died during a job; will re-dial", "worker", i, "addr", f.addrs[i])
		}
	}
	f.mu.Unlock()
	for _, wc := range release {
		wc.Release()
	}
}

// Metrics snapshots every worker's state.
func (f *Fleet) Metrics() []WorkerMetric {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]WorkerMetric, len(f.addrs))
	for i := range f.addrs {
		state := f.state[i]
		if state == StateLeased && f.pinging[i] {
			// Borrowed by the keepalive ping, not by a job: the worker is
			// idle as far as an operator is concerned.
			state = StateIdle
		}
		out[i] = WorkerMetric{
			ID: i, Addr: f.addrs[i], Name: f.names[i], Kernel: f.kernels[i],
			Spec: f.specs[i], State: state.String(), Jobs: f.jobs[i],
		}
	}
	return out
}

// Close stops the keepalive loop and releases every idle connection (the
// worker daemons keep serving; leased connections are left to their running
// jobs' masters, whose Return calls find the fleet closed and release them).
// Idempotent, like Master.Shutdown.
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		<-f.done // a concurrent first Close may still be stopping the loop
		return
	}
	f.closed = true
	f.mu.Unlock()
	close(f.stop)
	<-f.done
	f.dials.Wait()
	f.mu.Lock()
	var release []*mmnet.WorkerConn
	for i, wc := range f.conns {
		if wc != nil {
			release = append(release, wc)
			f.conns[i], f.state[i] = nil, StateDown
		}
	}
	f.mu.Unlock()
	for _, wc := range release {
		if err := wc.Release(); err != nil {
			f.log.Warn("release on close failed", "err", err)
		}
	}
}

// keepaliveLoop pings idle pooled connections and drains their heartbeat
// backlog, so sessions parked between jobs neither trip the worker's idle
// timeout nor fill the master-side socket buffer. Each connection is
// borrowed out of the pool for the duration of its (off-lock) ping, so a
// partitioned worker stalling on a write deadline never blocks Lease,
// Return, Idle or Metrics.
func (f *Fleet) keepaliveLoop() {
	defer close(f.done)
	interval := f.opts.keepalive()
	if interval < 0 {
		return
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-tick.C:
			type borrow struct {
				i  int
				wc *mmnet.WorkerConn
			}
			var borrowed []borrow
			f.mu.Lock()
			for i, wc := range f.conns {
				if wc != nil && f.state[i] == StateIdle {
					// Borrowed for the ping: leased as far as Lease is
					// concerned, still idle in the metrics (pinging flag).
					f.conns[i], f.state[i], f.pinging[i] = nil, StateLeased, true
					borrowed = append(borrowed, borrow{i, wc})
				}
			}
			f.mu.Unlock()
			for _, b := range borrowed {
				err := b.wc.DrainBacklog()
				if err == nil {
					err = b.wc.Ping()
				}
				f.mu.Lock()
				closed := f.closed
				f.pinging[b.i] = false
				switch {
				case closed || err != nil:
					f.downLocked(b.i)
				default:
					f.conns[b.i], f.state[b.i] = b.wc, StateIdle
				}
				f.mu.Unlock()
				if closed {
					b.wc.Release()
				} else if err != nil {
					f.log.Warn("keepalive lost worker", "worker", b.i, "addr", f.addrs[b.i], "err", err)
					b.wc.Close()
				}
			}
		}
	}
}

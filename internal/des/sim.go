// Package des is a deterministic discrete-event simulator that runs the
// paper's work-stealing protocols at cluster scale (hundreds to thousands
// of processing elements) on a single machine.
//
// Each simulated PE executes the *same protocol logic* as the real
// goroutine implementations in internal/core — real UTS nodes are
// generated, real stacks are manipulated, real steal/termination decisions
// are taken — but time is virtual: exploring a node costs Model.NodeCost,
// a remote reference costs Model.RemoteRef, a lock acquisition queues
// behind the current holder, and so on. Because the event loop is
// sequential and tie-broken deterministically, a simulation is an exact
// function of (tree spec, algorithm, machine profile, seed): every figure
// regenerated from it is bit-reproducible.
//
// The simulator is process-oriented: each PE is a goroutine whose
// execution is interleaved one-at-a-time by the event loop. A PE calls
// Proc.Advance to consume virtual time, Proc.Block/Proc.Wake for
// sleep/wakeup (used by lock queues), and otherwise manipulates shared
// simulation state freely — exactly one PE runs at any instant, so there
// are no data races by construction.
//
// # Engines
//
// Two engines implement that contract, each with a single dispatcher: one
// event loop owns the clock and the queue, so every cross-PE effect —
// including the remote operations of remote.go — applies inline at the
// caller's instant. The batched engine (the default, New) dispatches
// events by baton passing: control moves from the event queue to a PE and
// back through a single buffered channel send, the event queue is a flat
// 4-ary indexed min-heap of value-typed entries, an Advance whose deadline
// precedes every queued event commits inline without touching the heap or
// parking the goroutine, and protocol loops expressed as step functions
// (AdvanceStepped) run entirely inside the dispatcher with zero goroutine
// switches. The legacy engine (NewLegacy) keeps the original two-channel
// wake/park handshake and boxed container/heap queue; it exists as the
// bit-identical reference for the differential tests and benchmarks. Both
// engines execute the same events in the same order — Sim.Events counts
// identically — they differ only in how cheaply a boundary is reached.
package des

import (
	"fmt"
	"time"
)

// Sim is one simulation instance.
type Sim struct {
	heap     flatHeap
	pend     ev    // parked event awaiting the dispatcher, if hasPend
	hasPend  bool  // see park: fuses the park-then-dispatch heap traffic
	now      int64 // virtual time, ns
	nprocs   int
	finished int
	events   uint64

	doneCh chan error
	err    error

	remote RemoteApply // remote-operation interpreter (remote.go)

	legacy bool
	lheap  evHeap // legacy engine's boxed queue (legacy.go)
}

// New creates an empty simulation using the batched engine.
func New() *Sim { return &Sim{} }

// NewLegacy creates an empty simulation using the legacy reference engine:
// the original two-channel wake/park handshake with a boxed container/heap
// event queue. It executes the exact same schedule as the batched engine
// and exists so differential tests and benchmarks can compare against it.
func NewLegacy() *Sim { return &Sim{legacy: true} }

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return time.Duration(s.now) }

// Events returns the number of simulated-time boundaries executed so far:
// every Advance and every stepped-advance quantum with nonzero duration
// counts once, whether it was reached through the event queue or committed
// inline. The count is engine-independent — the batched and legacy engines
// report the same number for the same run — so events/second measures pure
// engine overhead.
func (s *Sim) Events() uint64 { return s.events }

// Intr is a bitmask of typed interrupts posted to a PE. A thief posts
// IntrSteal after claiming a victim's request word; the victim's engine
// observes the mask at its next quantized polling boundary, exactly where
// the per-node polling of the real implementation would have seen the
// request word.
type Intr uint32

// IntrSteal signals a pending steal request on the PE's request word.
const IntrSteal Intr = 1 << 0

// Step flags returned by a Stepper alongside the quantum duration.
const (
	// StepDone ends the stepped advance; AdvanceStepped returns 0.
	StepDone uint8 = 1 << 0
	// StepNoPoll suppresses the interrupt check at this quantum's
	// boundary — used for boundaries where the original protocol had no
	// service point, keeping the batched schedule bit-identical.
	StepNoPoll uint8 = 1 << 1
)

// Stepper yields one quantum of a stepped advance: the virtual duration to
// consume and the flags governing the boundary it creates. Step functions
// may freely read and write simulation state (exactly one PE runs at any
// instant) but must not call Advance, Block, or lock operations — they
// execute in dispatcher context, possibly on another PE's goroutine.
type Stepper func() (time.Duration, uint8)

// procStatus is what a parked PE asked for (legacy engine).
type procStatus int

const (
	statusRunnable procStatus = iota // wants to run again after a delay
	statusBlocked                    // waits for an explicit Wake
	statusFinished                   // body returned
)

// Proc is the simulator-side handle of one PE.
type Proc struct {
	id  int
	sim *Sim

	// Batched engine: the single handoff channel (capacity 1, so a PE
	// popping its own next event can self-deliver), the pending interrupt
	// mask, and the parked stepped advance, if any.
	ch     chan Intr
	intr   Intr
	stepFn Stepper
	stepFl uint8

	// seq numbers this proc's scheduled resumptions; the (t, id, seq) key
	// orders the event queue identically under both engines.
	seq uint64

	// The remote operations staged against the current quantum's boundary
	// (remote.go).
	staged [2]stagedOp
	nstag  int

	// Legacy engine: two-channel wake/park handshake.
	wake   chan struct{}
	park   chan struct{}
	status procStatus
	delay  int64
}

// ID returns the PE number.
func (p *Proc) ID() int { return p.id }

// Now returns the current virtual time (valid only while running).
func (p *Proc) Now() time.Duration { return time.Duration(p.sim.now) }

// Post sets interrupt bits on p. The poster is another PE (or the
// simulation setup); p observes the mask at its next polling boundary.
func (p *Proc) Post(m Intr) { p.intr |= m }

// ClearIntr clears interrupt bits on p. Protocol service routines call it
// when they consume the underlying request through a direct check, so a
// stale mask cannot trigger a second service.
func (p *Proc) ClearIntr(m Intr) { p.intr &^= m }

// Spawn registers a PE with the given body, scheduled to start at virtual
// time zero. Must be called before Run.
func (s *Sim) Spawn(body func(p *Proc)) *Proc {
	p := &Proc{id: s.nprocs, sim: s}
	s.nprocs++
	if s.legacy {
		p.wake = make(chan struct{})
		p.park = make(chan struct{})
		go func() {
			<-p.wake
			body(p)
			p.status = statusFinished
			p.park <- struct{}{}
		}()
	} else {
		p.ch = make(chan Intr, 1)
		go func() {
			<-p.ch
			body(p)
			s.finished++
			s.dispatch()
		}()
	}
	s.schedule(p, 0)
	return p
}

// schedule enqueues a run event for p at virtual time t.
func (s *Sim) schedule(p *Proc, t int64) {
	p.seq++
	if s.legacy {
		s.lheap.push(ev{t: t, seq: p.seq, p: p})
	} else {
		s.heap.push(ev{t: t, seq: p.seq, p: p})
	}
}

// park records p's resume event without pushing it: every park site hands
// control straight to the dispatcher, which consumes the pending event via
// next — one heap exchange (single sift-down) instead of a push/pop pair.
// The sequence number comes from the proc's own counter, exactly as
// schedule would have drawn it, so tie-breaks are unchanged.
//
//uts:noalloc
func (s *Sim) park(p *Proc, t int64) {
	p.seq++
	s.pend = ev{t: t, seq: p.seq, p: p}
	s.hasPend = true
}

// next yields the globally minimal event: the pending parked event fused
// against the heap root, or a plain pop. A parked event can never precede
// the root (the park condition required the root's key to order at or
// before the parked event's (t, id, seq) key), so the pending slot always
// goes through exchange when the heap is nonempty.
//
//uts:noalloc
func (s *Sim) next() (ev, bool) {
	if s.hasPend {
		s.hasPend = false
		if len(s.heap.a) == 0 {
			return s.pend, true
		}
		return s.heap.exchange(s.pend), true
	}
	return s.heap.pop()
}

// Run executes the simulation until every spawned PE has finished. It
// returns an error if the event queue drains while PEs are still blocked —
// a protocol deadlock, which the test suite treats as a hard failure.
func (s *Sim) Run() error {
	if s.legacy {
		return s.runLegacy()
	}
	s.doneCh = make(chan error, 1)
	s.dispatch()
	return <-s.doneCh
}

// dispatch pops events until control is handed to a PE goroutine or the
// queue drains. Exactly one goroutine executes engine code at any moment:
// either Run's caller or the PE that just yielded; every transfer of
// control is one buffered-channel send, which is also the happens-before
// edge that makes lock-free sharing of all simulation state sound.
//
//uts:noalloc
func (s *Sim) dispatch() {
	for {
		e, ok := s.next()
		if !ok {
			if s.finished != s.nprocs {
				//uts:ok noalloc deadlock teardown: the simulation is over once this error is built
				s.err = fmt.Errorf("des: deadlock: %d of %d PEs still blocked at t=%v", s.nprocs-s.finished, s.nprocs, s.Now())
			}
			s.doneCh <- s.err
			return
		}
		s.now = e.t
		s.events++
		p := e.p
		if p.stepFn != nil {
			if s.contStep(p) {
				return
			}
			continue
		}
		p.ch <- 0
		return
	}
}

// contStep resumes a parked stepped advance at its boundary, in dispatcher
// context. It applies the boundary's flags, then keeps stepping inline —
// committing quanta that precede every queued event without any heap or
// channel traffic — until the advance ends (control is handed to the PE's
// goroutine; returns true) or a quantum collides with the queue and is
// rescheduled (returns false: the dispatcher keeps going).
//
//uts:noalloc
func (s *Sim) contStep(p *Proc) bool {
	fl := p.stepFl
	for {
		if p.nstag > 0 {
			p.runStaged()
		}
		if fl&StepDone != 0 {
			p.stepFn = nil
			p.ch <- 0
			return true
		}
		if fl&StepNoPoll == 0 && p.intr != 0 {
			m := p.intr
			p.intr = 0
			p.stepFn = nil
			p.ch <- m
			return true
		}
		var d time.Duration
		d, fl = p.stepFn()
		if d > 0 {
			t := s.now + int64(d)
			if !s.heap.empty() && !s.heap.rootAfter(t, p.id) {
				p.stepFl = fl
				s.park(p, t)
				return false
			}
			s.now = t
			s.events++
		}
	}
}

// Advance consumes d of virtual time: the PE resumes once the clock
// reaches now+d. When the deadline's (t, id, seq) key strictly precedes
// every queued event the clock commits inline — no heap traffic, no
// goroutine switch. Otherwise the smaller-keyed queued event must run
// first, exactly as if this PE had parked and been popped in key order,
// so skipping the queue preserves the schedule. Negative delays are
// treated as zero.
//
//uts:noalloc
func (p *Proc) Advance(d time.Duration) {
	if d < 0 {
		d = 0
	}
	s := p.sim
	if s.legacy {
		p.legacyAdvance(int64(d))
		return
	}
	t := s.now + int64(d)
	if s.heap.empty() || s.heap.rootAfter(t, p.id) {
		s.now = t
		s.events++
		return
	}
	s.park(p, t)
	p.yield()
}

// AdvanceStepped consumes virtual time one quantum at a time, calling step
// for each. After a quantum with duration d the clock stands exactly at
// the quantum's boundary; there the engine applies the returned flags:
// StepDone ends the advance (returns 0), and — unless StepNoPoll is set —
// a pending interrupt mask ends it too (returns the mask, cleared). A
// zero-duration quantum creates no event but still gets its boundary
// flags applied, mirroring the zero-pending flush of the protocol loops.
//
// The first step executes before any interrupt check, matching protocols
// that explore before polling. Quanta run inline while their boundary
// precedes every queued event; otherwise the PE parks and the dispatcher
// continues the same step sequence in place, so a whole batch of node
// work, probes, or idle polls costs zero goroutine switches.
//
//uts:noalloc
func (p *Proc) AdvanceStepped(step Stepper) Intr {
	s := p.sim
	if s.legacy {
		return p.legacyAdvanceStepped(step)
	}
	for {
		d, fl := step()
		if d > 0 {
			t := s.now + int64(d)
			if !s.heap.empty() && !s.heap.rootAfter(t, p.id) {
				p.stepFn = step
				p.stepFl = fl
				s.park(p, t)
				return p.yield()
			}
			s.now = t
			s.events++
		}
		if p.nstag > 0 {
			p.runStaged()
		}
		if fl&StepDone != 0 {
			return 0
		}
		if fl&StepNoPoll == 0 && p.intr != 0 {
			m := p.intr
			p.intr = 0
			return m
		}
	}
}

// yield hands control to the dispatcher and blocks until an event (or a
// finished stepped advance) hands it back, delivering the interrupt mask
// that ended a stepped advance, or 0.
//
//uts:noalloc
func (p *Proc) yield() Intr {
	p.sim.dispatch()
	return <-p.ch
}

// Block parks the PE until another PE calls Wake on it.
func (p *Proc) Block() {
	if p.sim.legacy {
		p.legacyBlock()
		return
	}
	p.yield()
}

// Wake schedules a blocked PE q to resume at the current virtual time plus
// d. Calling Wake on a PE that is not blocked corrupts the schedule; the
// lock discipline in this package is the only caller.
func (p *Proc) Wake(q *Proc, d time.Duration) {
	p.sim.schedule(q, p.sim.now+int64(d))
}

// ev is one scheduled resumption, ordered by the key (t, proc ID, per-proc
// seq). The key is the deterministic tie-break of the schedule: within one
// proc the seq keeps its resumptions FIFO, and across procs a time tie
// resolves by proc ID, so both engines pop events in the same order.
type ev struct {
	t   int64
	seq uint64
	p   *Proc
}

func evLess(a, b ev) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.p.id != b.p.id {
		return a.p.id < b.p.id
	}
	return a.seq < b.seq
}

// flatHeap is a flat 4-ary indexed min-heap of value-typed events: no
// interface boxing, no per-push allocation beyond slice growth, and a
// shallower tree than a binary heap — sift-downs touch ~half as many
// levels, which matters because pop is the engine's hottest operation.
type flatHeap struct {
	a []ev
}

func (h *flatHeap) empty() bool { return len(h.a) == 0 }

// rootAfter reports whether the heap minimum orders strictly after a
// would-be event of proc id at time t — the inline-commit condition. A
// proc has at most one outstanding resumption, so the (t, id) prefix of
// the key can never tie exactly against a queued event and the seq
// component need not be consulted.
//
//uts:noalloc
func (h *flatHeap) rootAfter(t int64, id int) bool {
	r := &h.a[0]
	if r.t != t {
		return r.t > t
	}
	return r.p.id > id
}

//uts:noalloc
func (h *flatHeap) push(e ev) {
	h.a = append(h.a, e) //uts:ok noalloc amortized slice growth; steady-state pushes reuse the backing array
	a := h.a
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		if !evLess(e, a[parent]) {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = e
}

//uts:noalloc
func (h *flatHeap) pop() (ev, bool) {
	n := len(h.a)
	if n == 0 {
		return ev{}, false
	}
	top := h.a[0]
	n--
	h.a[0] = h.a[n]
	h.a[n] = ev{}
	h.a = h.a[:n]
	if n > 1 {
		h.siftDown(0)
	}
	return top, true
}

// exchange replaces the minimum with e and returns it, restoring heap
// order with a single sift-down. It is the fused form of push(e)+pop()
// for the engine's hottest pattern — a PE parks and the dispatcher
// immediately needs the next event — valid whenever e orders at-or-after
// the current root, which the park condition guarantees.
//
//uts:noalloc
func (h *flatHeap) exchange(e ev) ev {
	top := h.a[0]
	h.a[0] = e
	h.siftDown(0)
	return top
}

// siftDown restores heap order below i by hole insertion: the displaced
// element is held aside while smaller children move up, then written once
// at its final slot — half the memory traffic of swapping at every level.
//
//uts:noalloc
func (h *flatHeap) siftDown(i int) {
	a := h.a
	n := len(a)
	e := a[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if evLess(a[j], a[m]) {
				m = j
			}
		}
		if !evLess(a[m], e) {
			break
		}
		a[i] = a[m]
		i = m
	}
	a[i] = e
}

// Lock is a virtual-time mutex with FIFO queueing. Contention behaves as
// on real hardware: a PE that requests a held lock waits for every earlier
// requester — this is how the simulator reproduces the paper's observation
// that remote thieves can keep a victim's stack locked for long stretches.
// The waiter queue is a ring buffer with O(1) enqueue and dequeue, so a
// long thief queue costs nothing beyond the queueing delay it models.
type Lock struct {
	held bool
	q    []*Proc // ring buffer of waiters
	head int
	n    int
}

func (l *Lock) enqueue(p *Proc) {
	if l.n == len(l.q) {
		size := 2 * len(l.q)
		if size < 4 {
			size = 4
		}
		grown := make([]*Proc, size)
		for i := 0; i < l.n; i++ {
			grown[i] = l.q[(l.head+i)%len(l.q)]
		}
		l.q, l.head = grown, 0
	}
	l.q[(l.head+l.n)%len(l.q)] = p
	l.n++
}

func (l *Lock) dequeue() *Proc {
	p := l.q[l.head]
	l.q[l.head] = nil
	l.head = (l.head + 1) % len(l.q)
	l.n--
	return p
}

// Acquire takes the lock, first consuming cost (the acquisition RTT), then
// queueing behind the current holder if necessary.
//
//uts:noalloc
func (p *Proc) Acquire(l *Lock, cost time.Duration) {
	p.Advance(cost)
	if !l.held {
		l.held = true
		return
	}
	l.enqueue(p)
	p.Block()
	// Woken by Release with the lock already assigned to us.
}

// Release hands the lock to the oldest waiter, if any, and consumes cost
// (the release RTT) on the calling PE.
//
//uts:noalloc
func (p *Proc) Release(l *Lock, cost time.Duration) {
	if !l.held {
		panic("des: release of unheld lock")
	}
	if l.n > 0 {
		p.Wake(l.dequeue(), 0) // lock stays held, now by next
	} else {
		l.held = false
	}
	p.Advance(cost)
}

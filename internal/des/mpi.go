package des

import (
	"time"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/uts"
)

// simMsg is one in-flight message: visible to the receiver once virtual
// time reaches arriveAt. The inbox holds messages in send order — the
// dispatcher applies each send at its completion instant, in event-key
// order, so appending keeps them ordered by (send time, sender).
type simMsg struct {
	arriveAt time.Duration
	from     int
	tag      msg.Tag
	chunks   []stack.Chunk
	color    msg.Color
}

// opMPIDeliver is the protocol's single remote operation: append a message
// to rank dst's inbox. a packs (from, tag, color), b is the send-complete
// stamp; the arrival stamp is recomputed from the payload size, and
// visibility is gated on it by recv/hasArrived.
const opMPIDeliver uint8 = 0

func (r *simMPIRun) apply(dst int, op uint8, a, b int64, chunks []stack.Chunk) int64 {
	pe := r.pes[dst]
	size := 16
	for _, c := range chunks {
		size += nodeBytes * len(c)
	}
	pe.inbox = append(pe.inbox, simMsg{
		arriveAt: time.Duration(b) + r.cs.bulk(size),
		from:     int(a & 0xffffffff),
		tag:      msg.Tag((a >> 32) & 0xff),
		chunks:   chunks,
		color:    msg.Color((a >> 40) & 0xff),
	})
	return 0
}

// simMPIRun is the run state of the simulated mpi-ws baseline.
type simMPIRun struct {
	sp     *uts.Spec
	cfg    Config
	cs     costs
	pes    []*simMPIPE
	finish func(*Proc)
}

// simMPIPE is one simulated MPI rank.
type simMPIPE struct {
	r     *simMPIRun
	p     *Proc
	me    int
	t     *stats.Thread
	lane  *obs.Lane // nil when the run is untraced
	state stats.State

	local stack.Deque
	inbox []simMsg
	ex    *uts.Expander
	rng   *core.ProbeOrder

	color       msg.Color
	haveToken   bool
	tokenColor  msg.Color
	firstPass   bool
	outstanding bool
	terminated  bool

	nodesFlushed int64              // t.Nodes already published to the lane's live counter
	ctl          *policy.Controller // nil when the run is not adaptive
	ctlNodes     int64              // t.Nodes already reported to the controller
}

// flushNodes publishes node progress to the lane's live counter in
// batches at the explore phase's poll boundaries — one atomic add per
// flush, never per node.
func (pe *simMPIPE) flushNodes() {
	if d := pe.t.Nodes - pe.nodesFlushed; d != 0 {
		pe.lane.AddNodes(d)
		pe.nodesFlushed = pe.t.Nodes
	}
}

// noteCtl feeds node progress to the rank's controller stamped with
// virtual time, closing adaptation windows; a no-op for fixed-knob runs.
func (pe *simMPIPE) noteCtl() {
	if pe.ctl == nil {
		return
	}
	pe.ctl.NoteNodes(int(pe.t.Nodes-pe.ctlNodes), pe.local.Len(), int64(pe.p.Now()))
	pe.ctlNodes = pe.t.Nodes
}

// chunk returns the grant granularity in effect: the adapted value under
// a controller, the configured constant otherwise.
func (pe *simMPIPE) chunk() int {
	if pe.ctl != nil {
		return pe.ctl.Chunk()
	}
	return pe.r.cfg.Chunk
}

// pollIntv returns the poll interval in effect.
func (pe *simMPIPE) pollIntv() int {
	if pe.ctl != nil {
		return pe.ctl.Poll()
	}
	return pe.r.cfg.PollInterval
}

func simMPIWS(sim *Sim, sp *uts.Spec, cfg Config, cs costs, res *core.Result, ps *policy.Set, finish func(*Proc)) (sampler, error) {
	r := &simMPIRun{sp: sp, cfg: cfg, cs: cs, finish: finish}
	sim.SetRemote(r.apply)
	r.pes = make([]*simMPIPE, cfg.PEs)
	for i := 0; i < cfg.PEs; i++ {
		pe := &simMPIPE{r: r, me: i, t: &res.Threads[i], lane: cfg.Tracer.Lane(i), rng: core.NewProbeOrder(cfg.Seed, i), ex: uts.NewExpander(sp), ctl: ps.Controller(i)}
		r.pes[i] = pe
		if i == 0 {
			pe.local.Push(uts.Root(sp))
			pe.haveToken = true
			pe.tokenColor = msg.Black
			pe.firstPass = true
		}
		sim.Spawn(func(p *Proc) {
			pe.p = p
			pe.main()
			r.finish(p)
		})
	}
	return func() (sources, working int) {
		for _, pe := range r.pes {
			// An MPI rank is a work source when it has enough stack to
			// satisfy a request (the 2k surplus rule of handle()).
			if pe.local.Len() >= 2*r.cfg.Chunk {
				sources++
			}
			if pe.local.Len() > 0 {
				working++
			}
		}
		return
	}, nil
}

func (pe *simMPIPE) advance(d time.Duration) {
	pe.t.AddState(pe.state, d)
	pe.p.Advance(d)
}

// charge books d of virtual time against the rank's current state without
// advancing the clock — used by step functions, where the engine advances.
func (pe *simMPIPE) charge(d time.Duration) time.Duration {
	pe.t.AddState(pe.state, d)
	return d
}

// rec records an event stamped with the rank's current virtual time.
func (pe *simMPIPE) rec(k obs.Kind, other int32, value int64) {
	pe.lane.RecV(k, other, value, pe.p.Now())
}

// setState pairs the stats state charge target with the tracer's state
// event.
func (pe *simMPIPE) setState(s stats.State) {
	pe.state = s
	pe.rec(obs.KindStateChange, -1, int64(s))
}

// send charges the sender the injection overhead and delivers the message
// after the transfer latency.
func (pe *simMPIPE) send(to int, tag msg.Tag, chunks []stack.Chunk, color msg.Color) {
	size := 16
	for _, c := range chunks {
		size += nodeBytes * len(c)
	}
	adv := pe.r.cs.localRef // injection overhead
	pe.t.AddState(pe.state, adv)
	a := int64(uint32(pe.me)) | int64(tag)<<32 | int64(color)<<40
	b := int64(pe.p.Now() + adv)
	pe.p.RemoteSend(to, adv, opMPIDeliver, a, b, chunks)
}

// recv returns the oldest message that has arrived by now.
func (pe *simMPIPE) recv() (simMsg, bool) {
	now := pe.p.Now()
	for i, m := range pe.inbox {
		if m.arriveAt <= now {
			pe.inbox = append(pe.inbox[:i], pe.inbox[i+1:]...)
			return m, true
		}
	}
	return simMsg{}, false
}

// hasArrived reports whether any inbox message is visible at the current
// instant, without consuming it — the step-function form of a failed recv.
func (pe *simMPIPE) hasArrived() bool {
	now := pe.p.Now()
	for _, m := range pe.inbox {
		if m.arriveAt <= now {
			return true
		}
	}
	return false
}

func (pe *simMPIPE) main() {
	pe.rec(obs.KindStateChange, -1, int64(stats.Working))
	for !pe.terminated {
		if pe.local.Len() > 0 {
			pe.work()
		} else {
			pe.idle()
		}
	}
}

// work explores nodes as one stepped advance: each cycle is a quantum of
// up to PollInterval nodes followed by a quantum for the MPI_Iprobe check,
// all committed inline while no message event intervenes. The advance
// ends when a message has arrived (handled on the rank's own goroutine,
// because replies send) or when the stack drains after its trailing probe.
func (pe *simMPIPE) work() {
	cs := &pe.r.cs
	poll := pe.pollIntv()
	pending := 0
	const (
		wExplore = iota
		wIprobe
		wEval
	)
	ph := wExplore
	atPoll := false // this cycle's iprobe is the in-loop drain at since>=poll
	done := false
	step := func() (time.Duration, uint8) {
		switch ph {
		case wExplore:
			atPoll = false
			for pe.local.Len() > 0 && !pe.terminated {
				n, _ := pe.local.Pop()
				pending++
				pe.t.Nodes++
				if n.NumKids == 0 {
					pe.t.Leaves++
				} else {
					pe.local.PushAll(pe.ex.Children(&n))
				}
				pe.t.NoteDepth(pe.local.Len())
				if pending >= poll {
					atPoll = true
					break
				}
			}
			d := time.Duration(pending) * cs.nodeCost
			pending = 0
			pe.flushNodes()
			pe.noteCtl()
			poll = pe.pollIntv()
			ph = wIprobe
			return pe.charge(d), 0
		case wIprobe:
			// MPI_Iprobe costs library time on every check.
			ph = wEval
			return pe.charge(cs.iprobe), 0
		default: // wEval
			if pe.hasArrived() {
				return 0, StepDone
			}
			if pe.ctl != nil {
				pe.ctl.NotePoll(0) // an iprobe that found nothing
			}
			if atPoll && pe.local.Len() > 0 && !pe.terminated {
				ph = wExplore
				return 0, 0
			}
			if atPoll {
				// The loop exits here; the trailing flush is empty, but its
				// drain still pays one more iprobe.
				atPoll = false
				ph = wIprobe
				return 0, 0
			}
			done = true
			return 0, StepDone
		}
	}
	for {
		pe.p.AdvanceStepped(step)
		if done {
			return
		}
		// A message arrived: consume it and keep draining exactly as the
		// original loop — one iprobe charge per further check.
		m, _ := pe.recv()
		pe.handle(m)
		got := 1
		for {
			pe.advance(cs.iprobe)
			m, ok := pe.recv()
			if !ok {
				break
			}
			got++
			pe.handle(m)
		}
		if pe.ctl != nil {
			pe.ctl.NotePoll(got)
		}
		if !atPoll {
			// The drain that saw the message was the trailing one.
			return
		}
		if pe.local.Len() > 0 && !pe.terminated {
			ph = wExplore
			continue
		}
		// Stack drained (or terminated) at an in-loop poll: run the
		// trailing drain's iprobe before returning.
		atPoll = false
		ph = wIprobe
	}
}

func (pe *simMPIPE) handle(m simMsg) {
	switch m.tag {
	case msg.TagStealRequest:
		pe.t.Requests++
		k := pe.chunk()
		if pe.local.Len() >= 2*k {
			chunk := pe.local.TakeBottom(k)
			pe.color = msg.Black
			pe.t.Releases++
			pe.rec(obs.KindStealGrant, int32(m.from), 1)
			pe.send(m.from, msg.TagWork, []stack.Chunk{chunk}, 0)
		} else {
			if pe.ctl != nil && pe.local.Len() > 0 {
				// Denied while holding work: victim-side evidence that the
				// 2k grant threshold is withholding work from demand.
				pe.ctl.NoteDenied()
			}
			pe.rec(obs.KindStealDeny, int32(m.from), 0)
			pe.send(m.from, msg.TagNoWork, nil, 0)
		}
	case msg.TagWork:
		pe.outstanding = false
		pe.t.Steals++
		pe.t.ChunksGot += int64(len(m.chunks))
		total := 0
		for _, c := range m.chunks {
			total += len(c)
			pe.local.PushAll(c)
		}
		if pe.ctl != nil {
			pe.ctl.StealEnd(true, total, int64(pe.p.Now()))
		}
		pe.rec(obs.KindChunkTransfer, int32(m.from), int64(total))
	case msg.TagNoWork:
		pe.outstanding = false
		pe.t.FailedSteals++
		if pe.ctl != nil {
			pe.ctl.StealEnd(false, 0, int64(pe.p.Now()))
		}
		pe.rec(obs.KindStealFail, int32(m.from), 0)
	case msg.TagToken:
		pe.haveToken = true
		pe.tokenColor = m.color
	case msg.TagTerminate:
		pe.terminated = true
	}
}

func (pe *simMPIPE) idle() {
	pe.setState(stats.Searching)
	defer pe.setState(stats.Working)
	// The wait for a response or the token is a stepped advance: one
	// idle-poll quantum per check, committed inline until a message
	// arrival event lands in the window.
	wait := func() (time.Duration, uint8) {
		if pe.hasArrived() {
			return 0, StepDone
		}
		return pe.charge(pe.r.cs.idlePoll), 0
	}
	for pe.local.Len() == 0 && !pe.terminated {
		if m, ok := pe.recv(); ok {
			pe.handle(m)
			continue
		}
		if len(pe.r.pes) == 1 {
			pe.terminated = true
			return
		}
		// Passive here: no work, nothing visible in the inbox.
		if pe.haveToken && !pe.outstanding {
			pe.passToken()
			continue
		}
		if !pe.outstanding {
			v := pe.rng.Victim(pe.me, len(pe.r.pes))
			pe.t.Probes++
			if pe.ctl != nil {
				pe.ctl.StealBegin(int64(pe.p.Now()))
			}
			pe.rec(obs.KindStealRequest, int32(v), 0)
			pe.send(v, msg.TagStealRequest, nil, 0)
			pe.outstanding = true
			continue
		}
		pe.p.AdvanceStepped(wait)
		pe.noteCtl()
	}
}

func (pe *simMPIPE) passToken() {
	pe.haveToken = false
	n := len(pe.r.pes)
	if pe.me == 0 {
		if !pe.firstPass && pe.tokenColor == msg.White && pe.color == msg.White {
			for j := 1; j < n; j++ {
				pe.send(j, msg.TagTerminate, nil, 0)
			}
			pe.terminated = true
			return
		}
		pe.firstPass = false
		pe.color = msg.White
		pe.send(1%n, msg.TagToken, nil, msg.White)
		return
	}
	c := pe.tokenColor
	if pe.color == msg.Black {
		c = msg.Black
	}
	pe.color = msg.White
	pe.send((pe.me+1)%n, msg.TagToken, nil, c)
}

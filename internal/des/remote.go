package des

import (
	"time"

	"repro/internal/stack"
)

// This file is the remote-operation layer: the single doorway through which
// one simulated PE touches state owned by another. The simulation has one
// dispatcher and exactly one PE runs at any instant, so every call is a
// plain function call: the operation applies inline at the caller's clock,
// after every smaller-keyed event has run. Routing each cross-PE effect
// through these calls keeps the protocols' remote traffic in one small,
// named vocabulary of opcodes instead of scattered field writes.
//
// The vocabulary is three calls:
//
//   - RemoteCall: advance d, then execute op against dst's partition at the
//     completion instant and return its result. Models a lock-protected
//     read-modify-write (claiming a victim's request word).
//   - RemoteSend: advance adv, then apply op at dst. Models one-sided
//     writes whose effect is committed at the completion instant (a steal
//     response). A payload that becomes visible to the receiver only later
//     (an MPI message in flight) carries its own arrival stamp, and the
//     receiver gates visibility on it.
//   - StageRemote: stage op to execute against dst exactly at the boundary
//     of the quantum the surrounding Stepper is about to return — the
//     completion instant of an in-flight one-sided read. The result is
//     available through StagedResult once the boundary is reached. At most
//     two ops may be staged per quantum (a termination probe reads both the
//     victim's work counter and the barrier's announcement flag at the same
//     completion instant).
//
// Operations may freely mutate the destination PE's state and post
// interrupts, but must not advance any clock, block, or initiate further
// remote operations.

// RemoteApply interprets one remote operation against the partition of PE
// dst. Protocols register one interpreter per run via Sim.SetRemote; the op
// codes and argument packing are private to each protocol.
type RemoteApply func(dst int, op uint8, a, b int64, chunks []stack.Chunk) int64

// stagedOp is one remote operation staged against the current quantum's
// boundary.
type stagedOp struct {
	dst int32
	op  uint8
	a   int64
	b   int64
	res int64
}

// SetRemote registers the remote-operation interpreter for this run. Must
// be called before Run by any protocol that uses the remote-operation
// layer.
func (s *Sim) SetRemote(fn RemoteApply) { s.remote = fn }

// RemoteCall advances d of virtual time, then executes op against dst's
// partition at the completion instant and returns its result. The caller
// observes the destination exactly as it stands when the clock reaches
// now+d, with every smaller-keyed event already applied.
//
//uts:noalloc
func (p *Proc) RemoteCall(dst int, d time.Duration, op uint8, a, b int64) int64 {
	p.Advance(d)
	return p.sim.remote(dst, op, a, b, nil)
}

// RemoteSend advances adv of virtual time, then applies op against dst's
// partition at the completion instant: a fire-and-forget committed effect.
//
//uts:noalloc
func (p *Proc) RemoteSend(dst int, adv time.Duration, op uint8, a, b int64, chunks []stack.Chunk) {
	p.Advance(adv)
	p.sim.remote(dst, op, a, b, chunks)
}

// StageRemote stages op to execute against dst's partition exactly at the
// boundary of the quantum the surrounding Stepper is about to return with
// duration d (which StageRemote returns for convenience). The op executes
// after every smaller-keyed event at that instant; its result is available
// through StagedResult once the boundary has been reached. Only valid
// inside a Stepper, at most twice per quantum.
//
//uts:noalloc
func (p *Proc) StageRemote(dst int, d time.Duration, op uint8, a, b int64) time.Duration {
	if p.nstag == len(p.staged) {
		panic("des: more than two remote ops staged in one quantum")
	}
	p.staged[p.nstag] = stagedOp{dst: int32(dst), op: op, a: a, b: b}
	p.nstag++
	return d
}

// StagedResult returns the result of the i-th op staged in the quantum
// whose boundary was last reached, in staging order.
//
//uts:noalloc
func (p *Proc) StagedResult(i int) int64 { return p.staged[i].res }

// runStaged executes the staged ops of a quantum that just reached its
// boundary, in staging order.
//
//uts:noalloc
func (p *Proc) runStaged() {
	for i := 0; i < p.nstag; i++ {
		st := &p.staged[i]
		st.res = p.sim.remote(int(st.dst), st.op, st.a, st.b, nil)
	}
	p.nstag = 0
}

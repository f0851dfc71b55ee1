package cluster

import (
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/uts"
)

// Config configures one process of a distributed run.
type Config struct {
	// Rank is this process's ID in [0, Ranks); rank 0 is the coordinator.
	Rank int
	// Ranks is the total number of processes.
	Ranks int
	// Coord is the coordinator's listen address. Rank 0 listens on it
	// ("host:port", port may be 0 when CoordReady is used); other ranks
	// dial it.
	Coord string
	// CoordReady, if non-nil, receives rank 0's actual listen address once
	// it is accepting connections. Used by in-process launches and tests
	// that bind port 0.
	CoordReady chan<- string
	// Bind is the address non-coordinator ranks listen on for one-sided
	// traffic; default "127.0.0.1:0" (loopback, kernel-assigned port).
	// Multi-host runs bind a routable interface: "0.0.0.0:0", ":7800", …
	Bind string
	// Advertise is the address registered with the coordinator as this
	// rank's dial target; default the listener's own address. When Bind
	// is a wildcard the kernel-reported address ("0.0.0.0:4123") is not
	// dialable from other hosts, so set Advertise to this host's routable
	// IP — "10.0.0.2" or "10.0.0.2:7800"; a missing or zero port is
	// filled in from the actual listener. Applies to rank 0 as well (its
	// advertised address is what peers redial after a broken connection).
	Advertise string
	// Spec is the tree to search; every rank must be given the same spec.
	Spec *uts.Spec
	// Chunk is the steal granularity k; default 16.
	Chunk int
	// Seed randomizes probe orders.
	Seed int64
	// DialTimeout bounds bootstrap connection attempts; default 10s.
	DialTimeout time.Duration
	// RPCTimeout bounds every peer RPC (SetDeadline on the connection);
	// default 5s. A deadline miss poisons the gob stream, so the
	// connection is closed and redialed.
	RPCTimeout time.Duration
	// RPCRetries is how many times an idempotent RPC (GetAvail,
	// BarrierDone, the deduplicated Stats delivery, PeerDown) is retried
	// with exponential backoff and jitter before the peer is declared
	// dead; default 2 (three attempts total). Negative means no retries.
	// Non-idempotent kinds always get a single attempt.
	RPCRetries int
	// StatsTimeout bounds rank 0's end-of-run stats gather; default 30s.
	// Ranks still missing when it expires are reported in
	// stats.Run.FailedRanks instead of hanging the coordinator.
	StatsTimeout time.Duration
	// Adapt, when non-nil, runs this rank's worker under a closed-loop
	// policy controller (internal/policy) that adapts the steal
	// granularity k from windowed steal feedback, bounded around Chunk.
	// Every rank adapts independently off its own local evidence — there
	// is no cross-rank coordination traffic. A zero Config adapts with
	// defaults (window 10ms of wall time — steal round-trips here are
	// TCP RPCs, orders slower than the shared-memory schedulers'). Nil
	// keeps the fixed-knob path, byte-identical to a build without the
	// policy package.
	Adapt *policy.Config
	// Fault, when non-nil, arms the fault-injection harness (see
	// FaultPlan): deterministic drop/delay/sever/black-hole/kill rules
	// for tests and `uts-dist -fault` runs. Nil costs nothing.
	Fault *FaultPlan
	// Tracer, when non-nil, records this rank's steal-protocol events
	// into lane Rank (build it with obs.New(Ranks, ringSize) so lane
	// numbering matches rank numbering). Traces are per-process: each
	// rank writes its own file; there is no cross-rank event merge.
	Tracer *obs.Tracer
	// MetricsAddr, when non-empty, serves this rank's live telemetry on
	// it: /metrics (Prometheus text exposition) and /debug/pprof. Port 0
	// picks a free port (see MetricsReady). Rank 0 additionally appends
	// the cluster-wide rollup — per-rank and aggregated scheduler metrics
	// plus fault-tolerance gauges — polled over the kindMetrics RPC with
	// dead ranks skipped. A run with metrics on is bit-identical to one
	// with metrics off: the plane only reads.
	MetricsAddr string
	// MetricsReady, if non-nil, receives the telemetry server's actual
	// listen address once it is serving (the port-0 analogue of
	// CoordReady).
	MetricsReady chan<- string
	// MetricsLinger keeps the telemetry endpoint (and this rank's
	// progress engine) alive that long after the run completes, so an
	// external scraper can observe the finished state; default 0.
	MetricsLinger time.Duration
}

func (c Config) withDefaults() (Config, error) {
	if c.Ranks < 1 {
		return c, fmt.Errorf("cluster: need at least one rank, got %d", c.Ranks)
	}
	if c.Rank < 0 || c.Rank >= c.Ranks {
		return c, fmt.Errorf("cluster: rank %d out of range [0,%d)", c.Rank, c.Ranks)
	}
	if c.Spec == nil {
		return c, fmt.Errorf("cluster: no tree spec")
	}
	if err := c.Spec.Validate(); err != nil {
		return c, err
	}
	if c.Chunk == 0 {
		c.Chunk = 16
	}
	if c.Chunk < 1 {
		return c, fmt.Errorf("cluster: chunk must be >= 1, got %d", c.Chunk)
	}
	// Non-positive timeouts select the defaults: a negative RPCTimeout
	// would otherwise yield zero backoff (rand.Int63n panics on n <= 0),
	// an already-expired response deadline, and — via callOnce's
	// timeout > 0 guard — silently unbounded RPCs.
	if c.DialTimeout <= 0 {
		c.DialTimeout = 10 * time.Second
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = 5 * time.Second
	}
	if c.RPCRetries == 0 {
		c.RPCRetries = 2
	}
	if c.RPCRetries < 0 {
		c.RPCRetries = 0
	}
	if c.StatsTimeout <= 0 {
		c.StatsTimeout = 30 * time.Second
	}
	if c.Bind == "" {
		c.Bind = "127.0.0.1:0"
	}
	return c, nil
}

// errPeerDead wraps every RPC failure that ended with the peer declared
// dead. Callers classify on it (errors.Is) and degrade — skip the rank,
// fail the steal, complete over the survivors — instead of aborting.
var errPeerDead = errors.New("peer unresponsive (marked dead)")

// errKilled is returned throughout a rank the fault injector killed: the
// in-process stand-in for the process having exited.
var errKilled = errors.New("cluster: rank killed by fault injection")

// errConnBroken reports a call attempted on a connection already
// poisoned by a previous deadline miss.
var errConnBroken = errors.New("cluster: connection broken by earlier rpc failure")

// errRPCFailed wraps a non-idempotent RPC that failed while the peer
// demonstrably stayed alive (the confirmation probe answered): the
// exchange is lost, but the peer keeps its membership. Callers degrade
// the one operation — a failed steal, a withdrawn reservation — without
// the false death verdict a single transient stall used to produce.
var errRPCFailed = errors.New("rpc failed (peer alive)")

// node is one process's runtime state.
type node struct {
	cfg   Config
	ln    net.Listener
	addrs []string // rank → address

	// Shared words served one-sidedly by the progress engine.
	workAvail atomic.Int32
	reqWord   atomic.Int32

	// Incoming response slot (written by kindPutResponse). respMu orders
	// concurrent writers: a stale response from a timed-out steal can
	// race the current victim's response, so the slot is no longer
	// single-writer.
	respMu     sync.Mutex
	respAmount int32
	respHandle uint64
	respFrom   int
	respReady  atomic.Bool

	// Handoff table: chunks reserved by the worker, fetched one-sidedly
	// by thieves. Guarded by handoffMu (worker deposits, progress engine
	// serves). Each entry remembers its thief and deposit time so the
	// worker's reclaim sweep can take back reservations that were never
	// fetched — a thief that gave up or died must not strand the subtree
	// it was granted. handoffN counts the table's entries plus any the
	// progress engine has taken out to serve but not yet written to the
	// thief or redeposited, so the hot loop can ask "anything pending?"
	// with one atomic load, and the worker never sees zero while a served
	// grant may still come back.
	handoffMu  sync.Mutex
	handoffSeq uint64
	handoff    map[uint64]handoffEntry
	handoffN   atomic.Int32

	// Failure detection. dead[r] is this rank's local verdict that r is
	// unreachable (RPCs exhausted their retries); it removes r from
	// probe cycles. Rank 0 additionally tracks the reported membership
	// under barMu (deadSeen/numDead) so the termination barrier and the
	// stats gather complete over the survivors.
	dead []atomic.Bool

	// Fault injection (nil when Config.Fault is nil or has no rules for
	// this rank) and the killed state it can put the rank into. shut is
	// the normal-teardown analogue: once Run returns — cleanly or not —
	// the progress engine stops answering, mimicking process death so
	// in-process peers cannot mistake a finished rank for a live one.
	faults   *faultInjector
	killed   atomic.Bool
	shut     atomic.Bool
	killOnce sync.Once

	// Barrier state (rank 0 only), manipulated by the progress engine
	// under barMu. barIn tracks which ranks are inside so a duplicate
	// enter cannot double-count and a dying rank can be backed out;
	// deadSeen/numDead shrink the membership the barrier waits for.
	barMu     sync.Mutex
	barCount  int
	barIn     []bool
	deadSeen  []bool
	numDead   int
	announced atomic.Bool

	// Stats collection (rank 0 only). statsFrom tracks which ranks have
	// reported so duplicates are rejected rather than corrupting the
	// gather; statsCh (capacity 1) wakes the end-of-run gather loop.
	statsMu   sync.Mutex
	statsFrom []bool
	collected []stats.Thread
	statsCh   chan struct{}

	// Free lists recycling the kindGetChunks hot path: node buffers (the
	// k-node chunks released by the worker) and the []Chunk response
	// buffers that carry them through the handoff table. The worker draws
	// from these on release/steal service; the progress engine returns
	// both once a served response is encoded. Plain slices under a mutex
	// rather than sync.Pool: putting a slice header into an interface
	// would itself allocate, defeating the zero-steady-state goal.
	freeMu     sync.Mutex
	freeChunks []stack.Chunk
	freeBufs   [][]stack.Chunk

	// Outgoing connections, one per peer, created lazily and replaced
	// after an RPC failure (a failed exchange poisons the gob stream).
	peersMu sync.Mutex
	peers   []*peerConn

	// lane is this rank's tracer lane (nil when untraced). Recorded into
	// only from the worker/Run goroutine — obs lanes are single-writer.
	lane *obs.Lane

	// Telemetry plane (nil when Config.MetricsAddr is empty): the live
	// sampler over the tracer, the /metrics + pprof server, and — rank 0
	// only — the cluster rollup poller.
	sampler *obs.Sampler
	telem   *telemetry.Server
	roll    *rollup

	// pset holds this rank's adaptive controller (one entry — a process
	// is one PE) when Config.Adapt is set; nil otherwise.
	pset *policy.Set

	t stats.Thread
}

// newNode builds a node with every membership/bookkeeping slice sized
// for cfg.Ranks; used by Run and by tests that drive the progress engine
// directly.
func newNode(cfg Config) *node {
	n := &node{
		cfg:       cfg,
		handoff:   map[uint64]handoffEntry{},
		dead:      make([]atomic.Bool, cfg.Ranks),
		barIn:     make([]bool, cfg.Ranks),
		deadSeen:  make([]bool, cfg.Ranks),
		statsFrom: make([]bool, cfg.Ranks),
		statsCh:   make(chan struct{}, 1),
		faults:    newFaultInjector(cfg.Fault, cfg.Rank),
	}
	n.reqWord.Store(-1)
	n.t.ID = cfg.Rank
	n.lane = cfg.Tracer.Lane(cfg.Rank)
	if cfg.Adapt != nil {
		acfg := *cfg.Adapt
		if acfg.Window <= 0 {
			acfg.Window = 10 * time.Millisecond
		}
		// One controller: this process is a single PE. Victims always
		// grant half their pool here, so the steal-half knob stays at its
		// base; only k (release granularity + 2k threshold) adapts.
		n.pset = policy.NewSet(&acfg, policy.Base{Chunk: cfg.Chunk}, 1)
	}
	return n
}

// peerConn is one outgoing gob-encoded RPC connection.
type peerConn struct {
	mu     sync.Mutex
	conn   net.Conn
	enc    *gob.Encoder
	dec    *gob.Decoder
	broken atomic.Bool
}

func newPeerConn(conn net.Conn) *peerConn {
	return &peerConn{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
}

// close poisons the connection. Safe from any goroutine, including while
// a call is blocked in Read — Close unblocks it.
func (p *peerConn) close() {
	p.broken.Store(true)
	p.conn.Close()
}

// callOnce performs one lockstep RPC with an absolute deadline on the
// connection. Gob framing cannot survive a half-finished exchange, so
// any error — a deadline miss included — poisons the stream: the conn is
// closed and marked broken, and the owner must redial.
func (p *peerConn) callOnce(req *request, timeout time.Duration) (*response, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.broken.Load() {
		return nil, errConnBroken
	}
	if timeout > 0 {
		p.conn.SetDeadline(time.Now().Add(timeout))
	}
	if err := p.enc.Encode(req); err != nil {
		p.close()
		return nil, fmt.Errorf("cluster: rpc send: %w", err)
	}
	var resp response
	if err := p.dec.Decode(&resp); err != nil {
		p.close()
		return nil, fmt.Errorf("cluster: rpc recv: %w", err)
	}
	if timeout > 0 {
		p.conn.SetDeadline(time.Time{})
	}
	return &resp, nil
}

// idempotentKind reports whether a request may be retried safely: pure
// reads (GetAvail, BarrierDone, the Metrics snapshot), the
// coordinator-deduplicated stats delivery, and failure reports.
func idempotentKind(k reqKind) bool {
	switch k {
	case kindGetAvail, kindBarrierDone, kindStats, kindPeerDown, kindMetrics:
		return true
	}
	return false
}

// call performs one RPC to rank r under the configured deadline.
// Idempotent kinds are retried with exponential backoff and jitter.
// When every attempt fails, the verdict depends on the kind: an
// exhausted idempotent retry loop is itself the evidence, but a
// non-idempotent kind had only one attempt, so a fully retried
// idempotent probe confirms first — a peer that answers it is alive,
// and the error wraps errRPCFailed (exchange lost, membership kept)
// instead of errPeerDead. Only a confirmed-unreachable r is marked
// dead. Must be called from the worker/Run goroutine (it records into
// the rank's single-writer tracer lane).
func (n *node) call(r int, req *request) (*response, error) {
	if n.killed.Load() {
		return nil, errKilled
	}
	if n.isDead(r) {
		return nil, fmt.Errorf("cluster: rank %d: %w", r, errPeerDead)
	}
	attempts := 1
	if idempotentKind(req.Kind) {
		attempts += n.cfg.RPCRetries
	}
	resp, lastErr := n.attempt(r, req, attempts)
	if resp != nil {
		return resp, nil
	}
	if errors.Is(lastErr, errKilled) {
		return nil, errKilled
	}
	if !idempotentKind(req.Kind) {
		probe := request{Kind: kindGetAvail, From: n.cfg.Rank}
		if pr, _ := n.attempt(r, &probe, 1+n.cfg.RPCRetries); pr != nil {
			return nil, fmt.Errorf("cluster: rank %d: rpc kind %d to rank %d %w: %v",
				n.cfg.Rank, req.Kind, r, errRPCFailed, lastErr)
		}
		if n.killed.Load() {
			return nil, errKilled
		}
	}
	n.markDead(r)
	return nil, fmt.Errorf("cluster: rank %d: rank %d %w after %d attempt(s): %v",
		n.cfg.Rank, r, errPeerDead, attempts, lastErr)
}

// attempt runs the bounded retry loop for one RPC: a per-attempt
// deadline via callOnce, exponential backoff with jitter between
// attempts, and a redial after every failure (a failed exchange poisons
// the gob stream). Returns the first successful response, or (nil,
// lastErr) once the attempts are spent.
func (n *node) attempt(r int, req *request, attempts int) (*response, error) {
	backoff := n.cfg.RPCTimeout / 16
	if backoff < time.Millisecond {
		backoff = time.Millisecond
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			n.lane.Rec(obs.KindRPCRetry, int32(r), int64(a))
			time.Sleep(backoff/2 + time.Duration(rand.Int63n(int64(backoff))))
			backoff *= 2
		}
		if op, d, hooked := n.faults.act(ClientSide, r, req.Kind); hooked {
			switch op {
			case FaultDelay:
				time.Sleep(d)
			case FaultKill:
				n.die()
				return nil, errKilled
			}
			pc, err := n.peer(r)
			if err != nil {
				lastErr = err
				continue
			}
			switch op {
			case FaultSever:
				pc.conn.Close() // this attempt fails; the conn is redialed
			case FaultDrop, FaultBlackHole:
				blackhole(pc.conn) // bytes vanish; the deadline detects it
			}
		}
		pc, err := n.peer(r)
		if err != nil {
			lastErr = err
			continue
		}
		resp, err := pc.callOnce(req, n.cfg.RPCTimeout)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		n.dropPeer(r, pc)
		if n.killed.Load() {
			return nil, errKilled
		}
	}
	return nil, lastErr
}

// respWait bounds a thief's wait for a victim's steal response: the
// worst case a live victim can go without running service() — one fully
// retried call() toward a genuinely dead peer (a redial plus an RPC
// deadline per attempt, plus the backoff sleeps between attempts) —
// with one extra RPCTimeout of slack for the response transfer itself.
// Waiting any less risks declaring a merely busy victim dead: it may be
// stuck in its own retry loop toward a dead third rank, unable to
// answer steals meanwhile.
func (n *node) respWait() time.Duration {
	rpcT := n.cfg.RPCTimeout
	if rpcT <= 0 {
		rpcT = 5 * time.Second
	}
	attempts := 1 + n.cfg.RPCRetries
	if attempts < 1 {
		attempts = 1
	}
	d := time.Duration(attempts) * 2 * rpcT
	backoff := rpcT / 16
	if backoff < time.Millisecond {
		backoff = time.Millisecond
	}
	for a := 1; a < attempts; a++ {
		d += backoff + backoff/2 // sleep is backoff/2 + jitter < backoff
		backoff *= 2
	}
	return d + rpcT
}

// staleAfter is how long a handoff entry may sit unfetched before the
// reclaim sweep takes it back: the thief's full response wait again,
// doubled, which covers its chunk fetch and any service() it performs
// between receiving the response and issuing the fetch. Past this the
// thief has provably given up (or died). Reclaiming early is safe for
// the count — a late fetch finds the entry gone and books a failed
// steal, never a double delivery — it merely wastes a granted transfer.
func (n *node) staleAfter() time.Duration {
	return 2 * n.respWait()
}

// isDead reports this rank's local verdict on r.
func (n *node) isDead(r int) bool {
	return r >= 0 && r < len(n.dead) && n.dead[r].Load()
}

// markDead records the local decision that rank r is unreachable. On
// rank 0 it feeds the barrier and stats membership directly; elsewhere
// the failure is reported (best-effort, bounded) to the coordinator so
// termination and the stats gather complete without r.
func (n *node) markDead(r int) {
	if r < 0 || r >= n.cfg.Ranks || r == n.cfg.Rank {
		return
	}
	if n.dead[r].Swap(true) {
		return
	}
	n.lane.Rec(obs.KindPeerDead, int32(r), 0)
	if n.cfg.Rank == 0 {
		n.noteDead(r)
	} else if r != 0 {
		n.reportDead(r)
	}
}

// noteDead is rank 0's membership bookkeeping for dead rank r (> 0):
// remove it from the barrier accounting and wake the stats gather. Called
// from both the local worker (via markDead) and the progress engine
// (kindPeerDown reports); deadSeen dedups the two paths.
func (n *node) noteDead(r int) {
	if r <= 0 || r >= n.cfg.Ranks {
		return
	}
	n.dead[r].Store(true)
	// Verdicts that arrive after termination has been announced are
	// shutdown races, not membership events: a finished rank closes its
	// listener while slower peers are still mid-probe in their terminate
	// loop, and the failed probe would otherwise brand a rank that
	// completed the run intact. The dead[] store above still settles the
	// stats gather, and a rank that genuinely dies post-termination shows
	// up in FailedRanks (its counters never arrive) — so skipping the
	// deadSeen record here never hides a real failure.
	if n.announced.Load() {
		n.pokeStats()
		return
	}
	n.barMu.Lock()
	if !n.deadSeen[r] {
		n.deadSeen[r] = true
		n.numDead++
		if n.barIn[r] {
			n.barIn[r] = false
			n.barCount--
		}
		n.barRecheckLocked()
	}
	n.barMu.Unlock()
	n.pokeStats()
}

// reportDead tells the coordinator about r with one bounded, best-effort
// RPC; a failure here is ignored (the coordinator will learn about r
// from another survivor, or the stats gather's timeout backstop fires).
func (n *node) reportDead(r int) {
	pc, err := n.peer(0)
	if err != nil {
		return
	}
	req := request{Kind: kindPeerDown, From: n.cfg.Rank, Dead: int32(r)}
	if _, err := pc.callOnce(&req, n.cfg.RPCTimeout); err != nil {
		n.dropPeer(0, pc)
	}
}

// Run executes this process's part of a distributed search. On rank 0 it
// returns the aggregated result once every surviving rank has reported
// (partial results annotated with FailedRanks when peers died); on other
// ranks it returns (nil, nil) after a clean shutdown.
func Run(cfg Config) (*stats.Run, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	n := newNode(cfg)

	if err := n.bootstrap(); err != nil {
		n.close() // a partial bootstrap may have opened the listener
		return nil, err
	}
	defer n.close()

	// The telemetry plane comes up after bootstrap (the rollup needs the
	// address map) and lingers past the run before teardown, so every
	// rank's progress engine is still answering kindMetrics while an
	// external scraper reads the finished state.
	if err := n.startMetrics(); err != nil {
		return nil, err
	}
	defer n.stopMetrics()

	start := time.Now()
	if err := n.search(); err != nil {
		return nil, err
	}

	if cfg.Rank != 0 {
		// Report counters to the coordinator and exit. Safe to retry:
		// the coordinator dedups by sender rank.
		if cfg.Ranks > 1 {
			if _, err := n.call(0, &request{Kind: kindStats, From: cfg.Rank, Stats: &n.t}); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}

	// Rank 0: gather stats over the surviving membership, bounded by
	// StatsTimeout — dead or wedged ranks degrade the report to partial
	// results named in FailedRanks, never a permanent hang. The tracer
	// summary covers rank 0's own lane only (remote ranks write their
	// own trace files).
	failed := n.gatherStats()
	run := &stats.Run{
		Elapsed:        time.Since(start),
		FailedRanks:    failed,
		SuspectedRanks: n.suspectedRanks(),
	}
	run.Threads = append(run.Threads, n.t)
	n.statsMu.Lock()
	run.Threads = append(run.Threads, n.collected...)
	n.statsMu.Unlock()
	run.Obs = n.cfg.Tracer.Summary() // n.cfg: startMetrics may have armed the tracer
	// Each rank adapts off local evidence only, so the report covers rank
	// 0's own controller (remote knob trajectories stay at their ranks,
	// observable via each rank's uts_policy_* gauges).
	run.Policy = n.pset.Summary()
	return run, nil
}

// gatherStats waits until every rank has either reported its counters or
// been declared dead, bounded by StatsTimeout. It returns the sorted
// ranks that never reported.
func (n *node) gatherStats() []int {
	cfg := &n.cfg
	if cfg.Ranks == 1 {
		return nil
	}
	timer := time.NewTimer(cfg.StatsTimeout)
	defer timer.Stop()
wait:
	for !n.statsSettled() {
		select {
		case <-n.statsCh:
		case <-timer.C:
			break wait
		}
	}
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	var failed []int
	for r := 1; r < cfg.Ranks; r++ {
		if !n.statsFrom[r] {
			failed = append(failed, r)
		}
	}
	return failed
}

// suspectedRanks returns, in rank order, every rank the coordinator saw
// declared dead — by its own verdicts or a survivor's PeerDown report —
// whether or not that rank's stats later arrived. A suspected rank that
// still reported means the barrier membership shrank on a false
// positive: the run must be visibly annotated as degraded even though
// FailedRanks is empty, not pass as healthy.
func (n *node) suspectedRanks() []int {
	n.barMu.Lock()
	defer n.barMu.Unlock()
	var out []int
	for r, d := range n.deadSeen {
		if d {
			out = append(out, r)
		}
	}
	return out
}

// statsSettled reports whether every rank has reported or died.
func (n *node) statsSettled() bool {
	n.statsMu.Lock()
	defer n.statsMu.Unlock()
	for r := 1; r < n.cfg.Ranks; r++ {
		if !n.statsFrom[r] && !n.dead[r].Load() {
			return false
		}
	}
	return true
}

// pokeStats wakes the stats gather loop (lossy: the loop re-checks).
func (n *node) pokeStats() {
	select {
	case n.statsCh <- struct{}{}:
	default:
	}
}

// listen opens this rank's listener, fault-wrapped when injection is
// armed.
func (n *node) listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	if n.faults != nil {
		ln = &faultListener{Listener: ln}
	}
	return ln, nil
}

// dial opens an outgoing connection, fault-wrapped when injection is
// armed.
func (n *node) dial(addr string, timeout time.Duration) (net.Conn, error) {
	conn, err := dialRetry(addr, timeout)
	if err != nil {
		return nil, err
	}
	if n.faults != nil {
		conn = &faultConn{Conn: conn}
	}
	return conn, nil
}

// advertiseAddr resolves the address this rank registers with the
// coordinator: the listener's own address by default, otherwise the
// configured Advertise host with a missing or zero port filled in from
// the actual listener (so "-bind 0.0.0.0:0 -advertise 10.0.0.2" works).
func advertiseAddr(advertise string, ln net.Listener) (string, error) {
	actual := ln.Addr().String()
	if advertise == "" {
		return actual, nil
	}
	_, lport, err := net.SplitHostPort(actual)
	if err != nil {
		return "", fmt.Errorf("cluster: listener address %q: %w", actual, err)
	}
	host, port, err := net.SplitHostPort(advertise)
	if err != nil {
		// Bare host with no port: take the listener's.
		return net.JoinHostPort(advertise, lport), nil
	}
	if port == "" || port == "0" {
		port = lport
	}
	return net.JoinHostPort(host, port), nil
}

// bootstrap brings up the listener, exchanges the address map through the
// coordinator, and waits until every rank is reachable.
func (n *node) bootstrap() error {
	cfg := &n.cfg
	if cfg.Ranks == 1 {
		n.addrs = []string{""}
		return nil
	}
	if cfg.Rank == 0 {
		ln, err := n.listen(cfg.Coord)
		if err != nil {
			return fmt.Errorf("cluster: coordinator listen: %w", err)
		}
		n.ln = ln
		addr0, err := advertiseAddr(cfg.Advertise, ln)
		if err != nil {
			return err
		}
		if cfg.CoordReady != nil {
			cfg.CoordReady <- ln.Addr().String()
		}
		return n.coordinate(addr0)
	}

	ln, err := n.listen(cfg.Bind)
	if err != nil {
		return fmt.Errorf("cluster: rank %d listen on %q: %w", cfg.Rank, cfg.Bind, err)
	}
	n.ln = ln
	go n.serve()

	adv, err := advertiseAddr(cfg.Advertise, ln)
	if err != nil {
		return err
	}
	conn, err := n.dial(cfg.Coord, cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("cluster: rank %d dial coordinator: %w", cfg.Rank, err)
	}
	if op, _, hooked := n.faults.act(ClientSide, 0, kindHello); hooked {
		switch op {
		case FaultKill:
			n.die()
			return errKilled
		case FaultSever:
			conn.Close()
		case FaultDrop, FaultBlackHole:
			blackhole(conn)
		}
	}
	pc := newPeerConn(conn)
	resp, err := pc.callOnce(&request{Kind: kindHello, From: cfg.Rank, Addr: adv}, cfg.DialTimeout)
	if err != nil {
		return fmt.Errorf("cluster: rank %d hello: %w", cfg.Rank, err)
	}
	n.addrs = resp.Addrs
	n.peersMu.Lock()
	n.peers = make([]*peerConn, cfg.Ranks)
	n.peers[0] = pc // reuse the coordinator connection for rank-0 RPCs
	n.peersMu.Unlock()
	return nil
}

// coordinate is rank 0's side of the bootstrap: accept one Hello per rank
// within the DialTimeout window, then answer all of them with the
// completed address map and keep serving the connections. A rank that
// dies mid-bootstrap surfaces as a bounded accept timeout naming how many
// ranks registered, not a hang.
func (n *node) coordinate(addr0 string) error {
	cfg := &n.cfg
	n.addrs = make([]string, cfg.Ranks)
	n.addrs[0] = addr0

	deadline := time.Now().Add(cfg.DialTimeout)
	type deadliner interface{ SetDeadline(time.Time) error }
	if d, ok := n.ln.(deadliner); ok {
		d.SetDeadline(deadline)
	}

	type pending struct {
		conn net.Conn
		enc  *gob.Encoder
		dec  *gob.Decoder
	}
	waiting := make([]pending, 0, cfg.Ranks-1)
	for registered := 0; registered < cfg.Ranks-1; {
		conn, err := n.ln.Accept()
		if err != nil {
			return fmt.Errorf("cluster: bootstrap: %d of %d ranks registered within %v: %w",
				registered+1, cfg.Ranks, cfg.DialTimeout, err)
		}
		conn.SetReadDeadline(deadline)
		dec := gob.NewDecoder(conn)
		enc := gob.NewEncoder(conn)
		var req request
		if err := dec.Decode(&req); err != nil {
			conn.Close()
			return fmt.Errorf("cluster: bad hello: %w", err)
		}
		conn.SetReadDeadline(time.Time{})
		if req.Kind != kindHello || req.From <= 0 || req.From >= cfg.Ranks || n.addrs[req.From] != "" {
			conn.Close()
			return fmt.Errorf("cluster: invalid hello from rank %d", req.From)
		}
		n.addrs[req.From] = req.Addr
		waiting = append(waiting, pending{conn, enc, dec})
		registered++
	}
	if d, ok := n.ln.(deadliner); ok {
		d.SetDeadline(time.Time{})
	}
	for _, p := range waiting {
		p.conn.SetWriteDeadline(time.Now().Add(cfg.RPCTimeout))
		if err := p.enc.Encode(&response{Addrs: n.addrs}); err != nil {
			return fmt.Errorf("cluster: address broadcast: %w", err)
		}
		p.conn.SetWriteDeadline(time.Time{})
		// The hello connection becomes a served peer connection.
		go n.serveConn(p.conn, p.enc, p.dec)
	}
	go n.serve() // later direct dials from workers to rank 0's one-sided words
	return nil
}

// dialRetry dials until the deadline with growing backoff; the
// coordinator may come up after the workers when processes are launched
// together, so early refusals are expected and polite (re-)dial pacing
// matters more than latency.
func dialRetry(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	backoff := 5 * time.Millisecond
	for {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(backoff/2 + time.Duration(rand.Int63n(int64(backoff))))
		if backoff *= 2; backoff > 500*time.Millisecond {
			backoff = 500 * time.Millisecond
		}
	}
}

// serve accepts inbound one-sided connections for the progress engine.
func (n *node) serve() {
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed: shutting down
		}
		if n.killed.Load() || n.shut.Load() {
			conn.Close()
			return
		}
		go n.serveConn(conn, gob.NewEncoder(conn), gob.NewDecoder(conn))
	}
}

// serveConn is the progress engine: it services one-sided operations on
// this process's shared words without involving the worker thread. The
// request and reply structs live for the whole connection — reset, never
// reallocated — and served chunk buffers return to the node's free lists
// once encoded, so the steady-state request loop allocates nothing.
// Replies carry a write deadline so a peer that stops draining its socket
// cannot wedge the engine goroutine forever.
func (n *node) serveConn(conn net.Conn, enc *gob.Encoder, dec *gob.Decoder) {
	defer conn.Close()
	var req request
	var resp response
	mute := false
	for {
		req.reset()
		if err := dec.Decode(&req); err != nil {
			return
		}
		if n.killed.Load() || n.shut.Load() {
			return
		}
		resp.reset()
		recycle, ok := n.handleRequest(&req, &resp)
		if !ok {
			return // protocol error: drop the connection
		}
		// Any path on which a served GetChunks response provably does not
		// reach the thief must redeposit the chunks — already consumed
		// from the handoff table — rather than recycle (double delivery)
		// or leak them (a lost subtree and a silently short node count).
		if op, d, hooked := n.faults.act(ServerSide, req.From, req.Kind); hooked {
			switch op {
			case FaultDelay:
				time.Sleep(d)
			case FaultDrop:
				if recycle != nil {
					n.redeposit(int32(req.From), recycle)
				}
				continue
			case FaultSever:
				if recycle != nil {
					n.redeposit(int32(req.From), recycle)
				}
				return
			case FaultBlackHole:
				mute = true
			case FaultKill:
				n.die()
				return
			}
		}
		if mute {
			if recycle != nil {
				n.redeposit(int32(req.From), recycle)
			}
			continue
		}
		if n.cfg.RPCTimeout > 0 {
			conn.SetWriteDeadline(time.Now().Add(n.cfg.RPCTimeout))
		}
		if err := enc.Encode(&resp); err != nil {
			if recycle != nil {
				n.redeposit(int32(req.From), recycle)
			}
			return
		}
		if recycle != nil {
			n.handoffN.Add(-1)
			n.recycle(recycle)
		}
	}
}

// handleRequest services one progress-engine request, writing the reply
// into resp. It returns the chunk buffer to recycle once resp has been
// encoded (kindGetChunks only) and whether the connection should stay open.
func (n *node) handleRequest(req *request, resp *response) (recycle []stack.Chunk, ok bool) {
	switch req.Kind {
	case kindGetAvail:
		resp.Avail = n.workAvail.Load()
	case kindCASRequest:
		resp.OK = n.reqWord.CompareAndSwap(-1, req.Thief)
	case kindPutResponse:
		n.respMu.Lock()
		n.respAmount = req.Amount
		n.respHandle = req.Handle
		n.respFrom = req.From
		n.respReady.Store(true)
		n.respMu.Unlock()
	case kindGetChunks:
		// An absent handle is served as an empty response, not an error:
		// the worker's reclaim sweep may have taken the entry back, and
		// the thief books a failed steal for it.
		n.handoffMu.Lock()
		if e, ok := n.handoff[req.Handle]; ok {
			// handoffN keeps counting the entry until serveConn has
			// written the response or redeposited the chunks.
			delete(n.handoff, req.Handle)
			resp.Chunk = e.chunks
		}
		n.handoffMu.Unlock()
		recycle = resp.Chunk
	case kindBarrierEnter:
		resp.Last = n.barEnter(req.From)
	case kindBarrierLeave:
		resp.OK = n.barLeave(req.From)
	case kindBarrierDone:
		resp.Done = n.announced.Load()
	case kindStats:
		if req.Stats != nil && req.From > 0 && req.From < n.cfg.Ranks {
			n.statsMu.Lock()
			if !n.statsFrom[req.From] {
				n.statsFrom[req.From] = true
				n.collected = append(n.collected, *req.Stats)
			}
			n.statsMu.Unlock()
			n.pokeStats()
		}
	case kindPeerDown:
		if r := int(req.Dead); n.cfg.Rank == 0 && r > 0 && r < n.cfg.Ranks {
			n.noteDead(r)
		}
	case kindMetrics:
		resp.Metrics = n.metricsSnapshot()
	default:
		return nil, false
	}
	return recycle, true
}

// barEnter registers rank from inside the barrier and reports whether
// termination is (now) announced. Duplicate enters are idempotent.
func (n *node) barEnter(from int) bool {
	n.barMu.Lock()
	defer n.barMu.Unlock()
	if from >= 0 && from < len(n.barIn) && !n.barIn[from] {
		n.barIn[from] = true
		n.barCount++
		n.barRecheckLocked()
	}
	return n.announced.Load()
}

// barLeave backs rank from out of the barrier; it reports false when
// termination already raced in (the caller must finish instead).
func (n *node) barLeave(from int) bool {
	n.barMu.Lock()
	defer n.barMu.Unlock()
	if n.announced.Load() {
		return false
	}
	if from >= 0 && from < len(n.barIn) && n.barIn[from] {
		n.barIn[from] = false
		n.barCount--
	}
	return true
}

// barRecheckLocked announces termination once every live rank is inside
// the barrier; called under barMu whenever barCount or the membership
// changes.
func (n *node) barRecheckLocked() {
	if n.barCount > 0 && n.barCount >= n.cfg.Ranks-n.numDead {
		n.announced.Store(true)
	}
}

// peer returns (dialing if necessary) the outgoing connection to rank r.
// Post-bootstrap every listener is already up, so redials use a single
// bounded attempt — connection refused means the rank is gone, and the
// caller's retry loop provides the pacing.
func (n *node) peer(r int) (*peerConn, error) {
	n.peersMu.Lock()
	defer n.peersMu.Unlock()
	if n.peers == nil {
		n.peers = make([]*peerConn, n.cfg.Ranks)
	}
	if pc := n.peers[r]; pc != nil && !pc.broken.Load() {
		return pc, nil
	}
	timeout := n.cfg.RPCTimeout
	if timeout == 0 {
		timeout = n.cfg.DialTimeout
	}
	conn, err := net.DialTimeout("tcp", n.addrs[r], timeout)
	if err != nil {
		return nil, fmt.Errorf("cluster: rank %d cannot reach rank %d at %q: %w",
			n.cfg.Rank, r, n.addrs[r], err)
	}
	if n.faults != nil {
		conn = &faultConn{Conn: conn}
	}
	n.peers[r] = newPeerConn(conn)
	return n.peers[r], nil
}

// dropPeer forgets a connection that failed an RPC so the next call
// redials with a fresh gob stream.
func (n *node) dropPeer(r int, pc *peerConn) {
	pc.close()
	n.peersMu.Lock()
	if r >= 0 && r < len(n.peers) && n.peers[r] == pc {
		n.peers[r] = nil
	}
	n.peersMu.Unlock()
}

// die makes this rank behave like a killed process: stop accepting,
// stop serving, break every outgoing connection, and let the worker exit
// with errKilled at its next poll. Fault-injection only.
func (n *node) die() {
	n.killOnce.Do(func() {
		n.killed.Store(true)
		if n.ln != nil {
			n.ln.Close()
		}
		n.peersMu.Lock()
		for _, p := range n.peers {
			if p != nil {
				p.close()
			}
		}
		n.peersMu.Unlock()
	})
}

// close tears down the listener, stops the progress engine, and breaks
// every outgoing connection — the teardown a real process exit implies.
func (n *node) close() {
	n.shut.Store(true)
	if n.ln != nil {
		n.ln.Close()
	}
	n.peersMu.Lock()
	for _, p := range n.peers {
		if p != nil {
			p.close()
		}
	}
	n.peersMu.Unlock()
}

// handoffEntry is one reserved-work record in the handoff table: the
// chunks, which thief they were granted to, and when. A zero deposit
// time marks the entry as already stranded (the redeposit path), making
// it eligible for the very next reclaim sweep.
type handoffEntry struct {
	chunks []stack.Chunk
	thief  int32
	at     time.Time
}

// deposit reserves chunks in the handoff table for thief and returns
// their handle.
func (n *node) deposit(chunks []stack.Chunk, thief int32) uint64 {
	n.handoffMu.Lock()
	n.handoffSeq++
	h := n.handoffSeq
	n.handoff[h] = handoffEntry{chunks: chunks, thief: thief, at: time.Now()}
	n.handoffN.Add(1)
	n.handoffMu.Unlock()
	return h
}

// redeposit puts chunks whose served GetChunks response never reached
// the thief back into the table as an already-stranded entry. The
// progress engine cannot touch the worker-owned pool directly, so the
// table is the rendezvous: the worker's next reclaim sweep returns the
// work to the pool. This is the server-side counterpart of service()'s
// withdraw — a lost response must not lose the subtree it carried.
// handoffN is unchanged: it counted the entry while it was out.
func (n *node) redeposit(thief int32, chunks []stack.Chunk) {
	n.handoffMu.Lock()
	n.handoffSeq++
	n.handoff[n.handoffSeq] = handoffEntry{chunks: chunks, thief: thief}
	n.handoffMu.Unlock()
}

// withdraw takes reserved chunks back out of the handoff table — the
// un-deposit used when the steal response never reached the thief and
// the reserved work must return to the pool instead of leaking.
func (n *node) withdraw(h uint64) ([]stack.Chunk, bool) {
	n.handoffMu.Lock()
	defer n.handoffMu.Unlock()
	e, ok := n.handoff[h]
	if ok {
		delete(n.handoff, h)
		n.handoffN.Add(-1)
	}
	return e.chunks, ok
}

// reclaimStranded withdraws every handoff entry whose thief this rank
// has declared dead or whose age exceeds staleAfter, returning the
// entries so the worker can put the work back into its pool. This is
// the backstop for death-verdict false positives: a thief that timed
// out waiting for the response (while the PutResponse in fact landed)
// never fetches its grant, and without the sweep that subtree would sit
// in the table forever while the run printed a clean, silently short
// summary. Worker-goroutine only. Delivery and reclamation cannot
// double-count: both delete the entry under handoffMu, so exactly one
// side obtains the chunks.
func (n *node) reclaimStranded() []handoffEntry {
	if n.handoffN.Load() == 0 {
		return nil
	}
	now := time.Now()
	limit := n.staleAfter()
	var out []handoffEntry
	n.handoffMu.Lock()
	for h, e := range n.handoff {
		if n.isDead(int(e.thief)) || now.Sub(e.at) > limit {
			delete(n.handoff, h)
			out = append(out, e)
		}
	}
	n.handoffN.Add(-int32(len(out)))
	n.handoffMu.Unlock()
	return out
}

// getNodeBuf returns a recycled node buffer, or nil when none is free (the
// caller's append then allocates one that will join the cycle).
func (n *node) getNodeBuf() stack.Chunk {
	n.freeMu.Lock()
	defer n.freeMu.Unlock()
	if len(n.freeChunks) == 0 {
		return nil
	}
	c := n.freeChunks[len(n.freeChunks)-1]
	n.freeChunks = n.freeChunks[:len(n.freeChunks)-1]
	return c
}

// putNodeBuf recycles one node buffer whose contents are dead (copied onto
// a stack or encoded to a thief).
func (n *node) putNodeBuf(c stack.Chunk) {
	n.freeMu.Lock()
	n.freeChunks = append(n.freeChunks, c[:0])
	n.freeMu.Unlock()
}

// getChunkBuf returns a recycled response buffer, or nil when none is free.
func (n *node) getChunkBuf() []stack.Chunk {
	n.freeMu.Lock()
	defer n.freeMu.Unlock()
	if len(n.freeBufs) == 0 {
		return nil
	}
	b := n.freeBufs[len(n.freeBufs)-1]
	n.freeBufs = n.freeBufs[:len(n.freeBufs)-1]
	return b
}

// putChunkBuf recycles a response buffer alone, dropping its references;
// used when the node buffers it carried went back to the pool instead of
// the free lists (the withdraw path).
func (n *node) putChunkBuf(buf []stack.Chunk) {
	for i := range buf {
		buf[i] = nil
	}
	n.freeMu.Lock()
	n.freeBufs = append(n.freeBufs, buf[:0])
	n.freeMu.Unlock()
}

// recycle returns a served response buffer and every node buffer it
// carries to the free lists; called after the reply has been encoded.
func (n *node) recycle(buf []stack.Chunk) {
	n.freeMu.Lock()
	for i, c := range buf {
		n.freeChunks = append(n.freeChunks, c[:0])
		buf[i] = nil
	}
	n.freeBufs = append(n.freeBufs, buf[:0])
	n.freeMu.Unlock()
}

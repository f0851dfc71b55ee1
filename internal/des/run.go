package des

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/pgas"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/uts"
)

// Config configures a simulated run.
type Config struct {
	// Algorithm is any of the five parallel implementations of
	// internal/core (the Sequential pseudo-algorithm is not simulated).
	Algorithm core.Algorithm
	// PEs is the number of simulated processing elements.
	PEs int
	// Chunk is the steal granularity k in nodes; default 16.
	Chunk int
	// Model is the machine profile; nil means pgas.KittyHawk (a cluster —
	// simulating a zero-latency machine is better done with the real
	// goroutine implementation). Zero cost entries are clamped to 1ns so
	// that poll loops always advance virtual time.
	Model *pgas.Model
	// PollInterval is the number of nodes an mpi-ws rank explores between
	// message-queue polls; default 8.
	PollInterval int
	// Batch is the number of nodes a UPC-variant PE explores between
	// protocol service points (request polling happens per node in the
	// real implementation; the simulator batches it to bound event
	// counts). Default min(Chunk, 8), at least 1.
	Batch int
	// Seed randomizes probe orders.
	Seed int64
	// NodeSize, when >= 2, groups PEs into cluster nodes of NodeSize
	// consecutive IDs; references between same-node PEs are charged to
	// Intra instead of Model. Only the distributed-memory protocols are
	// topology-aware (the paper's Section 6.2 direction).
	NodeSize int
	// Intra is the intra-node cost model used with NodeSize.
	Intra *pgas.Model
	// Tracer, when non-nil, records the steal-protocol event stream —
	// one lane per PE, stamped with virtual time (build it with
	// obs.NewVirtual(PEs, ringSize)). Recording costs no virtual time,
	// so traced runs are bit-identical to untraced ones.
	Tracer *obs.Tracer
	// Engine selects the simulation engine: EngineBatched (the default,
	// also selected by "") or EngineLegacy, the original reference engine.
	// Both produce bit-identical results; legacy exists for differential
	// testing and as the benchmark baseline.
	Engine string
	// Adapt, when non-nil, gives every simulated PE a closed-loop
	// controller (internal/policy) that adapts the chunk size, the
	// steal-half selection, and the mpi-ws poll interval from windowed
	// steal feedback. Windows are measured in virtual time, so adaptive
	// runs stay deterministic across engines. A zero Adapt.Window derives
	// a window from the machine model: 8 remote references or 32 node
	// expansions, whichever is longer. Nil keeps every knob fixed and the
	// simulation byte-identical to earlier releases.
	Adapt *policy.Config
}

// Engine names accepted by Config.Engine.
const (
	EngineBatched = "batched"
	EngineLegacy  = "legacy"
)

// Info reports engine-level facts about a completed simulation.
type Info struct {
	// Engine is the engine that ran ("batched" or "legacy").
	Engine string
	// Events is the number of simulated-time boundaries executed; it is
	// identical across engines for the same configuration, so events per
	// wall second compares pure engine overhead.
	Events uint64
}

func (c Config) withDefaults() Config {
	if c.Algorithm == "" {
		c.Algorithm = core.UPCDistMem
	}
	if c.PEs == 0 {
		c.PEs = 1
	}
	if c.Chunk == 0 {
		c.Chunk = 16
	}
	if c.Model == nil {
		c.Model = &pgas.KittyHawk
	}
	if c.PollInterval == 0 {
		c.PollInterval = 8
	}
	if c.Batch == 0 {
		c.Batch = c.Chunk
		if c.Batch > 8 {
			c.Batch = 8
		}
	}
	return c
}

// costs holds the clamped per-operation virtual costs for a run.
type costs struct {
	localRef  time.Duration
	remoteRef time.Duration
	lockRTT   time.Duration
	nodeCost  time.Duration
	perKB     time.Duration
	respPoll  time.Duration // thief's poll interval while awaiting a response
	idlePoll  time.Duration // mpi-ws idle loop poll interval
	iprobe    time.Duration // mpi-ws per-poll message-queue check (MPI_Iprobe)
}

func newCosts(m *pgas.Model) costs {
	clamp := func(d, min time.Duration) time.Duration {
		if d < min {
			return min
		}
		return d
	}
	c := costs{
		localRef:  clamp(m.LocalRef, time.Nanosecond),
		remoteRef: clamp(m.RemoteRef, time.Nanosecond),
		nodeCost:  clamp(m.NodeCost, time.Nanosecond),
		perKB:     m.PerKB,
		lockRTT:   clamp(m.LockRTT, m.RemoteRef),
	}
	c.lockRTT = clamp(c.lockRTT, time.Nanosecond)
	c.respPoll = clamp(c.remoteRef/4, 100*time.Nanosecond)
	c.idlePoll = clamp(c.remoteRef/4, 250*time.Nanosecond)
	// An MPI message-queue poll costs real library time on every check,
	// even when no message is pending — the overhead the paper's one-sided
	// protocol avoids (a UPC victim polls a local word instead). Scaled to
	// the interconnect: ~1/8 of a remote reference, at least the local
	// reference cost.
	c.iprobe = clamp(c.remoteRef/8, c.localRef)
	return c
}

// bulk returns the one-sided transfer cost of n bytes.
func (c *costs) bulk(n int) time.Duration {
	return c.remoteRef + time.Duration(int64(c.perKB)*int64(n)/1024)
}

// Sample is one point of a diffusion trace.
type Sample struct {
	T time.Duration // virtual time of the sample
	// WorkSources is the number of PEs with stealable surplus — the
	// quantity Section 3.3.2's rapid diffusion is designed to grow.
	WorkSources int
	// Working is the number of PEs currently holding any work.
	Working int
}

// Trace is a time series sampled during a simulated run.
type Trace struct {
	Interval time.Duration
	Samples  []Sample
}

// TimeToSources returns the first sample time at which the number of work
// sources reached n, or -1 if it never did. This is the diffusion speed
// metric used by the D1 experiment.
func (tr *Trace) TimeToSources(n int) time.Duration {
	for _, s := range tr.Samples {
		if s.WorkSources >= n {
			return s.T
		}
	}
	return -1
}

// sampler reports (work sources, PEs holding work) for a protocol's
// current state; each protocol setup returns one.
type sampler func() (sources, working int)

// Run simulates a complete traversal of sp on cfg.PEs virtual processors
// and returns the same Result shape as core.Run, with Elapsed set to the
// virtual makespan and SeqRate to the model's sequential rate (1/NodeCost),
// so Speedup and Efficiency read exactly as in the paper.
func Run(sp *uts.Spec, cfg Config) (*core.Result, error) {
	res, _, _, err := run(sp, cfg, 0)
	return res, err
}

// RunInfo is Run plus engine-level facts (which engine ran, how many
// events it executed) for benchmarks and regression gates.
func RunInfo(sp *uts.Spec, cfg Config) (*core.Result, Info, error) {
	res, _, info, err := run(sp, cfg, 0)
	return res, info, err
}

// RunTraced is Run plus a diffusion trace sampled every interval of
// virtual time.
func RunTraced(sp *uts.Spec, cfg Config, interval time.Duration) (*core.Result, *Trace, error) {
	if interval <= 0 {
		return nil, nil, fmt.Errorf("des: trace interval must be positive, got %v", interval)
	}
	res, trace, _, err := run(sp, cfg, interval)
	return res, trace, err
}

func run(sp *uts.Spec, cfg Config, interval time.Duration) (*core.Result, *Trace, Info, error) {
	var info Info
	if err := sp.Validate(); err != nil {
		return nil, nil, info, err
	}
	cfg = cfg.withDefaults()
	if cfg.PEs < 1 {
		return nil, nil, info, fmt.Errorf("des: need at least one PE, got %d", cfg.PEs)
	}
	if cfg.Chunk < 1 {
		return nil, nil, info, fmt.Errorf("des: need chunk >= 1, got %d", cfg.Chunk)
	}
	cs := newCosts(cfg.Model)
	var sim *Sim
	switch cfg.Engine {
	case "", EngineBatched:
		info.Engine = EngineBatched
		sim = New()
	case EngineLegacy:
		info.Engine = EngineLegacy
		sim = NewLegacy()
	default:
		return nil, nil, info, fmt.Errorf("des: unknown engine %q (valid: %s, %s)", cfg.Engine, EngineBatched, EngineLegacy)
	}
	res := &core.Result{Spec: sp, Algorithm: cfg.Algorithm, Chunk: cfg.Chunk}
	res.Threads = make([]stats.Thread, cfg.PEs)
	for i := range res.Threads {
		res.Threads[i].ID = i
	}
	res.SeqRate = float64(time.Second) / float64(cs.nodeCost)

	// Adaptive runs: one controller per simulated PE, windows in virtual
	// time. The default window is derived from the machine model so that
	// a fast interconnect adapts on a finer grain than a slow one.
	var pset *policy.Set
	if cfg.Adapt != nil {
		acfg := *cfg.Adapt
		if acfg.Window <= 0 {
			// 8 remote references or 32 node expansions, whichever is
			// longer: short enough for several decisions per run even on
			// small trees, and safe because windows without steal evidence
			// extend instead of closing (the controller's evidence gate).
			acfg.Window = 8 * cs.remoteRef
			if w := 32 * cs.nodeCost; w > acfg.Window {
				acfg.Window = w
			}
		}
		pset = policy.NewSet(&acfg, policy.Base{
			Chunk:     cfg.Chunk,
			Poll:      cfg.PollInterval,
			StealHalf: cfg.Algorithm == core.UPCTermRapdif,
			NodeSize:  cfg.NodeSize,
			HierPays:  hierPays(cfg.Model, cfg.Intra),
		}, cfg.PEs)
	}

	// Every PE records its own end time; the live count stops the trace
	// sampler.
	ends := make([]time.Duration, cfg.PEs)
	alive := cfg.PEs
	finish := func(p *Proc) {
		ends[p.ID()] = p.Now()
		alive--
	}

	var smp sampler
	var err error
	switch cfg.Algorithm {
	case core.Static:
		smp, err = simStatic(sim, sp, cfg, cs, res, finish)
	case core.UPCSharedMem:
		smp, err = simShared(sim, sp, cfg, cs, res, sharedMode{}, pset, finish)
	case core.UPCTerm:
		smp, err = simShared(sim, sp, cfg, cs, res, sharedMode{streamTerm: true}, pset, finish)
	case core.UPCTermRapdif:
		smp, err = simShared(sim, sp, cfg, cs, res, sharedMode{streamTerm: true, stealHalf: true}, pset, finish)
	case core.UPCTermRelaxed:
		smp, err = simShared(sim, sp, cfg, cs, res, sharedMode{streamTerm: true, relaxed: true}, pset, finish)
	case core.UPCDistMem, core.UPCDistMemHier:
		smp, err = simDistMem(sim, sp, cfg, cs, res, pset, finish)
	case core.MPIWS:
		smp, err = simMPIWS(sim, sp, cfg, cs, res, pset, finish)
	default:
		return nil, nil, info, fmt.Errorf("des: cannot simulate algorithm %q", cfg.Algorithm)
	}
	if err != nil {
		return nil, nil, info, err
	}

	var trace *Trace
	if interval > 0 {
		trace = &Trace{Interval: interval}
		sim.Spawn(func(p *Proc) {
			for alive > 0 {
				s, w := smp()
				trace.Samples = append(trace.Samples, Sample{T: p.Now(), WorkSources: s, Working: w})
				p.Advance(interval)
			}
		})
	}

	if err := sim.Run(); err != nil {
		return nil, nil, info, err
	}
	info.Events = sim.Events()
	var makespan time.Duration
	for _, t := range ends {
		if t > makespan {
			makespan = t
		}
	}
	res.Elapsed = makespan
	res.Obs = cfg.Tracer.Summary()
	res.Policy = pset.Summary()
	return res, trace, info, nil
}

// hierPays reports whether the latency model makes intra-node victims
// worth preferring: a same-node steal round trip (lock plus reference)
// costing at most half the remote one. With no intra model the machine
// is flat and tiering cannot pay. Mirrors the wiring in internal/core.
func hierPays(remote, intra *pgas.Model) bool {
	if intra == nil || remote == nil {
		return false
	}
	return 2*(intra.LockRTT+intra.RemoteRef) <= remote.LockRTT+remote.RemoteRef
}

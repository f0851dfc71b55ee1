package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/pgas"
	"repro/internal/stats"
	"repro/internal/uts"
)

// opResult is one operation's outcome as the benchmark sees it.
type opResult struct {
	nodes int64         // tree nodes explored, summed over the operation's runs
	wall  time.Duration // host wall time of the whole operation
	// runs are the operation's complete traversals (searches, simulations
	// or cluster jobs); each must reproduce the reference count.
	runs []*stats.Run
	algs []core.Algorithm // algorithm of each run
	// efficiency is the share of thread-time spent on useful work: the
	// simulated parallel efficiency (rate ÷ (PEs × model sequential rate))
	// on DES workloads, the Working-state share on real ones.
	efficiency float64
	// fingerprint is the operation's virtual outcome on DES workloads;
	// it must be identical for every operation of a run.
	fingerprint string
	events      uint64                 // DES events (sim-1024)
	best        map[core.Algorithm]int // best chunk per algorithm (sim-sweep)
	// Runtime allocation counters across the operation.
	mallocs, allocBytes, gcs uint64
}

// workload is one benchmark input: a tree, an operation over it, and the
// number of load threads or ranks the operation runs.
type workload struct {
	name string
	why  string
	tree *uts.Spec
	// want is the tree's exact size, as every earlier version of the
	// program has counted it; the reference search must reproduce it, so
	// a change that alters the tree itself cannot pass as a speed-up.
	want    uts.Count
	lanes   int // load threads or ranks per operation; never above nproc
	warmups int // untimed operations at the end of each setup
	round   int // operations are measured in whole rounds of this many
	op      func(b *bench, i int, traced bool) (opResult, error)
}

// shmAlgs is the shm-mix rotation: one algorithm from each family of
// shared-region and steal protocol.
var shmAlgs = []core.Algorithm{core.UPCTerm, core.UPCTermRelaxed, core.UPCDistMem, core.MPIWS}

// simSeed is the probe seed of every simulated run. It is fixed, not taken
// from --seed, so the virtual outcome of each DES workload is one exact
// fingerprint across all runs and seeds.
const simSeed = 1

// ringSize is the obs ring length per lane in traced runs: the histograms
// behind the per-layer metrics cover every event whatever the ring size,
// and a small ring keeps 1024 simulated lanes in a few MB.
const ringSize = 256

var workloads = []*workload{
	{
		name:    "shm-mix",
		why:     "2-thread core.Run on bench-large (SHA-1) rotating upc-term, upc-term-relaxed, upc-distmem and mpi-ws: spawn kernel, stacks and every steal protocol",
		tree:    &uts.BenchLarge,
		want:    uts.Count{Nodes: 6698443, Leaves: 3350221, MaxDepth: 6853},
		lanes:   2,
		warmups: 1,
		round:   len(shmAlgs),
		op:      shmOp,
	},
	{
		name:    "sim-1024",
		why:     "one des.RunInfo of t3-xxl (ALFG) on 1024 simulated PEs, upc-distmem, KittyHawk: the paper's scale, dominated by DES dispatch, no SHA-1",
		tree:    &uts.T3XXL,
		want:    uts.Count{Nodes: 5209563, Leaves: 2605781, MaxDepth: 4406},
		lanes:   1,
		warmups: 1,
		round:   1,
		op:      sim1024Op,
	},
	{
		name:    "sim-sweep",
		why:     "a Figure-4 grid of des.TuneChunk over 5 algorithms x chunks 1..128 on t3-small at 64 PEs: per-run setup and allocation dominate",
		tree:    &uts.T3Small,
		want:    uts.Count{Nodes: 6089, Leaves: 3144, MaxDepth: 118},
		lanes:   1,
		warmups: 1,
		round:   1,
		op:      sweepOp,
	},
	{
		name:    "tcp-jobs",
		why:     "back-to-back 2-rank cluster.Run jobs over loopback TCP on bench-small: bootstrap, gob RPCs, termination and the stats gather dominate",
		tree:    &uts.BenchSmall,
		want:    uts.Count{Nodes: 63575, Leaves: 31887, MaxDepth: 319},
		lanes:   2,
		warmups: 32,
		round:   1,
		op:      tcpOp,
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// shmOp runs one 2-thread core.Run over bench-large. The algorithm
// rotates with the operation index, starting at an offset taken from the
// seed; the probe seed is derived from the seed and the index.
func shmOp(b *bench, i int, traced bool) (opResult, error) {
	n := int64(len(shmAlgs))
	alg := shmAlgs[((int64(i)+b.seed)%n+n)%n]
	opt := core.Options{
		Algorithm: alg,
		Threads:   b.w.lanes,
		Chunk:     16,
		Seed:      b.opSeed(i),
	}
	if traced {
		opt.Tracer = obs.New(b.w.lanes, ringSize)
	}
	s := b.spans.begin("core.Run", i, b.opSpan)
	t0 := time.Now()
	res, err := core.Run(b.spec, opt)
	wall := time.Since(t0)
	b.spans.end(s)
	if err != nil {
		return opResult{}, fmt.Errorf("core.Run %s: %w", alg, err)
	}
	return opResult{
		nodes:      res.Nodes(),
		wall:       wall,
		runs:       []*stats.Run{&res.Run},
		algs:       []core.Algorithm{alg},
		efficiency: res.WorkingFraction(),
	}, nil
}

// sim1024Op runs one 1024-PE simulation of t3-xxl.
func sim1024Op(b *bench, i int, traced bool) (opResult, error) {
	cfg := des.Config{Algorithm: core.UPCDistMem, PEs: 1024, Chunk: 16, Model: &pgas.KittyHawk,
		Engine: des.EngineBatched, Seed: simSeed}
	if traced {
		cfg.Tracer = obs.NewVirtual(cfg.PEs, ringSize)
	}
	s := b.spans.begin("des.RunInfo", i, b.opSpan)
	t0 := time.Now()
	res, info, err := des.RunInfo(b.spec, cfg)
	wall := time.Since(t0)
	b.spans.end(s)
	if err != nil {
		return opResult{}, fmt.Errorf("des.RunInfo: %w", err)
	}
	return opResult{
		nodes:      res.Nodes(),
		wall:       wall,
		runs:       []*stats.Run{&res.Run},
		algs:       []core.Algorithm{cfg.Algorithm},
		efficiency: res.Efficiency(),
		fingerprint: fmt.Sprintf("events=%d makespan=%d steals=%d failed=%d", info.Events,
			res.Elapsed, res.Sum(func(t *stats.Thread) int64 { return t.Steals }),
			res.Sum(func(t *stats.Thread) int64 { return t.FailedSteals })),
		events: info.Events,
	}, nil
}

// sweepPEs is the simulated machine size of the sim-sweep grid.
const sweepPEs = 64

// sweepOp runs one Figure-4 grid: des.TuneChunk over the default chunk
// axis for each of the paper's five algorithms.
func sweepOp(b *bench, i int, traced bool) (opResult, error) {
	out := opResult{best: map[core.Algorithm]int{}}
	var fp strings.Builder
	var effs []float64
	t0 := time.Now()
	for _, alg := range core.Algorithms {
		cfg := des.Config{Algorithm: alg, PEs: sweepPEs, Model: &pgas.KittyHawk,
			Engine: des.EngineBatched, Seed: simSeed}
		if traced {
			cfg.Tracer = obs.NewVirtual(cfg.PEs, ringSize)
		}
		s := b.spans.begin("des.TuneChunk", i, b.opSpan)
		best, results, err := des.TuneChunk(b.spec, cfg, nil)
		b.spans.end(s)
		if err != nil {
			return opResult{}, fmt.Errorf("des.TuneChunk %s: %w", alg, err)
		}
		out.best[alg] = best
		chunks := make([]int, 0, len(results))
		for k := range results {
			chunks = append(chunks, k)
		}
		sort.Ints(chunks)
		fmt.Fprintf(&fp, "%s:best=%d", alg, best)
		for _, k := range chunks {
			r := results[k]
			out.nodes += r.Nodes()
			out.runs = append(out.runs, &r.Run)
			out.algs = append(out.algs, alg)
			effs = append(effs, r.Efficiency())
			fmt.Fprintf(&fp, ",%d:%d", k, r.Elapsed)
		}
		fp.WriteByte(' ')
	}
	out.wall = time.Since(t0)
	out.efficiency = median(effs)
	out.fingerprint = fp.String()
	return out, nil
}

// jobTimeout bounds one cluster job; a job that exceeds it has hung.
const jobTimeout = 60 * time.Second

// tcpOp runs one complete 2-rank cluster job over loopback TCP, both
// ranks in this process, and times it from the first rank's start to the
// coordinator's result.
func tcpOp(b *bench, i int, traced bool) (opResult, error) {
	n := b.w.lanes
	var tr *obs.Tracer
	if traced {
		tr = obs.New(n, ringSize)
	}
	ready := make(chan string, 1)
	type rankOut struct {
		run *stats.Run
		err error
	}
	outs := make(chan rankOut, n) // one send per rank
	deadline := time.NewTimer(jobTimeout)
	defer deadline.Stop()
	s := b.spans.begin("cluster.Run", i, b.opSpan)
	defer b.spans.end(s)
	t0 := time.Now()
	for r := 0; r < n; r++ {
		cfg := cluster.Config{Rank: r, Ranks: n, Spec: b.spec, Chunk: 16, Seed: b.opSeed(i), Tracer: tr}
		if r == 0 {
			cfg.Coord, cfg.CoordReady = "127.0.0.1:0", ready
		} else {
			select {
			case cfg.Coord = <-ready:
			case o := <-outs:
				return opResult{}, fmt.Errorf("cluster coordinator exited before listening: %v", o.err)
			case <-deadline.C:
				return opResult{}, fmt.Errorf("cluster coordinator did not listen within %v", jobTimeout)
			}
		}
		go func(cfg cluster.Config) {
			run, err := cluster.Run(cfg)
			outs <- rankOut{run, err}
		}(cfg)
	}
	var run *stats.Run
	var firstErr error
	for r := 0; r < n; r++ {
		select {
		case o := <-outs:
			if o.err != nil && firstErr == nil {
				firstErr = o.err
			}
			if o.run != nil {
				run = o.run
			}
		case <-deadline.C:
			return opResult{}, fmt.Errorf("cluster job exceeded %v", jobTimeout)
		}
	}
	wall := time.Since(t0)
	if firstErr != nil {
		return opResult{}, fmt.Errorf("cluster.Run: %w", firstErr)
	}
	if run == nil {
		return opResult{}, fmt.Errorf("cluster.Run: coordinator returned no result")
	}
	return opResult{
		nodes:      run.Nodes(),
		wall:       wall,
		runs:       []*stats.Run{run},
		algs:       []core.Algorithm{"cluster"},
		efficiency: run.WorkingFraction(),
	}, nil
}

// rate is nodes per second of wall time.
func rate(nodes int64, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return float64(nodes) / wall.Seconds()
}

package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/msg"
	"repro/internal/rng"
	"repro/internal/stack"
	"repro/internal/stats"
	"repro/internal/uts"
)

// coreMetrics are the per-algorithm core metrics, reported for each
// algorithm of the shm-mix rotation as core.<alg>.<name>.
var coreMetrics = []metricDef{
	{"nodes_per_s", "nodes/s", "higher"},
	{"working_frac", "fraction", "higher"},
	{"steals", "count", "lower"},
	{"failed_steal_frac", "fraction", "lower"},
	{"probes_per_steal", "count", "lower"},
	{"releases", "count", "lower"},
	{"steal_p50_us", "us", "lower"},
}

// perLayerDefs are the metrics of the traced run, in BENCHMARK.json order.
// A layer the workload does not call reports 0: it did no work.
func perLayerDefs() []metricDef {
	defs := []metricDef{
		{"rng.sha1_spawn_ns", "ns", "lower"},
		{"rng.alfg_spawn_ns", "ns", "lower"},
		{"uts.seq_nodes_per_s", "nodes/s", "higher"},
		{"uts.expand_ns_per_node", "ns", "lower"},
		{"stack.deque_pushpop_ns", "ns", "lower"},
		{"stack.deque_take_bottom_ns", "ns", "lower"},
		{"stack.relaxed_publish_retract_ns", "ns", "lower"},
		{"stack.relaxed_claim_ns", "ns", "lower"},
		{"msg.send_recv_ns", "ns", "lower"},
	}
	for _, alg := range shmAlgs {
		for _, m := range coreMetrics {
			defs = append(defs, metricDef{"core." + string(alg) + "." + m.Name, m.Unit, m.Better})
		}
	}
	defs = append(defs,
		metricDef{"core.upc-term-relaxed.duplicate_takes", "count", "lower"},
		metricDef{"core.unexplained_frac", "fraction", "lower"},
		metricDef{"term.barrier_entries", "count", "lower"},
		metricDef{"term.idle_s", "s", "lower"},
		metricDef{"des.events", "count", "lower"},
		metricDef{"des.events_per_s", "1/s", "higher"},
		metricDef{"des.ns_per_event", "ns", "lower"},
		metricDef{"des.dispatch_ns", "ns", "lower"},
		metricDef{"des.allocs_per_run", "count", "lower"},
		metricDef{"des.kb_per_run", "KiB", "lower"},
		metricDef{"des.makespan_ms", "ms", "lower"},
		metricDef{"des.working_frac", "fraction", "higher"},
		metricDef{"des.failed_steal_frac", "fraction", "lower"},
		metricDef{"des.expand_share", "fraction", "lower"},
		metricDef{"des.runs_per_s", "1/s", "higher"},
	)
	for _, alg := range core.Algorithms {
		defs = append(defs, metricDef{"des.best_chunk." + string(alg), "nodes", "higher"})
	}
	defs = append(defs,
		metricDef{"cluster.search_ms", "ms", "lower"},
		metricDef{"cluster.overhead_ms", "ms", "lower"},
		metricDef{"cluster.job_p90_ms", "ms", "lower"},
		metricDef{"cluster.job_samples", "count", "higher"},
		metricDef{"cluster.steals_per_job", "count", "lower"},
		metricDef{"cluster.failed_steal_frac", "fraction", "lower"},
		metricDef{"cluster.requests_per_job", "count", "lower"},
		metricDef{"cluster.steal_p50_us", "us", "lower"},
		metricDef{"cluster.idle_frac", "fraction", "lower"},
	)
	for _, w := range workloads {
		defs = append(defs, metricDef{"obs.overhead." + w.name, "fraction", "lower"})
	}
	return append(defs,
		metricDef{"go.gc_cycles_per_op", "count", "lower"},
		metricDef{"go.allocs_per_mnode", "count", "lower"},
		metricDef{"attr.explained_frac", "fraction", "higher"},
		metricDef{"attr.unexplained_frac", "fraction", "lower"},
	)
}

// traced is the per-layer run: setup, half the time untraced, half with
// spans and the obs tracer on, then the layer micro-loops.
func (b *bench) traced(dur time.Duration) (map[string]float64, error) {
	if _, err := b.setups(); err != nil {
		return nil, err
	}
	next := 0
	spans := b.spans
	b.spans = nil // the untraced half records no spans
	plain := b.measure(dur/2, &next, false)
	b.spans = spans
	traced := b.measure(dur/2, &next, true)
	if len(plain) == 0 || len(traced) == 0 {
		return nil, errNoOps
	}
	vals := map[string]float64{}
	for _, d := range perLayerDefs() {
		vals[d.Name] = 0
	}
	b.microLoops(vals)

	var seq []float64
	for _, d := range b.spans.durations("uts.SearchSequential") {
		seq = append(seq, rate(b.ref.Nodes, d))
	}
	vals["uts.seq_nodes_per_s"] = median(seq)

	plainRates, _, _ := opSeries(plain)
	tracedRates, _, _ := opSeries(traced)
	vals["obs.overhead."+b.w.name] = median(plainRates)/median(tracedRates) - 1

	var gcs, mallocs uint64
	var nodes int64
	for _, o := range plain {
		gcs += o.gcs
		mallocs += o.mallocs
		nodes += o.nodes
	}
	vals["go.gc_cycles_per_op"] = float64(gcs) / float64(len(plain))
	vals["go.allocs_per_mnode"] = float64(mallocs) / (float64(nodes) / 1e6)

	b.termMetrics(vals, plain)
	switch b.w.name {
	case "shm-mix":
		b.coreLayerMetrics(vals, plain, traced)
	case "sim-1024", "sim-sweep":
		b.desMetrics(vals, plain)
	case "tcp-jobs":
		b.clusterMetrics(vals, plain, traced)
	}
	b.attribution(vals, plain, traced)
	return vals, nil
}

// medianOf applies f to each operation and returns the median.
func medianOf(ops []opResult, f func(o opResult) float64) float64 {
	xs := make([]float64, len(ops))
	for i, o := range ops {
		xs[i] = f(o)
	}
	return finite(median(xs))
}

// sum totals a per-thread counter over every run of an operation.
func (o opResult) sum(f func(t *stats.Thread) int64) float64 {
	var s int64
	for _, r := range o.runs {
		s += r.Sum(f)
	}
	return float64(s)
}

func steals(t *stats.Thread) int64       { return t.Steals }
func failedSteals(t *stats.Thread) int64 { return t.FailedSteals }

// failedFrac is failed steals over steal attempts.
func (o opResult) failedFrac() float64 {
	s, f := o.sum(steals), o.sum(failedSteals)
	return finite(f / (s + f))
}

// idle is the thread-time an operation spent in the Idle state.
func (o opResult) idle() time.Duration {
	var d time.Duration
	for _, r := range o.runs {
		for i := range r.Threads {
			d += r.Threads[i].InState[stats.Idle]
		}
	}
	return d
}

// stealP50us is the median steal latency of an operation's first run, from
// the obs tracer's histogram.
func (o opResult) stealP50us() float64 {
	if o.runs[0].Obs == nil {
		return 0
	}
	return float64(o.runs[0].Obs.StealLatency.Quantile(0.5)) / 1e3
}

// termMetrics: termination-barrier entries and Idle time per operation
// (virtual time on the DES workloads).
func (b *bench) termMetrics(vals map[string]float64, ops []opResult) {
	vals["term.barrier_entries"] = medianOf(ops, func(o opResult) float64 {
		return o.sum(func(t *stats.Thread) int64 { return t.TermBarrierEntries })
	})
	vals["term.idle_s"] = medianOf(ops, func(o opResult) float64 { return o.idle().Seconds() })
}

// byAlg groups operations by the algorithm of their first run.
func byAlg(ops []opResult) map[core.Algorithm][]opResult {
	m := map[core.Algorithm][]opResult{}
	for _, o := range ops {
		m[o.algs[0]] = append(m[o.algs[0]], o)
	}
	return m
}

// coreLayerMetrics are the per-algorithm scheduler metrics of shm-mix:
// counters and rates from the untraced operations, steal latency from the
// traced ones.
func (b *bench) coreLayerMetrics(vals map[string]float64, plain, traced []opResult) {
	tracedBy := byAlg(traced)
	for alg, os := range byAlg(plain) {
		p := "core." + string(alg) + "."
		vals[p+"nodes_per_s"] = medianOf(os, func(o opResult) float64 { return rate(o.nodes, o.wall) })
		vals[p+"working_frac"] = medianOf(os, func(o opResult) float64 { return o.runs[0].WorkingFraction() })
		vals[p+"steals"] = medianOf(os, func(o opResult) float64 { return o.sum(steals) })
		vals[p+"failed_steal_frac"] = medianOf(os, opResult.failedFrac)
		vals[p+"probes_per_steal"] = medianOf(os, func(o opResult) float64 {
			return finite(o.sum(func(t *stats.Thread) int64 { return t.Probes }) / o.sum(steals))
		})
		vals[p+"releases"] = medianOf(os, func(o opResult) float64 {
			return o.sum(func(t *stats.Thread) int64 { return t.Releases })
		})
		vals[p+"steal_p50_us"] = medianOf(tracedBy[alg], opResult.stealP50us)
		if alg == core.UPCTermRelaxed {
			vals[p+"duplicate_takes"] = medianOf(os, func(o opResult) float64 {
				return o.sum(func(t *stats.Thread) int64 { return t.DuplicateTakes })
			})
		}
	}
	expand := vals["uts.expand_ns_per_node"]
	vals["core.unexplained_frac"] = medianOf(plain, func(o opResult) float64 {
		return 1 - expand*float64(o.nodes)/(float64(b.w.lanes)*float64(o.wall))
	})
}

// desMetrics are the simulator metrics of sim-1024 and sim-sweep.
// Allocation counts come from the untraced half, so the tracer's own
// allocations do not count against the engine.
func (b *bench) desMetrics(vals map[string]float64, plain []opResult) {
	perRun := func(o opResult, v uint64) float64 { return float64(v) / float64(len(o.runs)) }
	vals["des.allocs_per_run"] = medianOf(plain, func(o opResult) float64 { return perRun(o, o.mallocs) })
	vals["des.kb_per_run"] = medianOf(plain, func(o opResult) float64 { return perRun(o, o.allocBytes) / 1024 })
	vals["des.runs_per_s"] = medianOf(plain, func(o opResult) float64 { return float64(len(o.runs)) / o.wall.Seconds() })
	expand := vals["uts.expand_ns_per_node"]
	vals["des.expand_share"] = medianOf(plain, func(o opResult) float64 {
		return expand * float64(o.nodes) / float64(o.wall)
	})
	if b.w.name == "sim-sweep" {
		for alg, k := range plain[0].best {
			vals["des.best_chunk."+string(alg)] = float64(k)
		}
		return
	}
	o := plain[0]
	r := o.runs[0]
	vals["des.events"] = float64(o.events)
	vals["des.events_per_s"] = medianOf(plain, func(o opResult) float64 { return float64(o.events) / o.wall.Seconds() })
	vals["des.ns_per_event"] = medianOf(plain, func(o opResult) float64 { return float64(o.wall) / float64(o.events) })
	vals["des.makespan_ms"] = float64(r.Elapsed) / float64(time.Millisecond)
	vals["des.working_frac"] = r.WorkingFraction()
	vals["des.failed_steal_frac"] = o.failedFrac()
}

// clusterMetrics are the cluster-layer metrics of tcp-jobs: counters and
// times from the untraced jobs, steal latency from the traced ones.
func (b *bench) clusterMetrics(vals map[string]float64, ops, traced []opResult) {
	_, plainMs, _ := opSeries(ops)
	vals["cluster.search_ms"] = medianOf(ops, func(o opResult) float64 {
		return float64(o.runs[0].Elapsed) / float64(time.Millisecond)
	})
	vals["cluster.overhead_ms"] = medianOf(ops, func(o opResult) float64 {
		return float64(o.wall-o.runs[0].Elapsed) / float64(time.Millisecond)
	})
	vals["cluster.job_samples"] = float64(len(plainMs))
	if tailOK(len(plainMs), 90) {
		vals["cluster.job_p90_ms"] = quantile(plainMs, 0.9)
	} else {
		fmt.Fprintf(b.log, "perfbench: %d jobs are too few for a p90 with %d beyond it; cluster.job_p90_ms reads 0\n",
			len(plainMs), minBeyond)
	}
	vals["cluster.steals_per_job"] = medianOf(ops, func(o opResult) float64 { return o.sum(steals) })
	vals["cluster.failed_steal_frac"] = medianOf(ops, opResult.failedFrac)
	vals["cluster.requests_per_job"] = medianOf(ops, func(o opResult) float64 {
		return o.sum(func(t *stats.Thread) int64 { return t.Requests })
	})
	vals["cluster.steal_p50_us"] = medianOf(traced, opResult.stealP50us)
	vals["cluster.idle_frac"] = medianOf(ops, func(o opResult) float64 {
		return o.runs[0].StateBreakdown()[stats.Idle]
	})
}

// attribution sums (layer cost × layer count) over the layers the
// micro-loops and the tracer measured, and compares it with the lane-time
// of the untraced operations; the remainder is what no measured layer
// explains. Steal latency comes from the traced operations' histograms.
func (b *bench) attribution(vals map[string]float64, plain, traced []opResult) {
	type term struct {
		layer string
		ns    func(o opResult) float64
	}
	expand := vals["uts.expand_ns_per_node"]
	terms := []term{{"uts.expand", func(o opResult) float64 { return expand * float64(o.nodes) }}}
	switch b.w.name {
	case "shm-mix", "tcp-jobs":
		pushpop := vals["stack.deque_pushpop_ns"]
		stealNs := medianOf(traced, opResult.stealP50us) * 1e3
		terms = append(terms,
			term{"stack.deque_pushpop", func(o opResult) float64 { return pushpop * float64(o.nodes) }},
			term{"steal latency", func(o opResult) float64 { return stealNs * o.sum(steals) }})
	case "sim-1024":
		dispatch := vals["des.dispatch_ns"]
		terms = append(terms, term{"des.dispatch", func(o opResult) float64 { return dispatch * float64(o.events) }})
	}
	laneNs := func(o opResult) float64 { return float64(b.w.lanes) * float64(o.wall) }
	fmt.Fprintf(b.log, "attribution for %s (median share of lane-time over %d untraced operations):\n",
		b.w.name, len(plain))
	for _, t := range terms {
		share := medianOf(plain, func(o opResult) float64 { return t.ns(o) / laneNs(o) })
		fmt.Fprintf(b.log, "  %-22s %7.3f\n", t.layer, share)
	}
	vals["attr.explained_frac"] = medianOf(plain, func(o opResult) float64 {
		s := 0.0
		for _, t := range terms {
			s += t.ns(o)
		}
		return s / laneNs(o)
	})
	vals["attr.unexplained_frac"] = 1 - vals["attr.explained_frac"]
	fmt.Fprintf(b.log, "  %-22s %7.3f\n", "unexplained", vals["attr.unexplained_frac"])
}

// microReps is how many times each micro-loop repeats. Its metric is the
// fastest repetition: on a shared host the minimum is the estimate least
// disturbed by other load.
const microReps = 7

// microNodes is how many nodes of the workload tree the spawn and expand
// loops run over.
const microNodes = 4096

// micro runs fn microReps times, each under a span, and returns the
// fewest ns per operation; fn returns the time it measured and the
// operations it did in that time.
func (b *bench) micro(name string, fn func() (time.Duration, int)) float64 {
	best := math.Inf(1)
	for r := 0; r < microReps; r++ {
		s := b.spans.begin(name, -100-r, -1)
		d, ops := fn()
		b.spans.end(s)
		best = math.Min(best, float64(d)/float64(ops))
	}
	return finite(best)
}

// timed runs fn, which does ops operations, and returns its wall time.
func timed(ops int, fn func()) func() (time.Duration, int) {
	return func() (time.Duration, int) {
		t0 := time.Now()
		fn()
		return time.Since(t0), ops
	}
}

// treeNodes returns the first n nodes of the tree's depth-first order,
// root excluded (its fan-out is unlike any other node's).
func treeNodes(sp *uts.Spec, n int) []uts.Node {
	e := uts.NewExpander(sp)
	stk := []uts.Node{e.Root()}
	var out []uts.Node
	for len(stk) > 0 && len(out) < n+1 {
		nd := stk[len(stk)-1]
		stk = stk[:len(stk)-1]
		out = append(out, nd)
		stk = append(stk, e.Children(&nd)...)
	}
	return out[1:]
}

// sink keeps micro-loop results alive so the compiler cannot drop them.
var sink struct {
	state rng.State
	node  uts.Node
	n     int
}

// microLoops measures each layer's public functions in isolation.
func (b *bench) microLoops(vals map[string]float64) {
	nodes := treeNodes(b.spec, microNodes)
	const passes = 16
	spawns := passes * len(nodes) * 2

	vals["rng.sha1_spawn_ns"] = b.micro("rng.Spawner.SpawnInto", timed(spawns, func() {
		var z rng.Spawner
		for p := 0; p < passes; p++ {
			for i := range nodes {
				z.Reset(&nodes[i].State)
				z.SpawnInto(&sink.state, 0)
				z.SpawnInto(&sink.state, 1)
			}
		}
	}))
	vals["rng.alfg_spawn_ns"] = b.micro("rng.ALFG.SpawnInto", timed(spawns, func() {
		var a rng.ALFG
		for p := 0; p < passes; p++ {
			for i := range nodes {
				a.SpawnInto(&sink.state, &nodes[i].State, 0)
				a.SpawnInto(&sink.state, &nodes[i].State, 1)
			}
		}
	}))
	e := uts.NewExpander(b.spec)
	vals["uts.expand_ns_per_node"] = b.micro("uts.Expander.Children", timed(passes*len(nodes), func() {
		for p := 0; p < passes; p++ {
			for i := range nodes {
				nd := nodes[i] // a copy: Children caches the child count in the node
				sink.n += len(e.Children(&nd))
			}
		}
	}))

	const deqOps = 1 << 16
	var d stack.Deque
	vals["stack.deque_pushpop_ns"] = b.micro("stack.Deque.PushPop", timed(deqOps, func() {
		for i := 0; i < deqOps; i++ {
			d.Push(nodes[i%len(nodes)])
			sink.node, _ = d.Pop()
		}
	}))
	const k, takes, rounds = 16, 128, 64
	buf := make([]uts.Node, 0, k)
	vals["stack.deque_take_bottom_ns"] = b.micro("stack.Deque.TakeBottom", func() (time.Duration, int) {
		var t time.Duration
		for r := 0; r < rounds; r++ {
			d.PushAll(nodes[:k*takes]) // refills are not timed
			t0 := time.Now()
			for i := 0; i < takes; i++ {
				buf = d.TakeBottomAppend(buf[:0], k)
			}
			t += time.Since(t0)
		}
		return t, rounds * takes
	})

	chunk := stack.Chunk(nodes[:k])
	const burst = 32 // below stack.RelaxedSlots, so the ring never fills
	vals["stack.relaxed_publish_retract_ns"] = b.micro("stack.Relaxed.PublishRetract", timed(512*burst, func() {
		ring := stack.NewRelaxed(0)
		for r := 0; r < 512; r++ {
			for i := 0; i < burst; i++ {
				ring.Publish(chunk)
			}
			for i := 0; i < burst; i++ {
				c, _ := ring.Retract()
				sink.n += len(c)
			}
		}
	}))
	vals["stack.relaxed_claim_ns"] = b.micro("stack.Relaxed.Claim", func() (time.Duration, int) {
		ring := stack.NewRelaxed(0)
		var t time.Duration
		claims := 0 // successful claims: a failed one would be cheaper
		for r := 0; r < 512; r++ {
			for i := 0; i < burst; i++ {
				ring.Publish(chunk) // publishes are not timed
			}
			t0 := time.Now()
			for i := 0; i < burst; i++ {
				c, _, ok := ring.Claim(1)
				if ok {
					claims++
				}
				sink.n += len(c)
			}
			t += time.Since(t0)
		}
		return t, claims
	})

	if comm, err := msg.NewComm(2, nil); err != nil {
		fmt.Fprintf(b.log, "perfbench: msg.NewComm: %v; msg.send_recv_ns reads 0\n", err)
	} else {
		const msgs = 1 << 16
		vals["msg.send_recv_ns"] = b.micro("msg.Comm.SendRecv", timed(msgs, func() {
			for i := 0; i < msgs; i++ {
				comm.Send(0, 1, msg.Message{Tag: msg.TagStealRequest})
				m, _ := comm.Recv(1)
				sink.n += m.From
			}
		}))
	}

	vals["des.dispatch_ns"] = b.micro("des.Sim.Run", dispatchLoop)
}

// dispatchLoop runs the pure engine loop — 64 simulated PEs burning
// interleaved 1-4ns stepped quanta with no tree or protocol work — and
// returns its wall time and the events it dispatched.
func dispatchLoop() (time.Duration, int) {
	const pes, quanta = 64, 4096
	sim := des.New()
	for i := 0; i < pes; i++ {
		sim.Spawn(func(p *des.Proc) {
			n := 0
			p.AdvanceStepped(func() (time.Duration, uint8) {
				if n >= quanta {
					return 0, des.StepDone
				}
				n++
				return time.Duration(1 + (n & 3)), 0
			})
		})
	}
	t0 := time.Now()
	if err := sim.Run(); err != nil {
		return 0, 0
	}
	return time.Since(t0), int(sim.Events())
}

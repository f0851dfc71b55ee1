package des

import (
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pgas"
	"repro/internal/stack"
	"repro/internal/uts"
)

// TestEngineDifferential proves the batched engine bit-identical to the
// legacy reference: same makespan, same event count, and the same
// per-thread counters and state times for every algorithm × tree × seed.
func TestEngineDifferential(t *testing.T) {
	algos := []core.Algorithm{
		core.Static, core.UPCSharedMem, core.UPCTerm, core.UPCTermRapdif,
		core.UPCDistMem, core.UPCDistMemHier, core.MPIWS,
	}
	trees := []*uts.Spec{&uts.GeoLinear, &uts.T3Small}
	seeds := []int64{1, 2, 3}

	for _, algo := range algos {
		for _, sp := range trees {
			for _, seed := range seeds {
				name := fmt.Sprintf("%s/%s/seed%d", algo, sp.Name, seed)
				t.Run(name, func(t *testing.T) {
					cfg := Config{
						Algorithm: algo,
						PEs:       16,
						Chunk:     8,
						Model:     &pgas.KittyHawk,
						Seed:      seed,
					}
					cfg.Engine = EngineBatched
					bres, binfo, err := RunInfo(sp, cfg)
					if err != nil {
						t.Fatalf("batched: %v", err)
					}
					cfg.Engine = EngineLegacy
					lres, linfo, err := RunInfo(sp, cfg)
					if err != nil {
						t.Fatalf("legacy: %v", err)
					}
					if bres.Elapsed != lres.Elapsed {
						t.Errorf("makespan diverged: batched %v, legacy %v", bres.Elapsed, lres.Elapsed)
					}
					if binfo.Events != linfo.Events {
						t.Errorf("event count diverged: batched %d, legacy %d", binfo.Events, linfo.Events)
					}
					for i := range bres.Threads {
						if !reflect.DeepEqual(bres.Threads[i], lres.Threads[i]) {
							t.Errorf("thread %d diverged:\nbatched %+v\nlegacy  %+v",
								i, bres.Threads[i], lres.Threads[i])
						}
					}
				})
			}
		}
	}
}

// TestShardedDifferential checks that a sweep sharded across concurrent
// goroutines reproduces the solo run: for every algorithm × tree × seed of
// the engine differential, k simulations of the same configuration run at
// once in one process, and each must match a solo batched run
// bit-identically — same makespan, same event count, same per-thread
// counters and state times. Simulations share no mutable state, so the
// number of concurrent runs is a throughput knob, never a semantic one;
// k = 1 is a plain repeated run.
func TestShardedDifferential(t *testing.T) {
	algos := []core.Algorithm{
		core.Static, core.UPCSharedMem, core.UPCTerm, core.UPCTermRapdif,
		core.UPCDistMem, core.UPCDistMemHier, core.MPIWS,
	}
	trees := []*uts.Spec{&uts.GeoLinear, &uts.T3Small}
	seeds := []int64{1, 2, 3}

	for _, algo := range algos {
		for _, sp := range trees {
			for _, seed := range seeds {
				cfg := Config{
					Algorithm: algo,
					PEs:       16,
					Chunk:     8,
					Model:     &pgas.KittyHawk,
					Seed:      seed,
				}
				ref, refInfo, err := RunInfo(sp, cfg)
				if err != nil {
					t.Fatalf("%s/%s/seed%d solo: %v", algo, sp.Name, seed, err)
				}
				for _, k := range []int{1, 2, 4} {
					name := fmt.Sprintf("%s/%s/seed%d/shards=%d", algo, sp.Name, seed, k)
					t.Run(name, func(t *testing.T) {
						res := make([]*core.Result, k)
						infos := make([]Info, k)
						errs := make([]error, k)
						var wg sync.WaitGroup
						for j := 0; j < k; j++ {
							wg.Add(1)
							go func(j int) {
								defer wg.Done()
								res[j], infos[j], errs[j] = RunInfo(sp, cfg)
							}(j)
						}
						wg.Wait()
						for j := 0; j < k; j++ {
							if errs[j] != nil {
								t.Fatalf("run %d of %d: %v", j, k, errs[j])
							}
							if res[j].Elapsed != ref.Elapsed {
								t.Errorf("run %d of %d: makespan %v, solo %v", j, k, res[j].Elapsed, ref.Elapsed)
							}
							if infos[j].Events != refInfo.Events {
								t.Errorf("run %d of %d: %d events, solo %d", j, k, infos[j].Events, refInfo.Events)
							}
							for i := range ref.Threads {
								if !reflect.DeepEqual(res[j].Threads[i], ref.Threads[i]) {
									t.Errorf("run %d of %d: thread %d diverged:\ngot  %+v\nsolo %+v",
										j, k, i, res[j].Threads[i], ref.Threads[i])
								}
							}
						}
					})
				}
			}
		}
	}
}

// buildRemoteWorkload spawns a synthetic workload exercising every remote
// primitive — inline advances, cross-PE calls, fire-and-forget sends, and
// staged boundary reads inside a stepped advance — against a per-PE
// counter partition, each remote operation costing hop. It returns the
// state array and a per-PE log of observed call results, both of which
// must come out bit-identical under every engine.
func buildRemoteWorkload(s *Sim, n, rounds int, hop time.Duration) (*[]int64, *[][]int64) {
	state := make([]int64, n)
	logs := make([][]int64, n)
	s.SetRemote(func(dst int, op uint8, a, b int64, _ []stack.Chunk) int64 {
		old := state[dst]
		switch op {
		case 0: // fetch-and-add
			state[dst] += a
		case 1: // read
		case 2: // max
			if a > state[dst] {
				state[dst] = a
			}
		}
		return old
	})
	for i := 0; i < n; i++ {
		i := i
		s.Spawn(func(p *Proc) {
			for k := 0; k < rounds; k++ {
				p.Advance(time.Duration(1 + (i+k)%3))
				got := p.RemoteCall((i+1+k)%n, hop, 0, int64(i*1000+k), 0)
				logs[i] = append(logs[i], got)
				p.RemoteSend((i+3+k)%n, hop, 2, int64(k*7+i), 0, nil)
				if k%4 == 0 {
					step := 0
					p.AdvanceStepped(func() (time.Duration, uint8) {
						step++
						if step > 2 {
							return 0, StepDone
						}
						d := p.StageRemote((i+5)%n, hop, 1, 0, 0)
						return d, StepNoPoll
					})
					logs[i] = append(logs[i], p.StagedResult(0))
				}
			}
		})
	}
	return &state, &logs
}

// TestRemoteOpsEnginesAgree drives the synthetic remote workload under the
// batched engine and the legacy reference, demanding bit-identical state,
// per-PE result logs, event counts, and makespans: the raw-engine half of
// the determinism story (TestEngineDifferential is the protocol half).
func TestRemoteOpsEnginesAgree(t *testing.T) {
	const n, rounds = 16, 40
	const hop = 100 * time.Nanosecond

	bat := New()
	bState, bLogs := buildRemoteWorkload(bat, n, rounds, hop)
	if err := bat.Run(); err != nil {
		t.Fatalf("batched: %v", err)
	}
	leg := NewLegacy()
	lState, lLogs := buildRemoteWorkload(leg, n, rounds, hop)
	if err := leg.Run(); err != nil {
		t.Fatalf("legacy: %v", err)
	}
	if !reflect.DeepEqual(*bState, *lState) {
		t.Errorf("state diverged:\nbatched %v\nlegacy  %v", *bState, *lState)
	}
	if !reflect.DeepEqual(*bLogs, *lLogs) {
		t.Errorf("per-PE call results diverged")
	}
	if bat.Events() != leg.Events() {
		t.Errorf("event count diverged: batched %d, legacy %d", bat.Events(), leg.Events())
	}
	if bat.Now() != leg.Now() {
		t.Errorf("makespan diverged: batched %v, legacy %v", bat.Now(), leg.Now())
	}
	if bat.Events() == 0 || len((*bLogs)[0]) != rounds+rounds/4 {
		t.Errorf("workload did not run: %d events, %d results on PE 0", bat.Events(), len((*bLogs)[0]))
	}
}

// TestUnknownEngineRejected checks the Config.Engine validation.
func TestUnknownEngineRejected(t *testing.T) {
	_, _, err := RunInfo(&uts.BenchTiny, Config{Engine: "quantum"})
	if err == nil {
		t.Fatal("expected an error for an unknown engine name")
	}
}

// TestLockRingWraparoundFIFO drives the waiter ring directly through many
// interleaved enqueue/dequeue cycles so the head index wraps repeatedly and
// the buffer grows while partially drained; order must stay strictly FIFO.
func TestLockRingWraparoundFIFO(t *testing.T) {
	l := &Lock{}
	procs := make([]*Proc, 200)
	for i := range procs {
		procs[i] = &Proc{id: i}
	}
	next := 0 // next proc to enqueue
	want := 0 // next proc a FIFO dequeue must yield
	// Sawtooth fill levels: grow, drain low (wrapping head), grow larger.
	for _, step := range []struct{ in, out int }{
		{5, 3}, {6, 7}, {17, 10}, {30, 20}, {40, 58},
	} {
		for i := 0; i < step.in; i++ {
			l.enqueue(procs[next%len(procs)])
			next++
		}
		for i := 0; i < step.out; i++ {
			got := l.dequeue()
			if got != procs[want%len(procs)] {
				t.Fatalf("dequeue %d: got proc %d, want proc %d", want, got.id, procs[want%len(procs)].id)
			}
			want++
		}
	}
	if l.n != 0 {
		t.Fatalf("ring not drained: %d left", l.n)
	}
}

// TestLockFIFOUnderHeavyContention queues many simulated PEs behind one
// long-held lock and checks grants come back in exact arrival order.
func TestLockFIFOUnderHeavyContention(t *testing.T) {
	const waiters = 40
	s := New()
	l := &Lock{}
	var order []int
	s.Spawn(func(p *Proc) {
		p.Acquire(l, 1)
		p.Advance(10 * time.Microsecond) // hold while every waiter queues
		p.Release(l, 1)
	})
	for i := 0; i < waiters; i++ {
		i := i
		s.Spawn(func(p *Proc) {
			p.Advance(time.Duration(i+1) * 10 * time.Nanosecond) // distinct arrival instants
			p.Acquire(l, 1)
			order = append(order, i)
			p.Advance(5 * time.Nanosecond)
			p.Release(l, 1)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != waiters {
		t.Fatalf("got %d grants, want %d", len(order), waiters)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("grant %d went to waiter %d; order %v", i, got, order)
		}
	}
}

// TestEngineThroughputGate is the CI regression gate for the batched
// engine: a pure-dispatch workload (the BenchmarkSimDispatch shape — 64
// PEs burning interleaved stepped quanta with no tree work) must sustain
// at least 4x the event rate of the legacy reference. The measured ratio
// is ~10x; the 4x floor leaves headroom for noisy CI runners while still
// catching any change that reintroduces per-event goroutine switches or
// per-event allocation. Skipped unless DES_BENCH_GATE=1.
func TestEngineThroughputGate(t *testing.T) {
	if os.Getenv("DES_BENCH_GATE") != "1" {
		t.Skip("set DES_BENCH_GATE=1 to run the engine throughput gate")
	}
	run := func(legacy bool) float64 {
		const pes, quanta = 64, 20000
		var sim *Sim
		if legacy {
			sim = NewLegacy()
		} else {
			sim = New()
		}
		for i := 0; i < pes; i++ {
			sim.Spawn(func(p *Proc) {
				n := 0
				p.AdvanceStepped(func() (time.Duration, uint8) {
					if n >= quanta {
						return 0, StepDone
					}
					n++
					return time.Duration(1 + (n & 3)), 0
				})
			})
		}
		start := time.Now() //uts:ok detcheck real-time throughput measurement of the engine itself
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return float64(sim.Events()) / time.Since(start).Seconds()
	}
	best := func(legacy bool) float64 {
		var b float64
		for i := 0; i < 3; i++ {
			if r := run(legacy); r > b {
				b = r
			}
		}
		return b
	}
	run(false) // warm the scheduler before timing anything
	batched, legacy := best(false), best(true)
	ratio := batched / legacy
	t.Logf("batched %.2fM events/s, legacy %.2fM events/s, ratio %.1fx",
		batched/1e6, legacy/1e6, ratio)
	if ratio < 4 {
		t.Errorf("batched engine dispatches at only %.1fx the legacy rate; want >= 4x", ratio)
	}
}

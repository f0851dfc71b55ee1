package des

import (
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/pgas"
	"repro/internal/policy"
	"repro/internal/stats"
	"repro/internal/uts"
)

// fingerprint condenses a simulated run into the tuple the differential
// tests compare: every field is deterministic under the DES, so any
// drift — a stray virtual-time charge, a perturbed probe order, an extra
// release — shows up here.
type fingerprint struct {
	Elapsed      time.Duration
	Events       uint64
	Nodes        int64
	Steals       int64
	Probes       int64
	FailedSteals int64
	Releases     int64
}

func fp(res *core.Result, info Info) fingerprint {
	return fingerprint{
		Elapsed:      res.Elapsed,
		Events:       info.Events,
		Nodes:        res.Nodes(),
		Steals:       res.Sum(func(t *stats.Thread) int64 { return t.Steals }),
		Probes:       res.Sum(func(t *stats.Thread) int64 { return t.Probes }),
		FailedSteals: res.Sum(func(t *stats.Thread) int64 { return t.FailedSteals }),
		Releases:     res.Sum(func(t *stats.Thread) int64 { return t.Releases }),
	}
}

// TestAdaptOffByteIdentical pins controller-disabled runs to golden
// fingerprints captured on the tree at the commit BEFORE the adaptive
// wiring existed. Every scheduler hook sits behind a single nil check, so
// a run with Config.Adapt == nil must reproduce these tuples exactly; a
// mismatch means the wiring perturbed the fixed-knob path.
func TestAdaptOffByteIdentical(t *testing.T) {
	altix := pgas.Altix
	cases := []struct {
		name string
		sp   *uts.Spec
		cfg  Config
		want fingerprint
	}{
		{"distmem-t3s-kh", &uts.T3Small,
			Config{Algorithm: core.UPCDistMem, PEs: 64, Chunk: 16, Model: &pgas.KittyHawk, Seed: 1},
			fingerprint{1159213, 18074, 6089, 16, 15315, 94, 17}},
		{"rapdif-t3s-altix", &uts.T3Small,
			Config{Algorithm: core.UPCTermRapdif, PEs: 32, Chunk: 8, Model: &pgas.Altix, Seed: 2},
			fingerprint{855210, 36032, 6089, 57, 33419, 164, 57}},
		{"mpiws-t3s-kh", &uts.T3Small,
			Config{Algorithm: core.MPIWS, PEs: 16, Chunk: 16, PollInterval: 8, Model: &pgas.KittyHawk, Seed: 3},
			fingerprint{923853, 16053, 6089, 16, 1259, 1228, 16}},
		{"hier-t3s-kh", &uts.T3Small,
			Config{Algorithm: core.UPCDistMemHier, PEs: 64, Chunk: 16, Model: &pgas.KittyHawk, NodeSize: 8, Intra: &altix, Seed: 4},
			fingerprint{1077800, 18498, 6089, 17, 15547, 83, 17}},
		{"relaxed-t3s-ts", &uts.T3Small,
			Config{Algorithm: core.UPCTermRelaxed, PEs: 16, Chunk: 16, Model: &pgas.Topsail, Seed: 5},
			fingerprint{807406, 2743, 6089, 17, 1658, 74, 17}},
		{"shmem-tiny-kh", &uts.BenchTiny,
			Config{Algorithm: core.UPCSharedMem, PEs: 8, Chunk: 4, Model: &pgas.KittyHawk, Seed: 6},
			fingerprint{1226414, 2338, 3337, 37, 158, 13, 108}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, info, err := RunInfo(tc.sp, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := fp(res, info); got != tc.want {
				t.Errorf("fixed-knob run drifted from pre-adaptive golden:\ngot  %+v\nwant %+v", got, tc.want)
			}
			if res.Policy != nil {
				t.Errorf("Adapt == nil must leave Result.Policy nil, got %+v", res.Policy)
			}
		})
	}
}

// TestAdaptiveDeterministic demands bit-identical adaptive runs across
// engines and repeated runs: the controllers consume only virtual-time
// feedback, so the engine that dispatches the schedule must not change a
// single decision.
func TestAdaptiveDeterministic(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"distmem", Config{Algorithm: core.UPCDistMem, PEs: 64, Chunk: 2,
			Model: &pgas.KittyHawk, Seed: 11, Adapt: &policy.Config{}}},
		{"mpiws", Config{Algorithm: core.MPIWS, PEs: 32, Chunk: 4, PollInterval: 2,
			Model: &pgas.Altix, Seed: 12, Adapt: &policy.Config{}}},
		{"rapdif", Config{Algorithm: core.UPCTermRapdif, PEs: 32, Chunk: 64,
			Model: &pgas.Altix, Seed: 13, Adapt: &policy.Config{}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, refInfo, err := RunInfo(&uts.T3Small, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Policy == nil {
				t.Fatal("adaptive run returned no policy summary")
			}
			for _, engine := range []string{EngineBatched, EngineLegacy} {
				cfg := tc.cfg
				cfg.Engine = engine
				res, info, err := RunInfo(&uts.T3Small, cfg)
				if err != nil {
					t.Fatalf("%s: %v", engine, err)
				}
				if got, want := fp(res, info), fp(ref, refInfo); got != want {
					t.Errorf("%s diverged from the reference run:\ngot  %+v\nwant %+v", engine, got, want)
				}
				if got, want := *res.Policy, *ref.Policy; got.Windows != want.Windows ||
					got.Changes != want.Changes || got.ChunkFinalMean != want.ChunkFinalMean ||
					got.ChunkLo != want.ChunkLo || got.ChunkHi != want.ChunkHi {
					t.Errorf("%s policy summary diverged:\ngot  %+v\nwant %+v", engine, got, want)
				}
			}
		})
	}
}

// TestAdaptiveConverges is the closed-loop check on the small tree:
// started from a deliberately bad chunk on either side of the plateau,
// the adaptive run must reach 80% of the best fixed-chunk rate found by
// a TuneChunk sweep — on two machine profiles — and must at least double
// a start whose fixed rate was under half the best (the serialized k=128
// pathology). T3Small is ~6k nodes, so the adaptation transient is a
// large fraction of the run; the full within-10%-of-best acceptance bar
// runs on T3XXL behind ADAPT_BENCH_GATE (TestAdaptBenchGate), where the
// transient amortizes.
func TestAdaptiveConverges(t *testing.T) {
	models := []*pgas.Model{&pgas.KittyHawk, &pgas.Altix}
	for _, m := range models {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			base := Config{Algorithm: core.UPCDistMem, PEs: 64, Model: m, Seed: 21}
			best, results, err := TuneChunk(&uts.T3Small, base, nil)
			if err != nil {
				t.Fatal(err)
			}
			bestRate := results[best].Rate()
			for _, bad := range []int{1, 128} {
				cfg := base
				cfg.Chunk = bad
				cfg.Adapt = &policy.Config{}
				res, err := Run(&uts.T3Small, cfg)
				if err != nil {
					t.Fatalf("chunk=%d: %v", bad, err)
				}
				rate := res.Rate()
				fixed := results[bad].Rate()
				t.Logf("chunk=%d: adaptive %.0f nodes/s, fixed-at-start %.0f, best fixed %.0f (k=%d); policy: %s",
					bad, rate, fixed, bestRate, best, res.Policy)
				if rate < 0.8*bestRate {
					t.Errorf("chunk=%d: adaptive rate %.0f below 80%% of best fixed %.0f (k=%d)",
						bad, rate, bestRate, best)
				}
				if fixed < 0.5*bestRate && rate < 2*fixed {
					t.Errorf("chunk=%d: adaptive rate %.0f failed to double the bad fixed rate %.0f",
						bad, rate, fixed)
				}
			}
		})
	}
}

// TestAdaptBenchGate is the acceptance bar from the issue, on the big
// tree: adaptive control started from the worst chunk in the sweep must
// land within 5% of the best fixed-chunk rate on T3XXL, where the
// adaptation transient amortizes over 5.2M nodes. It sweeps a reduced
// candidate set and runs ~15s single-core, so it only runs when the
// ADAPT_BENCH_GATE environment variable is set (`make bench-adapt`).
func TestAdaptBenchGate(t *testing.T) {
	if os.Getenv("ADAPT_BENCH_GATE") == "" {
		t.Skip("set ADAPT_BENCH_GATE=1 (or run `make bench-adapt`) to run the T3XXL gate")
	}
	base := Config{Algorithm: core.UPCDistMem, PEs: 256,
		Model: &pgas.KittyHawk, Seed: 7}
	best, results, err := TuneChunk(&uts.T3XXL, base, []int{1, 8, 64, 128})
	if err != nil {
		t.Fatal(err)
	}
	bestRate := results[best].Rate()
	worst, worstRate := best, bestRate
	for k, r := range results { //uts:ok detcheck min-rate scan: only the rate is compared, order-independent
		if r.Rate() < worstRate {
			worst, worstRate = k, r.Rate()
		}
	}
	cfg := base
	cfg.Chunk = worst
	cfg.Adapt = &policy.Config{}
	res, err := Run(&uts.T3XXL, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rate := res.Rate()
	t.Logf("T3XXL: adaptive from worst k=%d: %.0f nodes/s; best fixed %.0f (k=%d), worst fixed %.0f; policy: %s",
		worst, rate, bestRate, best, worstRate, res.Policy)
	if rate < 0.95*bestRate {
		t.Errorf("adaptive rate %.0f below 95%% of best fixed %.0f (k=%d)", rate, bestRate, best)
	}
}

// TestAdaptiveHierTier pins the latency-model-driven victim tier: with an
// intra-node model cheap enough that same-node steals pay, an adaptive
// flat-distmem run reports the hierarchical tier in its summary (the
// controller drives the walk even though the operator asked for the flat
// algorithm).
func TestAdaptiveHierTier(t *testing.T) {
	altix := pgas.Altix
	cfg := Config{Algorithm: core.UPCDistMem, PEs: 32, Chunk: 8,
		Model: &pgas.KittyHawk, NodeSize: 8, Intra: &altix, Seed: 31,
		Adapt: &policy.Config{}}
	res, err := Run(&uts.T3Small, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy == nil || res.Policy.HierTier != 8 {
		t.Fatalf("expected hier tier 8 from the latency model, got %+v", res.Policy)
	}
	// A flat machine (no intra model) must stay flat.
	cfg.Intra = nil
	cfg.NodeSize = 0
	res, err = Run(&uts.T3Small, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Policy.HierTier != 1 {
		t.Fatalf("flat machine must keep tier 1, got %d", res.Policy.HierTier)
	}
}

// TestAdaptiveSummaryRendered checks the stats plumbing end to end: an
// adaptive run's Summary() block carries the adaptive line, a fixed run's
// does not.
func TestAdaptiveSummaryRendered(t *testing.T) {
	cfg := Config{Algorithm: core.UPCDistMem, PEs: 16, Chunk: 2,
		Model: &pgas.KittyHawk, Seed: 41, Adapt: &policy.Config{}}
	res, err := Run(&uts.BenchTiny, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Summary()
	if want := "adaptive: chunk 2 -> "; !strings.Contains(sum, want) {
		t.Errorf("adaptive summary missing %q:\n%s", want, sum)
	}
	cfg.Adapt = nil
	res, err = Run(&uts.BenchTiny, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(res.Summary(), "adaptive:") {
		t.Errorf("fixed-knob summary must not mention adaptation:\n%s", res.Summary())
	}
}

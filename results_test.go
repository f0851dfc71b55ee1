package repro

import (
	"encoding/json"
	"os"
	"testing"
)

// engineRate is one engine's recorded measurement in BENCH_PR3.json.
type engineRate struct {
	NsPerOp     float64  `json:"ns_per_op"`
	EventsPerS  float64  `json:"events_per_s"`
	AllocsPerOp *float64 `json:"allocs_per_op"`
}

// enginePair is a before(legacy)/after(batched) benchmark record.
type enginePair struct {
	Config       string     `json:"config"`
	BeforeLegacy engineRate `json:"before_legacy"`
	AfterBatched engineRate `json:"after_batched"`
	Speedup      float64    `json:"speedup"`
}

func (p *enginePair) check(t *testing.T, name string, minSpeedup float64) {
	t.Helper()
	if p.Config == "" {
		t.Errorf("%s: missing config string", name)
	}
	if p.BeforeLegacy.EventsPerS <= 0 || p.AfterBatched.EventsPerS <= 0 {
		t.Fatalf("%s: events_per_s must be positive (legacy %v, batched %v)",
			name, p.BeforeLegacy.EventsPerS, p.AfterBatched.EventsPerS)
	}
	measured := p.AfterBatched.EventsPerS / p.BeforeLegacy.EventsPerS
	if r := p.Speedup / measured; r < 0.95 || r > 1.05 {
		t.Errorf("%s: recorded speedup %.2f disagrees with recorded rates (%.2f)",
			name, p.Speedup, measured)
	}
	if p.Speedup < minSpeedup {
		t.Errorf("%s: recorded speedup %.2f below the %.1fx this PR claims",
			name, p.Speedup, minSpeedup)
	}
}

// TestBenchPR6Schema validates results/BENCH_PR6.json, the historical
// record of the sharded DES engine. The engine itself was deleted after it
// measured slower than the batched engine on every host tried; the file is
// kept unchanged as history. What must hold is that the file parses, names
// its environment and core count, records positive rates and wall times,
// carries a bit-identity statement for every engine comparison, and proves
// a >= 100K-PE run actually happened.
func TestBenchPR6Schema(t *testing.T) {
	raw, err := os.ReadFile("results/BENCH_PR6.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PR          string `json:"pr"`
		Date        string `json:"date"`
		Environment struct {
			Go    string `json:"go"`
			CPU   string `json:"cpu"`
			Cores int    `json:"cores"`
		} `json:"environment"`
		Sharded struct {
			Config     string             `json:"config"`
			EventsPerS map[string]float64 `json:"events_per_s"`
		} `json:"BenchmarkSimSharded"`
		Sim1024 struct {
			Config       string  `json:"config"`
			Events       uint64  `json:"events"`
			BatchedWallS float64 `json:"batched_wall_s"`
			Sharded2WS   float64 `json:"sharded2_wall_s"`
			BitIdentity  string  `json:"bit_identity"`
		} `json:"uts_sim_1024pe_t3xxl"`
		Static100K struct {
			Config       string  `json:"config"`
			PEs          int     `json:"pes"`
			Events       uint64  `json:"events"`
			BatchedWallS float64 `json:"batched_wall_s"`
			Sharded2WS   float64 `json:"sharded2_wall_s"`
			BitIdentity  string  `json:"bit_identity"`
		} `json:"uts_sim_131072pe_static"`
		WSMem struct {
			Config    string  `json:"config"`
			PEs       int     `json:"pes"`
			BeforeFix string  `json:"before_fix"`
			AfterRSS  float64 `json:"after_fix_peak_rss_gb"`
		} `json:"uts_sim_131072pe_upc_distmem_memory"`
		WS32K struct {
			Config string  `json:"config"`
			PEs    int     `json:"pes"`
			Events uint64  `json:"events"`
			WallS  float64 `json:"wall_s"`
		} `json:"uts_sim_32768pe_upc_distmem"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("results/BENCH_PR6.json does not parse: %v", err)
	}
	if doc.PR == "" || doc.Date == "" || doc.Environment.Go == "" || doc.Environment.CPU == "" {
		t.Error("pr, date, environment.go, and environment.cpu must all be recorded")
	}
	if doc.Environment.Cores <= 0 {
		t.Error("environment.cores must be recorded: shard scaling is meaningless without it")
	}

	if doc.Sharded.Config == "" {
		t.Error("BenchmarkSimSharded: missing config string")
	}
	for _, key := range []string{"batched", "shards_1", "shards_2", "shards_4", "shards_8"} {
		if doc.Sharded.EventsPerS[key] <= 0 {
			t.Errorf("BenchmarkSimSharded: events_per_s.%s must be positive", key)
		}
	}

	if doc.Sim1024.Config == "" || doc.Sim1024.BitIdentity == "" {
		t.Error("uts_sim_1024pe_t3xxl: config and bit_identity must be recorded")
	}
	if doc.Sim1024.Events == 0 || doc.Sim1024.BatchedWallS <= 0 || doc.Sim1024.Sharded2WS <= 0 {
		t.Error("uts_sim_1024pe_t3xxl: events and both wall times must be positive")
	}

	if doc.Static100K.PEs < 100000 {
		t.Errorf("uts_sim_131072pe_static: pes %d below the 100K-PE scale this PR claims", doc.Static100K.PEs)
	}
	if doc.Static100K.Events == 0 || doc.Static100K.BatchedWallS <= 0 || doc.Static100K.Sharded2WS <= 0 {
		t.Error("uts_sim_131072pe_static: events and both wall times must be positive")
	}
	if doc.Static100K.BitIdentity == "" {
		t.Error("uts_sim_131072pe_static: bit_identity must be recorded")
	}

	if doc.WSMem.PEs < 100000 {
		t.Errorf("uts_sim_131072pe_upc_distmem_memory: pes %d below the 100K-PE scale this PR claims", doc.WSMem.PEs)
	}
	if doc.WSMem.BeforeFix == "" || doc.WSMem.AfterRSS <= 0 {
		t.Error("uts_sim_131072pe_upc_distmem_memory: before_fix and after_fix_peak_rss_gb must be recorded")
	}
	if doc.WSMem.AfterRSS > 64 {
		t.Errorf("uts_sim_131072pe_upc_distmem_memory: %v GB peak RSS; the probe-walk fix must keep 131072 idle PEs far below the 137 GB the cached permutations cost", doc.WSMem.AfterRSS)
	}
	if doc.WS32K.PEs < 32768 {
		t.Errorf("uts_sim_32768pe_upc_distmem: pes %d below the recorded scaling point", doc.WS32K.PEs)
	}
	if doc.WS32K.Events == 0 || doc.WS32K.WallS <= 0 {
		t.Error("uts_sim_32768pe_upc_distmem: events and wall_s must be positive")
	}
}

// TestBenchPR3Schema validates the recorded DES-engine measurements in
// results/BENCH_PR3.json: the file must parse, name its environment, and
// be internally consistent — speedup fields must match the recorded
// rates, the pure-dispatch ratio must meet the engine rewrite's headline
// claim, and the batched engine must be allocation-free per event.
func TestBenchPR3Schema(t *testing.T) {
	raw, err := os.ReadFile("results/BENCH_PR3.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PR          string `json:"pr"`
		Date        string `json:"date"`
		Environment struct {
			Go  string `json:"go"`
			CPU string `json:"cpu"`
		} `json:"environment"`
		Dispatch enginePair `json:"BenchmarkSimDispatch"`
		Engine   enginePair `json:"BenchmarkSimEngine"`
		Steal    enginePair `json:"BenchmarkSimSteal"`
		Sim1024  struct {
			Config       string  `json:"config"`
			LegacyWallS  float64 `json:"legacy_wall_s"`
			BatchedWallS float64 `json:"batched_wall_s"`
			Speedup      float64 `json:"speedup"`
			BitIdentity  string  `json:"bit_identity"`
		} `json:"uts_sim_1024pe_t3xxl"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("results/BENCH_PR3.json does not parse: %v", err)
	}
	if doc.PR == "" || doc.Date == "" || doc.Environment.Go == "" || doc.Environment.CPU == "" {
		t.Error("pr, date, environment.go, and environment.cpu must all be recorded")
	}

	doc.Dispatch.check(t, "BenchmarkSimDispatch", 10)
	doc.Engine.check(t, "BenchmarkSimEngine", 3)
	doc.Steal.check(t, "BenchmarkSimSteal", 4)
	if a := doc.Dispatch.AfterBatched.AllocsPerOp; a == nil || *a != 0 {
		t.Error("BenchmarkSimDispatch: batched engine must record 0 allocs/op")
	}

	s := &doc.Sim1024
	if s.Config == "" || s.BitIdentity == "" {
		t.Error("uts_sim_1024pe_t3xxl: config and bit_identity must be recorded")
	}
	if s.LegacyWallS <= 0 || s.BatchedWallS <= 0 || s.BatchedWallS >= s.LegacyWallS {
		t.Errorf("uts_sim_1024pe_t3xxl: wall times inconsistent (legacy %v, batched %v)",
			s.LegacyWallS, s.BatchedWallS)
	}
	measured := s.LegacyWallS / s.BatchedWallS
	if r := s.Speedup / measured; r < 0.95 || r > 1.05 {
		t.Errorf("uts_sim_1024pe_t3xxl: recorded speedup %.2f disagrees with wall times (%.2f)",
			s.Speedup, measured)
	}
	if s.BatchedWallS > 30 {
		t.Errorf("uts_sim_1024pe_t3xxl: %vs batched wall time; the 1024-PE run must stay routine (<30s)",
			s.BatchedWallS)
	}
}

// TestBenchPR8Schema validates results/BENCH_PR8.json, the PR 8 record of
// the relaxed (fence-free) owner-path microbenchmarks and the t3 end-to-end
// comparison. It enforces internal consistency — the recorded speedup must
// match the recorded timings — so the file cannot drift into claims its own
// numbers contradict. The >=2x protocol gate itself is TestRelaxedOwnerPathGate
// (RELAXED_BENCH_GATE=1), which measures live and self-skips below 4 cores;
// this schema test guards the recorded evidence, not the live measurement.
func TestBenchPR8Schema(t *testing.T) {
	raw, err := os.ReadFile("results/BENCH_PR8.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		PR          string `json:"pr"`
		Date        string `json:"date"`
		Notes       string `json:"notes"`
		Environment struct {
			Go    string `json:"go"`
			CPU   string `json:"cpu"`
			Cores int    `json:"cores"`
		} `json:"environment"`
		OwnerPath struct {
			Config         string  `json:"config"`
			LockNsPerOp    float64 `json:"lock_ns_per_op"`
			RelaxedNsPerOp float64 `json:"relaxed_ns_per_op"`
			Speedup        float64 `json:"speedup_min_estimate"`
			Range          string  `json:"speedup_range_alternating_pairs"`
			BytesPerOp     float64 `json:"relaxed_bytes_per_op"`
		} `json:"BenchmarkOwnerPath"`
		E2E struct {
			Config string `json:"config"`
			T3XXL  struct {
				Term    float64 `json:"upc_term_elapsed_s"`
				Relaxed float64 `json:"upc_term_relaxed_elapsed_s"`
				Nodes   uint64  `json:"nodes"`
				Leaves  uint64  `json:"leaves"`
			} `json:"t3_xxl"`
			Medium struct {
				Term    float64 `json:"upc_term_elapsed_s"`
				Relaxed float64 `json:"upc_term_relaxed_elapsed_s"`
				Nodes   uint64  `json:"nodes"`
				Leaves  uint64  `json:"leaves"`
			} `json:"bench_medium"`
		} `json:"e2e_t3_trees"`
		Dups struct {
			Forced  string `json:"forced"`
			Stress  string `json:"stress"`
			RealRun string `json:"real_run_observed"`
		} `json:"duplicate_takes"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("results/BENCH_PR8.json does not parse: %v", err)
	}
	if doc.PR == "" || doc.Date == "" || doc.Notes == "" ||
		doc.Environment.Go == "" || doc.Environment.CPU == "" || doc.Environment.Cores <= 0 {
		t.Error("pr, date, notes, and the full environment block must all be recorded")
	}

	op := doc.OwnerPath
	if op.Config == "" || op.LockNsPerOp <= 0 || op.RelaxedNsPerOp <= 0 {
		t.Fatal("BenchmarkOwnerPath: config and both ns/op timings must be recorded")
	}
	if op.RelaxedNsPerOp >= op.LockNsPerOp {
		t.Errorf("BenchmarkOwnerPath: relaxed %.1f ns/op is not faster than lock %.1f ns/op",
			op.RelaxedNsPerOp, op.LockNsPerOp)
	}
	derived := op.LockNsPerOp / op.RelaxedNsPerOp
	if op.Speedup < derived*0.95 || op.Speedup > derived*1.05 {
		t.Errorf("BenchmarkOwnerPath: recorded speedup %.2f disagrees with timings (%.1f/%.1f = %.2f)",
			op.Speedup, op.LockNsPerOp, op.RelaxedNsPerOp, derived)
	}
	if op.Range == "" {
		t.Error("BenchmarkOwnerPath: the alternating-pair speedup range must be recorded (single-run numbers on a loaded host are not evidence)")
	}
	if op.BytesPerOp <= 0 {
		t.Error("BenchmarkOwnerPath: the ledger churn (bytes/op) must be recorded — it is part of the protocol's cost model")
	}

	for name, e := range map[string]struct {
		Term, Relaxed float64
		Nodes, Leaves uint64
	}{
		"t3_xxl":       {doc.E2E.T3XXL.Term, doc.E2E.T3XXL.Relaxed, doc.E2E.T3XXL.Nodes, doc.E2E.T3XXL.Leaves},
		"bench_medium": {doc.E2E.Medium.Term, doc.E2E.Medium.Relaxed, doc.E2E.Medium.Nodes, doc.E2E.Medium.Leaves},
	} {
		if e.Term <= 0 || e.Relaxed <= 0 {
			t.Errorf("e2e_t3_trees.%s: both elapsed times must be positive", name)
			continue
		}
		if e.Relaxed >= e.Term {
			t.Errorf("e2e_t3_trees.%s: relaxed %.3fs is not an improvement over upc-term %.3fs", name, e.Relaxed, e.Term)
		}
		if e.Nodes == 0 || e.Leaves == 0 {
			t.Errorf("e2e_t3_trees.%s: exact node/leaf counts must be recorded (exactness is the PR's correctness claim)", name)
		}
	}
	if doc.E2E.T3XXL.Nodes != 5209563 {
		t.Errorf("e2e_t3_trees.t3_xxl: nodes %d does not match the t3-xxl ground truth 5209563 recorded since PR6", doc.E2E.T3XXL.Nodes)
	}

	if doc.Dups.Forced == "" || doc.Dups.Stress == "" || doc.Dups.RealRun == "" {
		t.Error("duplicate_takes: forced, stress, and real_run_observed evidence must all be recorded")
	}
}

// TestBenchPR9Schema validates results/BENCH_PR9.json, the PR 9 record of
// the closed-loop adaptive steal-policy runs. It enforces internal
// consistency — the recorded ratios must match the recorded rates, and the
// headline claims (adaptive >= 0.95x best fixed on T3XXL, >= 0.8x plus
// 2x recovery on T3Small) must hold on the recorded numbers — so the file
// cannot drift into claims its own data contradicts. The live gate is
// TestAdaptBenchGate (ADAPT_BENCH_GATE=1, make bench-adapt).
func TestBenchPR9Schema(t *testing.T) {
	raw, err := os.ReadFile("results/BENCH_PR9.json")
	if err != nil {
		t.Fatal(err)
	}
	type profile struct {
		BestChunk  int     `json:"best_fixed_chunk"`
		BestRate   float64 `json:"best_fixed_rate_nodes_per_s"`
		From1      float64 `json:"adaptive_from_1_rate_nodes_per_s"`
		From128    float64 `json:"adaptive_from_128_rate_nodes_per_s"`
		FixedAt128 float64 `json:"fixed_at_128_rate_nodes_per_s"`
	}
	var doc struct {
		PR          string `json:"pr"`
		Date        string `json:"date"`
		Notes       string `json:"notes"`
		Environment struct {
			Go    string `json:"go"`
			CPU   string `json:"cpu"`
			Cores int    `json:"cores"`
		} `json:"environment"`
		Gate struct {
			Config       string  `json:"config"`
			BestChunk    int     `json:"best_fixed_chunk"`
			BestRate     float64 `json:"best_fixed_rate_nodes_per_s"`
			WorstChunk   int     `json:"worst_fixed_chunk"`
			WorstRate    float64 `json:"worst_fixed_rate_nodes_per_s"`
			AdaptiveRate float64 `json:"adaptive_from_worst_rate_nodes_per_s"`
			OverBest     float64 `json:"adaptive_over_best_fixed"`
			OverWorst    float64 `json:"adaptive_over_worst_fixed"`
			Policy       string  `json:"adaptive_policy"`
		} `json:"t3xxl_gate"`
		Small struct {
			Config    string  `json:"config"`
			KittyHawk profile `json:"kittyhawk"`
			Altix     profile `json:"altix"`
		} `json:"t3small_convergence"`
		Identity struct {
			Goldens  int    `json:"golden_fingerprints"`
			Fields   string `json:"fields_compared"`
			Coverage string `json:"coverage"`
		} `json:"byte_identity"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("results/BENCH_PR9.json does not parse: %v", err)
	}
	if doc.PR == "" || doc.Date == "" || doc.Notes == "" ||
		doc.Environment.Go == "" || doc.Environment.CPU == "" || doc.Environment.Cores <= 0 {
		t.Error("pr, date, notes, and the full environment block must all be recorded")
	}

	g := doc.Gate
	if g.Config == "" || g.Policy == "" || g.BestRate <= 0 || g.WorstRate <= 0 || g.AdaptiveRate <= 0 {
		t.Fatal("t3xxl_gate: config, policy line, and all three rates must be recorded")
	}
	if g.WorstRate >= g.BestRate {
		t.Error("t3xxl_gate: the worst fixed rate is not below the best — the sweep is degenerate")
	}
	if g.AdaptiveRate < 0.95*g.BestRate {
		t.Errorf("t3xxl_gate: adaptive rate %.0f is below the 0.95x acceptance bar against best fixed %.0f",
			g.AdaptiveRate, g.BestRate)
	}
	if r := g.AdaptiveRate / g.BestRate; g.OverBest < r*0.99 || g.OverBest > r*1.01 {
		t.Errorf("t3xxl_gate: recorded ratio %.3f disagrees with rates (%.3f)", g.OverBest, r)
	}
	if r := g.AdaptiveRate / g.WorstRate; g.OverWorst < r*0.99 || g.OverWorst > r*1.01 {
		t.Errorf("t3xxl_gate: recorded recovery %.2f disagrees with rates (%.2f)", g.OverWorst, r)
	}

	for name, p := range map[string]profile{
		"kittyhawk": doc.Small.KittyHawk,
		"altix":     doc.Small.Altix,
	} {
		if p.BestRate <= 0 || p.From1 <= 0 || p.From128 <= 0 || p.FixedAt128 <= 0 {
			t.Errorf("t3small_convergence.%s: all four rates must be recorded", name)
			continue
		}
		if p.From1 < 0.8*p.BestRate || p.From128 < 0.8*p.BestRate {
			t.Errorf("t3small_convergence.%s: an adaptive rate fell below the 0.8x small-tree bar (best %.0f, from1 %.0f, from128 %.0f)",
				name, p.BestRate, p.From1, p.From128)
		}
		if p.FixedAt128 < 0.5*p.BestRate && p.From128 < 2*p.FixedAt128 {
			t.Errorf("t3small_convergence.%s: adaptive from k=128 (%.0f) did not double the bad fixed rate (%.0f)",
				name, p.From128, p.FixedAt128)
		}
	}

	if doc.Identity.Goldens < 6 || doc.Identity.Fields == "" || doc.Identity.Coverage == "" {
		t.Error("byte_identity: the differential evidence (>=6 golden fingerprints, fields, coverage) must be recorded")
	}
}

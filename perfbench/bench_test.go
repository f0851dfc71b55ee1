package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/uts"
)

func TestMedianAndQuantile(t *testing.T) {
	cases := []struct {
		xs   []float64
		q    float64
		want float64
	}{
		{[]float64{3, 1, 2}, 0.5, 2},
		{[]float64{4, 1, 3, 2}, 0.5, 2.5},
		{[]float64{7}, 0.5, 7},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
		{[]float64{1, 2, 3, 4, 5}, 0.25, 2},
		{[]float64{10, 20}, 0.9, 19},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.xs...)
		if got := quantile(c.xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", c.xs, c.q, got, c.want)
		}
		if !reflect.DeepEqual(in, c.xs) {
			t.Errorf("quantile reordered its input: %v became %v", in, c.xs)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples must be NaN")
	}
	if !math.IsNaN(quantile([]float64{1}, 1.5)) {
		t.Error("quantile outside [0,1] must be NaN")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true}, {99, 90, false}, {1000, 99, true}, {999, 99, false},
		{20, 50, true}, {19, 50, false}, {10000, 99.9, true}, {100, 0, false}, {100, 100, false},
	} {
		if got := tailOK(c.n, c.p); got != c.want {
			t.Errorf("tailOK(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n     int
		wantP float64
	}{{19, 0}, {20, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {1000, 99}, {10000, 99.9}} {
		p, v, ok := tailPercentile(seq(c.n))
		if c.wantP == 0 {
			if ok {
				t.Errorf("n=%d: got p%v, want no supported tail", c.n, p)
			}
			continue
		}
		if !ok || p != c.wantP {
			t.Errorf("n=%d: got p%v (ok=%v), want p%v", c.n, p, ok, c.wantP)
			continue
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > v {
				beyond++
			}
		}
		if beyond < minBeyond {
			t.Errorf("n=%d p%v=%v has only %d samples beyond it", c.n, p, v, beyond)
		}
	}
}

func TestNameAndUnitValidators(t *testing.T) {
	for _, s := range []string{"nodes_per_s", "des.best_chunk.upc-term", "a", "9lives", strings.Repeat("x", 64)} {
		if !validName(s) {
			t.Errorf("validName(%q) = false", s)
		}
	}
	for _, s := range []string{"", "_lead", ".lead", "-lead", "sp ace", "slash/no", "ü", strings.Repeat("x", 65)} {
		if validName(s) {
			t.Errorf("validName(%q) = true", s)
		}
	}
	for _, s := range []string{"ms", "1/s", "%", "nodes/s", "KiB"} {
		if !validUnit(s) {
			t.Errorf("validUnit(%q) = false", s)
		}
	}
	for _, s := range []string{"", "m s", strings.Repeat("u", 17), "µs"} {
		if validUnit(s) {
			t.Errorf("validUnit(%q) = true", s)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs()...) {
		if !validName(d.Name) || !validUnit(d.Unit) || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("declared metric %+v is malformed", d)
		}
	}
	for _, w := range workloads {
		if !validName(w.name) || len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}
}

func TestBuildMetrics(t *testing.T) {
	defs := []metricDef{{"a", "ms", "lower"}, {"b", "count", "higher"}}
	got, err := buildMetrics(defs, map[string]float64{"a": 1.5, "b": 0})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]metricValue{"a": {1.5, "ms"}, "b": {0, "count"}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
	for name, vals := range map[string]map[string]float64{
		"missing":    {"a": 1},
		"undeclared": {"a": 1, "b": 2, "c": 3},
		"nan":        {"a": math.NaN(), "b": 1},
		"inf":        {"a": 1, "b": math.Inf(1)},
	} {
		if _, err := buildMetrics(defs, vals); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
	if _, err := buildMetrics([]metricDef{{"bad name", "ms", "lower"}}, map[string]float64{"bad name": 1}); err == nil {
		t.Error("an invalid metric name was accepted")
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics the
// program prints from drifting apart.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, program %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	var e2e []metricDef
	maxBound := 0.0
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if !reflect.DeepEqual(e2e, endToEndDefs) {
		t.Errorf("end_to_end differs from the program:\n file    %v\n program %v", e2e, endToEndDefs)
	}
	for _, m := range f.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if !reflect.DeepEqual(f.PerLayer, perLayerDefs()) {
		t.Errorf("per_layer differs from the program")
	}
	if n := len(f.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
}

// runRecord runs the command and decodes its last output line strictly.
func runRecord(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if stdout.Len() > 0 {
		dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
		}
	}
	return code, res, stderr.String()
}

func metricNames(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// TestRecordShape checks the printed record: exactly the four keys, every
// declared metric with its unit and nothing else, and the host line.
func TestRecordShape(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "tcp-jobs", "--seed", "5", "--seconds", "0.05", "--trace", "0"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want a host line and a result line, got %q", lines)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[1]), &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("result keys %v, want %v", keys, want)
	}
	var metrics map[string]map[string]any
	if err := json.Unmarshal(raw["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	var names []string
	for name, m := range metrics {
		names = append(names, name)
		if len(m) != 2 || m["unit"] == nil || m["value"] == nil {
			t.Errorf("metric %s = %v, want exactly value and unit", name, m)
		}
		if _, ok := m["value"].(float64); !ok {
			t.Errorf("metric %s value %v is not a number", name, m["value"])
		}
	}
	sort.Strings(names)
	if want := metricNames(endToEndDefs); !reflect.DeepEqual(names, want) {
		t.Errorf("metrics %v, want %v", names, want)
	}
	var hostLine struct {
		Host host `json:"host"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hostLine); err != nil {
		t.Fatal(err)
	}
	h := hostLine.Host
	if h.NProc < 1 || h.GOMAXPROCS < 1 || !strings.HasPrefix(h.GoVersion, "go") || h.CPU == "" {
		t.Errorf("incomplete host record %+v", h)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "tcp-jobs", "--seconds", "0"},
		{"--workload", "tcp-jobs", "--trace", "2"},
		{"--bogus"},
	} {
		if code, _, _ := runRecord(t, args...); code == 0 {
			t.Errorf("%v: exit 0", args)
		}
	}
}

// testWorkload is a small real workload: 2-thread core.Run on bench-tiny.
// corrupt, when set, makes operation i report one node too many.
func testWorkload(corrupt func(i int) bool) *workload {
	return &workload{
		name: "test-tiny", why: "test", tree: &uts.BenchTiny,
		want:  uts.Count{Nodes: 3337, Leaves: 1698, MaxDepth: 100},
		lanes: 2, warmups: 1, round: 1,
		op: func(b *bench, i int, traced bool) (opResult, error) {
			res, err := core.Run(b.spec, core.Options{Algorithm: core.UPCTerm, Threads: 2, Seed: b.opSeed(i)})
			if err != nil {
				return opResult{}, err
			}
			if corrupt != nil && corrupt(i) {
				res.Threads[0].Nodes++
			}
			return opResult{nodes: res.Nodes(), wall: time.Millisecond, runs: []*stats.Run{&res.Run},
				algs: []core.Algorithm{core.UPCTerm}, efficiency: 1}, nil
		},
	}
}

// withWorkload registers w for the duration of the test.
func withWorkload(t *testing.T, w *workload) {
	saved := workloads
	workloads = append(append([]*workload(nil), workloads...), w)
	t.Cleanup(func() { workloads = saved })
}

// TestWrongCountFailsRun: one operation with a wrong node count is counted
// as failed, the record says so, and the command exits non-zero.
func TestWrongCountFailsRun(t *testing.T) {
	withWorkload(t, testWorkload(func(i int) bool { return i == 2 }))
	code, res, stderr := runRecord(t, "--workload", "test-tiny", "--seconds", "0.05")
	if code == 0 {
		t.Fatal("exit 0 despite a wrong node count")
	}
	if res.Correct || res.Failed != 1 || res.Attempted < 4 {
		t.Errorf("record %+v, want correct=false failed=1", res)
	}
	if got := res.Metrics["ok_rate"].Value; got >= 1 {
		t.Errorf("ok_rate %v despite a failure", got)
	}
	if !strings.Contains(stderr, "3338 nodes") {
		t.Errorf("diagnostic does not name the wrong count:\n%s", stderr)
	}
}

// TestWrongReferenceFailsRun: a tree whose sequential count differs from
// its pinned size stops the run before any operation.
func TestWrongReferenceFailsRun(t *testing.T) {
	w := testWorkload(nil)
	w.want.Nodes++
	b := &bench{w: w, seed: 1, log: &bytes.Buffer{}}
	if _, err := b.untraced(time.Millisecond); !errors.Is(err, errIncorrect) {
		t.Fatalf("got %v, want errIncorrect", err)
	}
	withWorkload(t, w)
	if code, _, _ := runRecord(t, "--workload", "test-tiny", "--seconds", "0.01"); code == 0 {
		t.Error("exit 0 despite a wrong reference count")
	}
}

func TestFingerprintMismatchFails(t *testing.T) {
	b := &bench{w: testWorkload(nil), ref: uts.Count{Nodes: 1, Leaves: 1}}
	run := &stats.Run{Threads: []stats.Thread{{Nodes: 1, Leaves: 1}}}
	op := func(fp string) opResult {
		return opResult{runs: []*stats.Run{run}, algs: []core.Algorithm{"x"}, fingerprint: fp}
	}
	if err := b.check(op("events=1")); err != nil {
		t.Fatal(err)
	}
	if err := b.check(op("events=1")); err != nil {
		t.Fatal(err)
	}
	if err := b.check(op("events=2")); err == nil {
		t.Error("a different virtual outcome passed the check")
	}
	bad := &stats.Run{Threads: run.Threads, SuspectedRanks: []int{1}}
	if err := b.check(opResult{runs: []*stats.Run{bad}, algs: []core.Algorithm{"x"}}); err == nil {
		t.Error("a run with a suspected rank passed the check")
	}
}

func TestSpanSelfTime(t *testing.T) {
	l := &spanLog{}
	l.spans = []span{
		{Name: "op", Op: 1, Parent: -1, Start: 0, End: 100},
		{Name: "core.Run", Op: 1, Parent: 0, Start: 10, End: 70},
		{Name: "op", Op: 2, Parent: -1, Start: 100, End: 150},
	}
	got := map[string]spanStat{}
	for _, s := range l.summary() {
		got[s.Name] = s
	}
	if s := got["op"]; s.Count != 2 || s.Total != 150 || s.Self != 90 {
		t.Errorf("op: %+v, want count 2 total 150 self 90", s)
	}
	if s := got["core.Run"]; s.Count != 1 || s.Self != 60 {
		t.Errorf("core.Run: %+v, want self 60", s)
	}
	var nilLog *spanLog
	if i := nilLog.begin("x", 0, -1); i != -1 {
		t.Errorf("nil log begin = %d", i)
	}
	nilLog.end(0)
}

// TestSmokeEveryWorkload runs every workload's traced run — which also
// runs it untraced — on a second seed, and requires the correctness gate
// to pass and every per-layer metric the workload exercises to be set.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload (about a minute)")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			code, res, stderr := runRecord(t, "--workload", w.name, "--seed", "2", "--seconds", "0.05", "--trace", "1")
			if code != 0 || !res.Correct || res.Failed != 0 {
				t.Fatalf("exit %d, record %+v\n%s", code, res, stderr)
			}
			if got, want := len(res.Metrics), len(perLayerDefs()); got != want {
				t.Errorf("%d metrics, want %d", got, want)
			}
			mustSet := []string{"rng.sha1_spawn_ns", "uts.expand_ns_per_node", "des.dispatch_ns",
				"msg.send_recv_ns", "stack.relaxed_claim_ns", "obs.overhead." + w.name, "attr.explained_frac"}
			switch w.name {
			case "shm-mix":
				for _, alg := range shmAlgs {
					mustSet = append(mustSet, fmt.Sprintf("core.%s.nodes_per_s", alg))
				}
			case "sim-1024":
				mustSet = append(mustSet, "des.events", "des.makespan_ms", "des.allocs_per_run")
			case "sim-sweep":
				mustSet = append(mustSet, "des.runs_per_s", "des.best_chunk.upc-distmem")
			case "tcp-jobs":
				mustSet = append(mustSet, "cluster.search_ms", "cluster.steals_per_job")
			}
			for _, name := range mustSet {
				if res.Metrics[name].Value == 0 {
					t.Errorf("%s reads 0", name)
				}
			}
		})
	}
}

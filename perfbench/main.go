// Command perfbench is the repository's benchmark: it runs one workload
// for a fixed time from a seed, checks every operation against the exact
// sequential node count, and prints its metrics as one JSON record on the
// last line of standard output.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the record holds the end-to-end metrics of an untraced
// run. With --trace 1 it holds the per-layer metrics: half the time runs
// untraced, half with benchmark spans and the program's obs tracer on,
// followed by micro-loops over each layer's public functions. README.md
// beside this file explains the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/uts"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition does not move it.
const setupReps = 3

var (
	// errIncorrect marks a wrong result: a count or virtual outcome that
	// differs from the reference.
	errIncorrect = errors.New("incorrect result")
	// errNoOps is a measured phase in which no operation passed its check.
	errNoOps = fmt.Errorf("%w: every measured operation failed its check", errIncorrect)
)

// bench is the state of one benchmark run.
type bench struct {
	w      *workload
	seed   int64
	spec   *uts.Spec // the workload tree, rebuilt by every setup
	ref    uts.Count // reference sequential count
	spans  *spanLog  // nil in the untraced run
	opSpan int       // span of the operation in progress, parent of layer spans
	log    io.Writer // diagnostics

	fingerprint string // virtual outcome of the first DES operation
	attempted   int
	failed      int
}

// opSeed derives operation i's probe seed from the run seed.
func (b *bench) opSeed(i int) int64 { return b.seed*1_000_003 + int64(i) }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the workload and prints the result; it returns
// the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured time per run, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	spansDir := fs.String("spans-dir", "", "directory to write the traced run's spans to (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (valid: %s)\n", *name, workloadNames())
		return 2
	}
	if !(*seconds > 0) || *seconds > 600 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be in (0, 600] and --trace 0 or 1")
		return 2
	}
	h := hostInfo()
	if w.lanes > h.NProc {
		fmt.Fprintf(stderr, "perfbench: workload %s runs %d load threads but this host has nproc=%d\n",
			w.name, w.lanes, h.NProc)
		return 2
	}
	b := &bench{w: w, seed: *seed, log: stderr}
	if *trace == 1 {
		b.spans = newSpanLog()
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var (
		vals map[string]float64
		defs []metricDef
		err  error
	)
	if *trace == 1 {
		defs = perLayerDefs()
		vals, err = b.traced(dur)
	} else {
		defs = endToEndDefs
		vals, err = b.untraced(dur)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if b.spans != nil {
		b.spans.writeSummary(stderr)
		if *spansDir != "" {
			path := filepath.Join(*spansDir, fmt.Sprintf("%s-seed%d.json", w.name, *seed))
			if err := b.spans.writeFile(path); err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
		}
	}
	metrics, merr := buildMetrics(defs, vals)
	if merr != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, merr)
		return 1
	}
	host := map[string]any{"host": h, "workload": w.name, "seed": *seed, "seconds": *seconds,
		"trace": *trace, "setups": setupReps}
	hostLine, _ := json.Marshal(host) // plain values; cannot fail
	fmt.Fprintln(stdout, string(hostLine))
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}
	line, _ := json.Marshal(res) // finite floats and strings only; cannot fail
	fmt.Fprintln(stdout, string(line))
	if b.failed > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed the correctness check\n",
			w.name, b.failed, b.attempted)
		return 1
	}
	return 0
}

// host is the record of the machine a run measured.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	CPU        string `json:"cpu"`
}

func hostInfo() host {
	return host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPU: cpuModel()}
}

// cpuModel reads the first processor's model name; "unknown" where
// /proc/cpuinfo is missing.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's high-water resident set size in MB.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, ln := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(ln, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: parse %q: %w", ln, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// setup builds the inputs once: the tree spec, the reference sequential
// count, and the workload's warm-up operations. It returns its wall time.
func (b *bench) setup(rep int) (time.Duration, error) {
	t0 := time.Now()
	sp := b.spans.begin("setup", -1-rep, -1)
	defer b.spans.end(sp)
	spec := *b.w.tree
	b.spec = &spec
	s := b.spans.begin("uts.SearchSequential", -1-rep, sp)
	ref := uts.SearchSequential(b.spec)
	b.spans.end(s)
	want := b.w.want
	if ref.Nodes != want.Nodes || ref.Leaves != want.Leaves || ref.MaxDepth != want.MaxDepth {
		return 0, fmt.Errorf("%w: sequential search of %s counted %d nodes / %d leaves / depth %d, want %d / %d / %d",
			errIncorrect, spec.Name, ref.Nodes, ref.Leaves, ref.MaxDepth, want.Nodes, want.Leaves, want.MaxDepth)
	}
	b.ref = ref
	for i := 0; i < b.w.warmups; i++ {
		b.do(-1-i, false) // a failed check is counted and fails the run
	}
	return time.Since(t0), nil
}

// setups runs setupReps setups and returns their wall times in seconds.
func (b *bench) setups() ([]float64, error) {
	var times []float64
	for rep := 0; rep < setupReps; rep++ {
		d, err := b.setup(rep)
		if err != nil {
			return nil, err
		}
		times = append(times, d.Seconds())
	}
	return times, nil
}

// do runs and checks operation i; ok is false when it failed. A failure
// is counted and logged, not returned: the run goes on, so its record
// shows how many operations failed.
func (b *bench) do(i int, traced bool) (res opResult, ok bool) {
	b.attempted++
	b.opSpan = b.spans.begin("op."+b.w.name, i, -1)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res, err := b.w.op(b, i, traced)
	runtime.ReadMemStats(&m1)
	b.spans.end(b.opSpan)
	b.opSpan = -1
	if err == nil {
		err = b.check(res)
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(b.log, "perfbench: %s operation %d failed: %v\n", b.w.name, i, err)
		return res, false
	}
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	res.gcs = uint64(m1.NumGC - m0.NumGC)
	return res, true
}

// check is the correctness gate: every traversal reproduces the
// reference node and leaf counts, no cluster rank failed or was
// suspected, and a DES operation's virtual outcome equals the first one's.
func (b *bench) check(res opResult) error {
	if len(res.runs) == 0 {
		return fmt.Errorf("operation produced no runs")
	}
	for k, r := range res.runs {
		if r.Nodes() != b.ref.Nodes || r.Leaves() != b.ref.Leaves {
			return fmt.Errorf("run %d (%s): %d nodes / %d leaves, reference %d / %d",
				k, res.algs[k], r.Nodes(), r.Leaves(), b.ref.Nodes, b.ref.Leaves)
		}
		if len(r.FailedRanks) > 0 || len(r.SuspectedRanks) > 0 {
			return fmt.Errorf("run %d: failed ranks %v, suspected ranks %v", k, r.FailedRanks, r.SuspectedRanks)
		}
	}
	if res.fingerprint != "" {
		if b.fingerprint == "" {
			b.fingerprint = res.fingerprint
		} else if res.fingerprint != b.fingerprint {
			return fmt.Errorf("virtual outcome differs from the first operation's:\n  got  %s\n  want %s",
				res.fingerprint, b.fingerprint)
		}
	}
	return nil
}

// measure runs operations, in whole rounds, until dur has passed since
// the first one started, and returns the successful ones. next is the
// index of the first operation; it advances past every operation run.
func (b *bench) measure(dur time.Duration, next *int, traced bool) []opResult {
	var ops []opResult
	t0 := time.Now()
	for time.Since(t0) < dur {
		for k := 0; k < b.w.round; k++ {
			res, ok := b.do(*next, traced)
			*next++
			if ok {
				ops = append(ops, res)
			}
		}
	}
	return ops
}

// endToEndDefs are the metrics of the untraced run, in BENCHMARK.json order.
var endToEndDefs = []metricDef{
	{"nodes_per_s", "nodes/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_mem_mb", "MB", "lower"},
	{"ok_rate", "fraction", "higher"},
	{"job_p50_ms", "ms", "lower"},
	{"efficiency", "fraction", "higher"},
}

// untraced is the end-to-end run.
func (b *bench) untraced(dur time.Duration) (map[string]float64, error) {
	setupTimes, err := b.setups()
	if err != nil {
		return nil, err
	}
	next := 0
	ops := b.measure(dur, &next, false)
	if len(ops) == 0 {
		return nil, errNoOps
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	rates, walls, effs := opSeries(ops)
	tail := "no percentile has 10 samples beyond it"
	if p, v, ok := tailPercentile(walls); ok {
		tail = fmt.Sprintf("p%g %.2f", p, v)
	}
	fmt.Fprintf(b.log, "perfbench: %s: %d timed operations, wall ms p50 %.2f, %s; set-ups s %.3f\n",
		b.w.name, len(ops), median(walls), tail, setupTimes)
	return map[string]float64{
		"nodes_per_s": median(rates),
		"setup_s":     median(setupTimes),
		"peak_mem_mb": rss,
		"ok_rate":     float64(b.attempted-b.failed) / float64(b.attempted),
		"job_p50_ms":  median(walls),
		"efficiency":  median(effs),
	}, nil
}

// opSeries returns each operation's nodes/s, wall time in ms and
// efficiency.
func opSeries(ops []opResult) (rates, wallsMs, effs []float64) {
	for _, o := range ops {
		rates = append(rates, rate(o.nodes, o.wall))
		wallsMs = append(wallsMs, float64(o.wall)/float64(time.Millisecond))
		effs = append(effs, o.efficiency)
	}
	return rates, wallsMs, effs
}

// finite replaces NaN and infinities (a ratio over an empty set) with 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

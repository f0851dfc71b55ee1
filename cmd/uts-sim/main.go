// Command uts-sim runs one simulated cluster-scale search and prints a
// UTS-style report. It is the exploratory companion of cmd/uts-bench: where
// uts-bench regenerates whole figures, uts-sim runs a single point.
//
// Example:
//
//	uts-sim -tree bench-medium -alg upc-distmem -pes 256 -chunk 16 -profile kittyhawk
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/pgas"
	"repro/internal/policy"
	"repro/internal/uts"
)

func main() {
	tree := flag.String("tree", "bench-medium", "named sample tree")
	alg := flag.String("alg", string(core.UPCDistMem), "algorithm: "+algList())
	pes := flag.Int("pes", 64, "simulated processing elements (1..1048576)")
	chunk := flag.Int("chunk", 16, "steal granularity k (nodes)")
	adapt := flag.Bool("adapt", false, "adapt chunk/steal-half/poll per PE at runtime from steal feedback (virtual-time windows; deterministic)")
	profile := flag.String("profile", "kittyhawk", "machine profile: sharedmem, altix, kittyhawk, topsail")
	poll := flag.Int("poll", 8, "mpi-ws polling interval (nodes)")
	seed := flag.Int64("seed", 0, "probe-order seed")
	verbose := flag.Bool("verbose", false, "print the per-thread counter table")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON file (open in ui.perfetto.dev)")
	timeline := flag.Bool("timeline", false, "print the merged steal-protocol event timeline")
	hist := flag.Bool("hist", false, "record protocol events and fold latency histograms into the summary")
	ring := flag.Int("ring", 0, "per-PE trace ring capacity in events (0 = default)")
	progress := flag.Duration("progress", 0, "emit a wall-clock heartbeat to stderr every interval (e.g. 10s; 0 = off)")
	live := flag.Duration("live", 0, "print a live progress line (rates, virtual time, steal p95) to stderr every interval (e.g. 1s; 0 = off)")
	flag.Parse()

	sp := uts.ByName(*tree)
	if sp == nil {
		fmt.Fprintf(os.Stderr, "unknown tree %q\n", *tree)
		os.Exit(2)
	}
	if !validAlg(*alg) {
		fmt.Fprintf(os.Stderr, "unknown algorithm %q (valid: %s)\n", *alg, algList())
		os.Exit(2)
	}
	if *pes < 1 || *pes > maxPEs {
		fmt.Fprintf(os.Stderr, "-pes %d out of range [1, %d]\n", *pes, maxPEs)
		os.Exit(2)
	}
	model, ok := pgas.Profiles[*profile]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown profile %q\n", *profile)
		os.Exit(2)
	}
	cfg := des.Config{
		Algorithm:    core.Algorithm(*alg),
		PEs:          *pes,
		Chunk:        *chunk,
		Model:        model,
		PollInterval: *poll,
		Seed:         *seed,
	}
	if *adapt {
		cfg.Adapt = &policy.Config{}
	}
	var tracer *obs.Tracer
	if *traceOut != "" || *timeline || *hist || *live > 0 {
		tracer = obs.NewVirtual(*pes, *ring)
		cfg.Tracer = tracer
	}
	var stopBeat chan struct{}
	if *progress > 0 {
		stopBeat = heartbeat(*progress)
	}
	var sampler *obs.Sampler
	if *live > 0 {
		sampler = obs.NewSampler(tracer)
		sampler.OnSample(func(st obs.LiveStats) { fmt.Fprintln(os.Stderr, st.Line()) })
		sampler.Start(*live)
	}
	start := time.Now()
	res, info, err := des.RunInfo(sp, cfg)
	wall := time.Since(start)
	sampler.Stop() // nil-safe; takes and prints the final sample
	if stopBeat != nil {
		close(stopBeat)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("tree=%s alg=%s pes=%d chunk=%d profile=%s events=%d wall=%v\n",
		sp.Name, *alg, *pes, *chunk, *profile, info.Events, wall.Round(time.Millisecond))
	fmt.Print(res.Summary())
	if *verbose {
		fmt.Print(res.PerThreadTable())
	}
	if *timeline {
		if err := obs.WriteTimeline(os.Stdout, tracer); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *traceOut != "" {
		if err := obs.WriteChromeTraceFile(*traceOut, tracer); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("trace written to %s\n", *traceOut)
	}
}

// maxPEs bounds -pes: above this, memory for per-PE state (goroutine
// stacks, counters, trace lanes) exceeds what a single host handles. The
// engine keeps per-PE state constant and core.ProbeWalk keeps probe
// orders O(1) per PE, so the bound is set by goroutine stacks alone: ~1M
// PEs fits in a few GB.
const maxPEs = 1 << 20

func validAlg(name string) bool {
	for _, a := range simulatable() {
		if string(a) == name {
			return true
		}
	}
	return false
}

// simulatable lists every algorithm the simulator accepts: the paper's
// five plus the post-paper extensions. Sequential is excluded (simulate
// it as 1 PE of any algorithm).
func simulatable() []core.Algorithm {
	return append(append([]core.Algorithm{}, core.Algorithms...), core.Extensions...)
}

// heartbeat prints elapsed wall time to stderr every interval until the
// returned channel is closed, so long sweeps show liveness.
func heartbeat(interval time.Duration) chan struct{} {
	stop := make(chan struct{})
	start := time.Now()
	go func() {
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				fmt.Fprintf(os.Stderr, "... %v elapsed\n", time.Since(start).Round(time.Second))
			}
		}
	}()
	return stop
}

func algList() string {
	algs := simulatable()
	names := make([]string, len(algs))
	for i, a := range algs {
		names[i] = string(a)
	}
	return strings.Join(names, ", ")
}

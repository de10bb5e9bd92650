// Command perfbench is chipletqc's whole-pipeline benchmark. One
// process runs one workload for a fixed time and prints its metrics:
//
//	repro-quick      the experiment registry at `figures -quick` scale
//	yield-mc         the yield Monte Carlo stack (fig4/8/9, tight-thresholds)
//	daemon-campaign  a 48-cell campaign served cold and warm by the daemon
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it
// alternates untraced ops with traced ones, whose spans around every
// call into a layer give the per-layer metrics and the tracing
// overhead. The last line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload repro-quick --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// buildDir is the checkout-relative directory for everything the
// benchmark builds or writes.
const buildDir = ".bench_build"

//go:embed spec.json
var specJSON []byte

// spec is the part of spec.json the program reads: the digests pinned
// at the default seed.
type spec struct {
	DefaultSeed int64             `json:"default_seed"`
	Digests     map[string]string `json:"digests"`
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchResult is the last line of standard output.
type benchResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: repro-quick, yield-mc or daemon-campaign")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measured time")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	root := fs.String("root", ".", "checkout root (the benchmark reads and writes only under it)")
	setupProbe := fs.Bool("setup-probe", false, "internal: set the workload up, print ready, exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	workers := runtime.NumCPU()
	runtime.GOMAXPROCS(workers)
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	w, err := newWorkload(*name, *seed, workers, *root)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *setupProbe {
		if err := w.setup(ctx); err != nil {
			fmt.Fprintln(stderr, "perfbench: setup:", err)
			return 1
		}
		fmt.Fprintln(stdout, "ready")
		return 0
	}
	var sp spec
	if err := json.Unmarshal(specJSON, &sp); err != nil {
		fmt.Fprintln(stderr, "perfbench: spec.json:", err)
		return 1
	}
	o := options{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1, root: *root, workers: workers}
	if *seed == sp.DefaultSeed {
		o.pinned = sp.Digests[*name]
	}
	rep, table, err := measure(ctx, w, o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprint(stdout, table)
	for k, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			// No sample: a layer this workload never calls, or a run
			// whose every op failed.
			m.Value = 0
			rep.Metrics[k] = m
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	workers  int
	pinned   string // digest pinned for this workload at this seed, or ""
}

// setupReps is how many times a run sets the workload up in fresh
// processes; setup_s is the median.
const setupReps = 11

// probeSetup times process start until the workload is ready for its
// first op, in a child process of this binary, setupReps times.
func probeSetup(ctx context.Context, o options) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var times []float64
	for i := 0; i < setupReps; i++ {
		cmd := exec.CommandContext(ctx, exe, "-setup-probe", "-workload", o.workload,
			"-seed", fmt.Sprint(o.seed), "-root", o.root)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		line, rerr := bufio.NewReader(out).ReadString('\n')
		dt := time.Since(t0).Seconds()
		werr := cmd.Wait()
		if err := errors.Join(rerr, werr); err != nil || strings.TrimSpace(line) != "ready" {
			return nil, fmt.Errorf("setup probe: %q: %v", line, err)
		}
		times = append(times, dt)
	}
	return times, nil
}

// opRecord is one measured op.
type opRecord struct {
	traced      bool
	wall, cpu   float64
	allocBytes  float64
	gcCPU, cpu2 float64 // runtime GC and total CPU estimates over the op
	peakHeap    float64 // peak live heap during the op, bytes
	out         opOut
}

func measure(ctx context.Context, w workload, o options) (benchResult, string, error) {
	setupTimes, err := probeSetup(ctx, o)
	if err != nil {
		return benchResult{}, "", err
	}
	if err := w.setup(ctx); err != nil {
		return benchResult{}, "", fmt.Errorf("setup: %w", err)
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	heap := startHeapSampler()
	var ops []opRecord
	attempted, failed := 0, 0
	ref := ""
	start := time.Now()
	minOps := 1
	if o.trace {
		minOps = 2
	}
	for i := 0; i < minOps || time.Since(start).Seconds() < o.seconds; i++ {
		if ctx.Err() != nil {
			break
		}
		rec := opRecord{traced: o.trace && i%2 == 1}
		var sc *scope
		if rec.traced {
			sc = &scope{t: tr, op: i, id: tr.begin("op", i, -1)}
		}
		heap.take()
		g0, c0 := gcCPU()
		cpu0, alloc0, t0 := cpuSeconds(), heapAllocs(), time.Now()
		out, err := w.op(ctx, sc)
		rec.wall = time.Since(t0).Seconds()
		rec.cpu = cpuSeconds() - cpu0
		rec.allocBytes = float64(heapAllocs() - alloc0)
		g1, c1 := gcCPU()
		rec.gcCPU, rec.cpu2 = g1-g0, c1-c0
		rec.peakHeap = float64(heap.take())
		if sc != nil {
			tr.end(sc.id)
			tr.ops++
		}
		rec.out = out
		n := max(out.attempted, 1)
		attempted += n
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "perfbench: op %d: %v\n", i, err)
			failed += n
			continue
		case ref == "":
			ref = out.digest
		case out.digest != ref:
			fmt.Fprintf(os.Stderr, "perfbench: op %d digest %s != first op's %s\n", i, out.digest, ref)
			failed += n
			continue
		}
		failed += out.failed
		ops = append(ops, rec)
	}
	heap.finish()
	elapsed := time.Since(start).Seconds()

	correct := failed == 0 && len(ops) > 0
	if o.pinned != "" && ref != o.pinned {
		fmt.Fprintf(os.Stderr, "perfbench: digest %s does not match the pinned %s\n", ref, o.pinned)
		correct = false
	}
	rep := benchResult{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	var tb strings.Builder
	fmt.Fprintf(&tb, "# %s seed %d: %d ops in %.1f s, digest %s", o.workload, o.seed, len(ops), elapsed, ref)
	if o.pinned != "" {
		fmt.Fprintf(&tb, " (pinned %s)", o.pinned)
	}
	fmt.Fprintln(&tb)
	fmt.Fprint(&tb, "# op walls (s):")
	for _, r := range ops {
		fmt.Fprintf(&tb, " %.3f", r.wall)
		if r.traced {
			fmt.Fprint(&tb, "t")
		}
	}
	fmt.Fprintln(&tb)
	row := func(name string, v float64, unit string, n int) {
		fmt.Fprintf(&tb, "%-36s %14.6g %-6s n=%d\n", name, v, unit, n)
	}
	if !o.trace {
		e2e := endToEnd(ops, setupTimes)
		for _, m := range endToEndMetrics {
			rep.Metrics[m.Name] = metric{Value: e2e[m.Name].v, Unit: m.Unit}
		}
		row("fail_frac", float64(failed)/float64(max(attempted, 1)), "frac", attempted)
		for _, m := range endToEndMetrics {
			row(m.Name, e2e[m.Name].v, m.Unit, e2e[m.Name].n)
		}
		for _, a := range workloadAliases(o.workload, ops) {
			row(a.name, a.v, a.unit, a.n)
		}
		return rep, tb.String(), nil
	}
	probes, err := microProbes(ctx, o.seed, o.workers)
	if err != nil {
		return benchResult{}, "", err
	}
	layers := perLayer(tr, ops, probes)
	for _, m := range perLayerMetrics {
		rep.Metrics[m.Name] = metric{Value: layers[m.Name], Unit: m.Unit}
		row(m.Name, layers[m.Name], m.Unit, tr.ops)
	}
	path := filepath.Join(o.root, buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return benchResult{}, "", err
	}
	fmt.Fprintf(&tb, "# spans: %s\n", path)
	return rep, tb.String(), nil
}

// sample is a metric value with the number of samples behind it.
type sample struct {
	v float64
	n int
}

func endToEnd(ops []opRecord, setupTimes []float64) map[string]sample {
	// Per-op medians: one op disturbed by another tenant of the machine
	// does not move them.
	var walls, cpu, alloc, peaks, rates []float64
	for _, r := range ops {
		walls = append(walls, r.wall)
		cpu = append(cpu, r.cpu)
		alloc = append(alloc, r.allocBytes/1e6)
		peaks = append(peaks, r.peakHeap/1e6)
		tw := r.out.trialWall
		if tw <= 0 {
			tw = r.wall
		}
		rates = append(rates, float64(r.out.trials)/tw)
	}
	return map[string]sample{
		"setup_s":      {median(setupTimes), len(setupTimes)},
		"op_s":         {median(walls), len(ops)},
		"cpu_s":        {median(cpu), len(ops)},
		"alloc_mb":     {median(alloc), len(ops)},
		"peak_heap_mb": {median(peaks), len(ops)},
		"trials_per_s": {median(rates), len(ops)},
	}
}

type alias struct {
	name string
	v    float64
	unit string
	n    int
}

// workloadAliases prints the workload-specific names for op_s and the
// daemon's job latencies, with their sample counts.
func workloadAliases(workload string, ops []opRecord) []alias {
	var walls []float64
	for _, r := range ops {
		walls = append(walls, r.wall)
	}
	switch workload {
	case "repro-quick":
		return []alias{{"repro_s", median(walls), "s", len(walls)}}
	case "yield-mc":
		return []alias{{"yield_s", median(walls), "s", len(walls)}}
	}
	cold, warm := jobLatencies(ops)
	return []alias{
		{"job_cold_s", median(cold), "s", len(cold)},
		{"job_warm_p50_ms", 1e3 * median(warm), "ms", len(warm)},
		{"job_warm_p95_ms", 1e3 * quantile(warm, 0.95), "ms", len(warm)},
	}
}

// jobLatencies splits the untraced daemon jobs' latencies, in seconds.
func jobLatencies(ops []opRecord) (cold, warm []float64) {
	for _, r := range ops {
		if r.traced {
			continue
		}
		for _, j := range r.out.jobs {
			if j.cold {
				cold = append(cold, j.latency())
			} else {
				warm = append(warm, j.latency())
			}
		}
	}
	return cold, warm
}

package main

import (
	"context"
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"chipletqc/internal/collision"
	"chipletqc/internal/runner"
	"chipletqc/internal/sampling"
	"chipletqc/internal/scenario"
	"chipletqc/internal/topo"
	"chipletqc/internal/yield"
)

func readSample(name string) metrics.Value {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value
}

func readUint(name string) uint64 {
	if v := readSample(name); v.Kind() == metrics.KindUint64 {
		return v.Uint64()
	}
	return 0
}

func readFloat(name string) float64 {
	if v := readSample(name); v.Kind() == metrics.KindFloat64 {
		return v.Float64()
	}
	return 0
}

// heapAllocs is the cumulative bytes allocated by the process.
func heapAllocs() uint64 { return readUint("/gc/heap/allocs:bytes") }

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// gcCPU returns the runtime's estimate of GC CPU seconds and of all CPU
// seconds the Go runtime accounts for.
func gcCPU() (gc, total float64) {
	return readFloat("/cpu/classes/gc/total:cpu-seconds"), readFloat("/cpu/classes/total:cpu-seconds")
}

// heapSampler tracks the peak live heap (the heap marked live by the
// most recent GC) by polling the runtime every millisecond; at the
// collection rates of these workloads that sees nearly every cycle.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	mu   sync.Mutex
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			h.observe()
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := readUint("/gc/heap/live:bytes")
	h.mu.Lock()
	h.peak = max(h.peak, v)
	h.mu.Unlock()
}

// take returns the peak in bytes since the last take and starts a new
// window.
func (h *heapSampler) take() uint64 {
	h.observe()
	h.mu.Lock()
	defer h.mu.Unlock()
	p := h.peak
	h.peak = 0
	return p
}

// finish stops the sampler and waits for it.
func (h *heapSampler) finish() {
	close(h.stop)
	h.wg.Wait()
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (NaN for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// probeReps is how many times each micro-probe repeats; the median is
// reported.
const probeReps = 5

// probeTrials is the fixed batch of the micro-probes, the batch of the
// yield hot-path records in BENCH_yield.json.
const probeTrials = 2000

// microProbes measures the per-trial layers directly on the 100-qubit
// paper device at a fixed 2000-trial batch: fab.Model.SampleInto and
// collision.Checker.Free per call, yield.Simulate throughput under each
// estimator, and the importance estimator run to its relative-precision
// target on the 25-qubit tight-thresholds device.
func microProbes(ctx context.Context, seed int64, workers int) (map[string]float64, error) {
	out := map[string]float64{}
	paper := scenario.Paper()
	dev := topo.MonolithicDevice(topo.MonolithicSpec(100))
	checker := collision.NewChecker(dev, paper.Params)
	slab := make([][]float64, probeTrials)
	for i := range slab {
		slab[i] = make([]float64, dev.N)
	}
	rng := runner.NewTrialRNG()
	var sampleNS, freeNS []float64
	free := 0
	for rep := 0; rep < probeReps; rep++ {
		t0 := time.Now()
		for i, f := range slab {
			paper.Fab.SampleInto(rng.At(seed, i), dev, f)
		}
		t1 := time.Now()
		free = 0
		for _, f := range slab {
			if checker.Free(f) {
				free++
			}
		}
		t2 := time.Now()
		sampleNS = append(sampleNS, float64(t1.Sub(t0).Nanoseconds())/probeTrials)
		freeNS = append(freeNS, float64(t2.Sub(t1).Nanoseconds())/probeTrials)
	}
	out["fab.sample_ns"] = median(sampleNS)
	out["collision.free_ns"] = median(freeNS)
	out["collision.free_frac"] = float64(free) / probeTrials

	base := paper.YieldConfig(probeTrials, seed)
	base.Workers = workers
	base.Precision, base.MaxTrials, base.RelPrecision = 0, 0, 0
	base.Sampling = sampling.Spec{}
	for _, m := range []struct {
		name string
		spec sampling.Spec
	}{
		// The zero spec is the fixed-batch counting path the plain
		// estimator is documented draw-for-draw identical to.
		{"sampling.plain_trials_per_s", sampling.Spec{}},
		{"sampling.stratified_trials_per_s", sampling.Spec{Method: sampling.Stratified}},
		{"sampling.importance_trials_per_s", sampling.Spec{Method: sampling.Importance}},
	} {
		cfg := base
		cfg.Sampling = m.spec
		var rates []float64
		for rep := 0; rep < probeReps; rep++ {
			t0 := time.Now()
			res, err := yield.Simulate(ctx, dev, cfg)
			if err != nil {
				return nil, err
			}
			rates = append(rates, float64(res.Batch)/time.Since(t0).Seconds())
		}
		out[m.name] = median(rates)
	}

	tight, err := scenario.Lookup(scenario.TightThresholdsName)
	if err != nil {
		return nil, err
	}
	td := topo.MonolithicDevice(topo.MonolithicSpec(24))
	tcfg := tight.YieldConfig(0, seed)
	tcfg.Workers = workers
	tcfg.Precision, tcfg.RelPrecision, tcfg.MaxTrials = 0, 0.2, 1<<20
	res, err := yield.Simulate(ctx, td, tcfg)
	if err != nil {
		return nil, err
	}
	out["sampling.importance_trials_to_target"] = float64(res.Batch)
	if res.Batch > 0 {
		out["sampling.importance_ess_frac"] = res.ESS / float64(res.Batch)
	}
	return out, nil
}

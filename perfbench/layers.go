package main

import "runtime"

// metricDef names one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEndMetrics are reported by every untraced run. Each applies to
// every workload; op_s is repro_s on repro-quick, yield_s on yield-mc
// and one service cycle on daemon-campaign.
var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"peak_heap_mb", "MB", "lower"},
	{"trials_per_s", "1/s", "higher"},
}

// perLayerMetrics are reported by every traced run, per traced op
// unless the unit says otherwise. A layer the workload never calls
// reads 0.
var perLayerMetrics = []metricDef{
	{"experiment.fig10_s", "s", "lower"},
	{"experiment.fig10corr_s", "s", "lower"},
	{"experiment.table2_s", "s", "lower"},
	{"experiment.fig4_s", "s", "lower"},
	{"experiment.fig8_s", "s", "lower"},
	{"experiment.fig9_s", "s", "lower"},
	{"experiment.tight_fig4_s", "s", "lower"},
	{"experiment.tight_fig8_s", "s", "lower"},
	{"experiment.genyield_s", "s", "lower"},
	{"compiler.compile_calls", "count", "lower"},
	{"compiler.compile_s", "s", "lower"},
	{"compiler.alloc_mb", "MB", "lower"},
	{"compiler.swaps", "count", "lower"},
	{"circuit.compiled_2q_gates", "count", "lower"},
	{"assembly.fabricate_calls", "count", "lower"},
	{"assembly.fabricate_s", "s", "lower"},
	{"assembly.dies", "count", "lower"},
	{"assembly.kgd_frac", "frac", "higher"},
	{"assembly.assemble_s", "s", "lower"},
	{"assembly.mcms", "count", "higher"},
	{"assembly.errors_s", "s", "lower"},
	{"eval.logfidelity_calls", "count", "lower"},
	{"eval.logfidelity_s", "s", "lower"},
	{"eval.population_s", "s", "lower"},
	{"qbench.generate_s", "s", "lower"},
	{"mcm.build_s", "s", "lower"},
	{"noise.detuning_model_s", "s", "lower"},
	{"yield.simulate_calls", "count", "lower"},
	{"yield.simulate_s", "s", "lower"},
	{"yield.trials", "count", "lower"},
	{"yield.trials_per_s", "1/s", "higher"},
	{"fab.sample_ns", "ns", "lower"},
	{"collision.free_ns", "ns", "lower"},
	{"collision.free_frac", "frac", "higher"},
	{"sampling.plain_trials_per_s", "1/s", "higher"},
	{"sampling.stratified_trials_per_s", "1/s", "higher"},
	{"sampling.importance_trials_per_s", "1/s", "higher"},
	{"sampling.importance_ess_frac", "frac", "higher"},
	{"sampling.importance_trials_to_target", "count", "lower"},
	{"campaign.expand_ms", "ms", "lower"},
	{"campaign.cells_executed", "count", "lower"},
	{"campaign.cells_cached", "count", "higher"},
	{"campaign.cache_hit_frac", "frac", "higher"},
	{"store.put_calls", "count", "lower"},
	{"store.put_ms", "ms", "lower"},
	{"store.put_bytes", "bytes", "lower"},
	{"store.get_calls", "count", "lower"},
	{"store.get_ms", "ms", "lower"},
	{"store.get_bytes", "bytes", "lower"},
	{"store.has_calls", "count", "lower"},
	{"store.has_us", "us", "lower"},
	{"daemon.submit_ms", "ms", "lower"},
	{"daemon.queue_ms", "ms", "lower"},
	{"daemon.run_ms", "ms", "lower"},
	{"daemon.notify_ms", "ms", "lower"},
	{"daemon.heap_per_job_kb", "KB", "lower"},
	{"daemon.job_cold_s", "s", "lower"},
	{"daemon.job_warm_p50_ms", "ms", "lower"},
	{"daemon.job_warm_p95_ms", "ms", "lower"},
	{"runner.cpu_busy_frac", "frac", "higher"},
	{"runtime.gc_cpu_frac", "frac", "lower"},
	{"trace.op_s", "s", "lower"},
	{"trace.untraced_op_s", "s", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	{"trace.glue_frac", "frac", "lower"},
	{"trace.spans_per_op", "count", "lower"},
}

// perLayer folds a finished trace, the run's ops and the micro-probes
// into the per-layer metrics.
func perLayer(tr *tracer, ops []opRecord, probes map[string]float64) map[string]float64 {
	lt := tr.totals()
	c := tr.counts
	nt := float64(max(tr.ops, 1))
	m := map[string]float64{}
	for k, v := range probes {
		m[k] = v
	}
	for _, name := range []string{"fig10", "fig10corr", "table2", "fig4", "fig8", "fig9", "tight_fig4", "tight_fig8", "genyield"} {
		m["experiment."+name+"_s"] = lt.total["experiment."+name] / nt
	}
	perOp := func(x float64) float64 { return x / nt }
	perCall := func(span string, scale float64) float64 {
		if lt.calls[span] == 0 {
			return 0
		}
		return scale * lt.self[span] / lt.calls[span]
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	m["compiler.compile_calls"] = perOp(lt.calls["compiler.compile"])
	m["compiler.compile_s"] = perOp(lt.self["compiler.compile"])
	m["compiler.alloc_mb"] = perOp(c["compiler.serial_alloc_bytes"]) / 1e6
	m["compiler.swaps"] = perOp(c["compiler.swaps"])
	m["circuit.compiled_2q_gates"] = perOp(c["circuit.compiled_2q_gates"])

	m["assembly.fabricate_calls"] = perOp(lt.calls["assembly.fabricate"])
	m["assembly.fabricate_s"] = perOp(lt.self["assembly.fabricate"])
	m["assembly.dies"] = perOp(c["assembly.dies"])
	m["assembly.kgd_frac"] = ratio(c["assembly.kgd"], c["assembly.dies"])
	m["assembly.assemble_s"] = perOp(lt.self["assembly.assemble"])
	m["assembly.mcms"] = perOp(c["assembly.mcms"])
	m["assembly.errors_s"] = perOp(lt.self["assembly.errors"])

	m["eval.logfidelity_calls"] = perOp(lt.calls["eval.logfidelity"])
	m["eval.logfidelity_s"] = perOp(lt.self["eval.logfidelity"])
	m["eval.population_s"] = perOp(lt.self["eval.population"])
	m["qbench.generate_s"] = perOp(lt.self["qbench.generate"])
	m["mcm.build_s"] = perOp(lt.self["mcm.build"])
	m["noise.detuning_model_s"] = perOp(lt.self["noise.detuning_model"])

	m["yield.simulate_calls"] = perOp(lt.calls["yield.simulate"])
	m["yield.simulate_s"] = perOp(lt.self["yield.simulate"])
	m["yield.trials"] = perOp(c["yield.trials"])
	m["yield.trials_per_s"] = ratio(c["yield.trials"], lt.self["yield.simulate"])

	m["campaign.expand_ms"] = perCall("campaign.expand", 1e3)
	m["campaign.cells_executed"] = perOp(c["campaign.cells_executed"])
	m["campaign.cells_cached"] = perOp(c["campaign.cells_cached"])
	m["campaign.cache_hit_frac"] = ratio(c["campaign.cells_cached"], c["campaign.cells_cached"]+c["campaign.cells_executed"])

	m["store.put_calls"] = perOp(c["store.put_calls"])
	m["store.put_ms"] = perCall("store.put", 1e3)
	m["store.put_bytes"] = perOp(c["store.put_bytes"])
	m["store.get_calls"] = perOp(c["store.get_calls"])
	m["store.get_ms"] = perCall("store.get", 1e3)
	m["store.get_bytes"] = perOp(c["store.get_bytes"])
	m["store.has_calls"] = perOp(c["store.has_calls"])
	m["store.has_us"] = perCall("store.has", 1e6)

	// Daemon job timings come from the untraced cycles of the run, so
	// the store decorator's spans do not inflate them.
	var submit, queue, runT, notify []float64
	for _, r := range ops {
		if r.traced {
			continue
		}
		for _, j := range r.out.jobs {
			if j.cold {
				continue
			}
			submit = append(submit, 1e3*j.submitted.Sub(j.sent).Seconds())
			queue = append(queue, 1e3*j.started.Sub(j.submitted).Seconds())
			runT = append(runT, 1e3*j.finished.Sub(j.started).Seconds())
			notify = append(notify, 1e3*j.returned.Sub(j.finished).Seconds())
		}
	}
	cold, warm := jobLatencies(ops)
	m["daemon.submit_ms"] = median(submit)
	m["daemon.queue_ms"] = median(queue)
	m["daemon.run_ms"] = median(runT)
	m["daemon.notify_ms"] = median(notify)
	m["daemon.heap_per_job_kb"] = ratio(c["daemon.heap_growth_bytes"], c["daemon.heap_jobs"]) / 1024
	m["daemon.job_cold_s"] = median(cold)
	m["daemon.job_warm_p50_ms"] = 1e3 * median(warm)
	m["daemon.job_warm_p95_ms"] = 1e3 * quantile(warm, 0.95)

	var cpu, wall, gc, total float64
	var tracedWalls, untracedWalls []float64
	for _, r := range ops {
		cpu += r.cpu
		wall += r.wall
		gc += r.gcCPU
		total += r.cpu2
		if r.traced {
			tracedWalls = append(tracedWalls, r.wall)
		} else {
			untracedWalls = append(untracedWalls, r.wall)
		}
	}
	m["runner.cpu_busy_frac"] = ratio(cpu, wall*float64(runtime.GOMAXPROCS(0)))
	m["runtime.gc_cpu_frac"] = ratio(gc, total)
	m["trace.op_s"] = median(tracedWalls)
	m["trace.untraced_op_s"] = median(untracedWalls)
	m["trace.overhead_frac"] = ratio(m["trace.op_s"], m["trace.untraced_op_s"]) - 1
	m["trace.glue_frac"] = ratio(lt.glueSec, lt.allSec)
	m["trace.spans_per_op"] = perOp(float64(lt.spans))
	return m
}

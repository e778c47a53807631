package main

import (
	"fmt"
	"os"
	"runtime"
)

// move names an end-to-end metric on one workload.
type move struct{ metric, workload string }

// layerMetric names one per-layer metric of the traced run and the
// end-to-end metrics a change to that layer should move — written down
// before measuring; empty for probes of code on no end-to-end path and for
// diagnostics. BENCHMARK.json lists the same names (its per_layer entries
// admit no further key, so the predictions live here and are printed in
// every traced run's report); TestBenchmarkJSONMatchesTheProgram keeps the
// two in step.
type layerMetric struct {
	name, unit string
	moves      []move
}

const (
	wlLabel  = "campaign-label"
	wlTrain  = "campaign-train"
	wlScenes = "serve-scenes"
	wlTiles  = "serve-tiles"
)

// on pairs one end-to-end metric with workloads.
func on(metric string, workloads ...string) []move {
	var out []move
	for _, w := range workloads {
		out = append(out, move{metric, w})
	}
	return out
}

func both(a, b []move) []move { return append(append([]move(nil), a...), b...) }

var (
	labelThroughput = on("tiles_per_s", wlLabel)
	trainSpeed      = both(on("tiles_per_s", wlTrain), on("job_p50_ms", wlTrain))
	serveLatency    = on("job_p50_ms", wlScenes, wlTiles)
)

var perLayer = []layerMetric{
	// Observed in the traced window (0 when the layer is not on the
	// workload's path).
	{"scene.generate_ms", "ms", both(labelThroughput, on("setup_s", wlScenes, wlTiles))},
	{"cloudfilter.filter_ms", "ms", both(labelThroughput, on("job_p50_ms", wlScenes))},
	{"labeler.hsv_ms", "ms", labelThroughput},  // ≈1 % of a job: on the path, no visible move predicted
	{"dataset.tile_ms", "ms", labelThroughput}, // <1 %
	{"pipeline.overhead_share", "fraction", labelThroughput},
	{"ddp.step_ms", "ms", trainSpeed},
	{"unet.predict_ms.int8", "ms", on("tiles_per_s", wlScenes)},
	{"unet.predict_ms.f32", "ms", both(on("job_p90_ms", wlTiles), on("job_p50_ms", wlTiles))}, // misses run a forward, the median request is a hit
	{"unet.batch_tiles", "tiles", on("tiles_per_s", wlScenes)},
	{"unet.calibrate_ms", "ms", on("setup_s", wlScenes)},
	{"unet.quantize_ms", "ms", on("setup_s", wlScenes)},
	{"serve.server_ms", "ms", serveLatency},
	{"serve.http_overhead_ms", "ms", serveLatency},
	{"serve.avg_batch_size", "tiles", on("tiles_per_s", wlScenes)},
	{"serve.batches", "count", on("tiles_per_s", wlScenes)},
	{"serve.cache_hit_rate", "fraction", on("job_p50_ms", wlTiles)},
	{"serve.rejected", "count", on("ok_share", wlScenes, wlTiles)},
	{"serve.expired_dropped", "count", on("ok_share", wlScenes, wlTiles)},
	{"serve.late_share", "fraction", on("job_p90_ms", wlTiles)},
	{"gen.lag_ms_p90", "ms", on("job_p90_ms", wlTiles)},
	{"go.alloc_mb_per_job", "MB", both(on("peak_rss_mb", wlLabel), labelThroughput)},
	{"go.gc_cycles", "count", both(on("peak_rss_mb", wlLabel), labelThroughput)},
	{"go.gc_pause_ms", "ms", labelThroughput},
	{"go.vm_hwm_mb", "MB", nil}, // the kernel's high-water mark: catches a spike peak_rss_mb's percentile skips, repeats poorly
	{"host.ref_ms", "ms", nil},  // recorded so a disturbed run is recognisable
	{"host.steal_share", "fraction", nil},
	{"trace.overhead_share", "fraction", nil},
	// Probes: timed on fixed inputs after the window, the same on every
	// workload, on no end-to-end path.
	{"labeler.kmeans_ms", "ms", nil},
	{"labeler.gmm_ms", "ms", nil},
	{"pipeline.scaling_x", "x", labelThroughput},
	{"pipeline.first_batch_ms", "ms", nil},
	{"pipeline.batch_wait_share", "fraction", nil},
	{"train.step_ms", "ms", nil},
	{"train.eval_tiles_per_s", "tiles/s", nil},
	{"train.scaling_x", "x", on("tiles_per_s", wlTrain)},
	{"unet.lossgrad_ms.f32", "ms", trainSpeed},
	{"unet.lossgrad_ms.f64", "ms", nil},
	{"nn.adam_ms", "ms", trainSpeed},                        // small beside forward/backward: <5 %
	{"ring.allreduce_ms", "ms", on("tiles_per_s", wlTrain)}, // <5 %
	{"ring.allreduce_mb_s", "MB/s", on("tiles_per_s", wlTrain)},
	{"transport.allreduce_ms", "ms", nil},
	{"unet.predict_ms.f64", "ms", nil},
	{"unet.flops_per_tile", "flop", nil}, // computed from unet.Config, not measured
	{"tensor.gemm_gflops.f32", "Gflop/s", on("tiles_per_s", wlTrain)},
	{"tensor.gemm_gflops.f64", "Gflop/s", nil},
	{"tensor.gemm_int8_gops", "Gop/s", on("tiles_per_s", wlScenes)},
	{"core.infer_scene_ms", "ms", on("job_p50_ms", wlScenes)},
}

// spanMetrics maps a span name to the per-layer metric that reports the
// median duration of its spans.
var spanMetrics = map[string]string{
	"scene.generate":     "scene.generate_ms",
	"cloudfilter.filter": "cloudfilter.filter_ms",
	"labeler.hsv":        "labeler.hsv_ms",
	"dataset.tile":       "dataset.tile_ms",
	"unet.predict.int8":  "unet.predict_ms.int8",
	"unet.predict.f32":   "unet.predict_ms.f32",
	"unet.calibrate":     "unet.calibrate_ms",
	"unet.quantize":      "unet.quantize_ms",
}

// tracedRun produces the per-layer metrics: one set-up, an untraced
// reference window of a quarter of -seconds, a traced window of half of
// -seconds, then the fixed-input probes. The trace goes to bench/out/.
func tracedRun(p params, mk func(params) workload) (*resultLine, *report, error) {
	tr := newTracer()
	probe := startHostProbe()
	defer probe.finish()
	w := mk(p)
	defer w.close()
	if err := w.setup(tr); err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	base, err := w.run(nil, float64(p.seconds)/4)
	if err != nil {
		return nil, nil, fmt.Errorf("untraced reference window: %w", err)
	}
	runtime.GC()
	total0, steal0 := cpuTicks()
	go0 := readGoCounters()
	out, err := w.run(tr, float64(p.seconds)/2)
	if err != nil {
		return nil, nil, fmt.Errorf("traced window: %w", err)
	}
	refMs, _ := probe.meanBetween(out.start, out.end)
	go1 := readGoCounters()
	total1, steal1 := cpuTicks()

	layers := out.layers
	for spanName, metric := range spanMetrics {
		if d := tr.durationsMs(spanName); len(d) > 0 {
			layers[metric] = median(d)
		}
	}
	if b := tr.observed("unet.batch_tiles"); len(b) > 0 {
		layers["unet.batch_tiles"] = mean(b)
	}
	jobs := float64(max(out.attempted, 1))
	layers["go.alloc_mb_per_job"] = (go1.allocBytes - go0.allocBytes) / (1 << 20) / jobs
	layers["go.gc_cycles"] = go1.gcCycles - go0.gcCycles
	layers["go.gc_pause_ms"] = (go1.gcPauseS - go0.gcPauseS) * 1e3
	layers["go.vm_hwm_mb"] = out.vmHWMMB
	layers["host.ref_ms"] = refMs
	if total1 > total0 {
		layers["host.steal_share"] = (steal1 - steal0) / (total1 - total0)
	}
	if b := base.tilesPerBusyS(); b > 0 {
		layers["trace.overhead_share"] = 1 - out.tilesPerBusyS()/b
	}
	if err := runProbes(p, tr, layers); err != nil {
		return nil, nil, fmt.Errorf("probes: %w", err)
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, err
	}
	if err := tr.writeChrome(traceFile(p.workload)); err != nil {
		return nil, nil, fmt.Errorf("write trace: %w", err)
	}

	metrics := make(map[string]metricValue, len(perLayer))
	rep := newReport(p, out)
	rep.Moves = map[string][]string{}
	for _, m := range perLayer {
		metrics[m.name] = metricValue{layers[m.name], m.unit}
		for _, mv := range m.moves {
			rep.Moves[m.name] = append(rep.Moves[m.name], mv.metric+"@"+mv.workload)
		}
	}
	rep.Phases["untraced_reference"] = phaseCount{base.attempted, base.attempted - base.failed, base.failed}
	rep.TraceFile = traceFile(p.workload)
	rep.SampleCounts = map[string]int{"traced_jobs": len(out.jobMs), "untraced_reference_jobs": len(base.jobMs)}
	rep.Failures = append(rep.Failures, base.failures...)
	rep.SelfTimeMs = map[string]float64{}
	for name, d := range tr.selfTimes() {
		rep.SelfTimeMs[name] = ms(d)
	}
	failed := out.failed + base.failed
	return &resultLine{Correct: failed == 0, Attempted: out.attempted + base.attempted, Failed: failed, Metrics: metrics}, rep, nil
}

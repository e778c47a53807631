// Command seaice-bench regenerates every table and figure of the paper's
// evaluation section (§IV) and writes the paper-vs-reproduced comparison
// to stdout and, optionally, a Markdown report:
//
//	table1    Python-multiprocessing auto-label speedup (Table I, Fig 10)
//	table2    PySpark map-reduce scaling on the simulated cluster (Table II)
//	table3    Horovod-style distributed training (Table III, Fig 12)
//	accuracy  U-Net-Man vs U-Net-Auto (Tables IV & V, Fig 13, §IV-B2 SSIM)
//	fig14     qualitative prediction panels (PNG files)
//	labeltime full-scene auto-label throughput (§IV-C2, 349.26 s)
//	kernels   float32-vs-float64 numeric kernel table (GEMM, conv, train step)
//	all       everything above
//
// -precision {f32,f64} selects the compute precision of the
// training-step cost measurement (table3's companion section); f32 runs
// mixed precision (float64 master weights). The kernels experiment
// always measures both precisions side by side.
//
// Usage:
//
//	seaice-bench -exp all -quick -out EXPERIMENTS.generated.md
//	seaice-bench -exp accuracy            # full experiment scale
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"seaice/internal/core"
	"seaice/internal/dataset"
	"seaice/internal/ddp"
	"seaice/internal/nn"
	"seaice/internal/noise"
	"seaice/internal/pool"
	"seaice/internal/raster"
	"seaice/internal/report"
	"seaice/internal/scene"
	"seaice/internal/serve"
	"seaice/internal/tensor"
	"seaice/internal/train"
	"seaice/internal/unet"
)

type output struct {
	md strings.Builder
}

// validatePrecision routes through the serving stack's precision
// vocabulary, so an unrecognized name is refused with the typed
// *serve.UnknownPrecisionError instead of silently falling back to a
// default. int8 parses (it is a real serving rung) but the training-step
// cost measurement cannot run in it, so it is redirected to the serve
// benchmark that can.
func validatePrecision(p string) error {
	canon, err := serve.ParsePrecision(p)
	if err != nil {
		return err
	}
	if canon == "int8" {
		return fmt.Errorf("precision int8 is inference-only — train in f32 or f64, and benchmark int8 serving with BenchmarkServeThroughput/int8")
	}
	return nil
}

// stopProfiles flushes the CPU profile; set only when -cpuprofile is
// active. fatal/fatalf call it before exiting because log.Fatal's
// os.Exit would otherwise skip the deferred flush and leave a truncated
// profile exactly when one is most needed.
var stopProfiles func()

func fatal(v ...any) {
	if stopProfiles != nil {
		stopProfiles()
	}
	log.Fatal(v...)
}

func fatalf(format string, v ...any) {
	if stopProfiles != nil {
		stopProfiles()
	}
	log.Fatalf(format, v...)
}

func (o *output) section(title, body string) {
	fmt.Println(body)
	o.md.WriteString("## " + title + "\n\n```\n" + body + "```\n\n")
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("seaice-bench: ")

	var (
		exp        = flag.String("exp", "all", "experiment: table1|table2|table3|accuracy|fig14|labeltime|kernels|all")
		precision  = flag.String("precision", "f64", "training-step cost precision: f32 (mixed) | f64")
		quick      = flag.Bool("quick", false, "reduced scale for fast runs")
		outMD      = flag.String("out", "", "write a Markdown report to this path")
		outDir     = flag.String("figdir", "figs", "directory for figure PNGs")
		seed       = flag.Uint64("seed", 20240519, "experiment seed")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this path")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this path at exit")
	)
	flag.Parse()

	// Reject bad -precision up front, for every experiment: the flag
	// used to be checked only on the table3 path, so e.g.
	// `-exp kernels -precision f16` silently ran with the default.
	if err := validatePrecision(*precision); err != nil {
		log.Fatal(err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("cpuprofile: %v", err)
		}
		// fatal() also runs this, so a failed experiment still flushes a
		// usable profile (log.Fatal skips defers via os.Exit).
		stopProfiles = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
		defer stopProfiles()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatalf("memprofile: %v", err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatalf("memprofile: %v", err)
			}
			log.Printf("heap profile written to %s", *memProfile)
		}()
	}

	var o output
	o.md.WriteString("# Reproduced experiments (generated by seaice-bench)\n\n")

	want := func(name string) bool { return *exp == "all" || *exp == name }
	start := time.Now()

	var accRes *core.AccuracyResult
	if want("accuracy") || want("fig14") {
		cfg := core.DefaultAccuracyConfig(*seed)
		if *quick {
			cfg = core.QuickAccuracyConfig(*seed)
		}
		cfg.Progress = func(stage string) { log.Printf("accuracy: %s", stage) }
		var err error
		accRes, err = core.RunAccuracy(cfg)
		if err != nil {
			fatalf("accuracy experiment: %v", err)
		}
	}

	if want("table1") {
		log.Printf("table1: multiprocessing auto-labeling")
		tiles := benchTiles(*seed, *quick)
		rows, err := core.RunTable1(tiles, true)
		if err != nil {
			fatal(err)
		}
		o.section("Table I / Fig 10 — multiprocessing auto-labeling", core.Table1Report(rows).String())
	}

	if want("table2") {
		log.Printf("table2: map-reduce scaling (simulated Dataproc cluster)")
		scenes := benchScenes(*seed+1, *quick)
		rows, err := core.RunTable2(scenes, 64)
		if err != nil {
			fatal(err)
		}
		o.section("Table II — PySpark-style map-reduce auto-labeling", core.Table2Report(rows).String())
	}

	if want("table3") {
		log.Printf("table3: distributed U-Net training")
		samples := trainSamples(*seed+2, *quick)
		modelCfg := unet.Config{Depth: 2, BaseChannels: 4, InChannels: 3, Classes: 3, DropoutRate: 0, Seed: *seed}
		rows, err := core.RunTable3(core.Table3Config{
			Samples: samples, Model: modelCfg,
			Epochs: 50, RealEpochs: 1, BatchPer: 4, LR: 0.01, Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
		o.section("Table III / Fig 12 — Horovod-style distributed training", core.Table3Report(rows).String())
		var stepCost string
		switch *precision {
		case "f32":
			stepCost = trainStepCost[float32](samples, modelCfg, *seed, true)
		case "f64":
			stepCost = trainStepCost[float64](samples, modelCfg, *seed, false)
		default:
			fatalf("unknown precision %q (want f32 or f64)", *precision)
		}
		o.section(fmt.Sprintf("Training-step cost (this host, %s)", *precision), stepCost)
	}

	if want("kernels") {
		log.Printf("kernels: float32-vs-float64 side-by-side")
		o.section("Numeric kernels — float32 vs float64", kernelTable())
	}

	if accRes != nil && want("accuracy") {
		o.section("Table IV — overall classification accuracy", core.Table4Report(accRes).String())
		o.section("Table V — accuracy by cloud/shadow coverage", core.Table5Report(accRes).String())
		o.section("Fig 13 — confusion matrices", core.Fig13Report(accRes))
		o.section("§IV-B2 — auto-label SSIM validation", core.SSIMReport(accRes).String())
	}

	if accRes != nil && want("fig14") {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		paths, err := core.WriteFig14Panels(accRes, *outDir, 4)
		if err != nil {
			fatal(err)
		}
		body := "Fig 14 panels (original | manual | U-Net-Man | U-Net-Auto):\n"
		for _, p := range paths {
			body += "  " + p + "\n"
		}
		o.section("Fig 14 — qualitative predictions", body)
	}

	if want("labeltime") {
		log.Printf("labeltime: full-scene auto-label throughput")
		o.section("§IV-C2 — auto-labeling throughput", labelThroughput(*seed+3, *quick))
	}

	log.Printf("done in %s", time.Since(start).Round(time.Millisecond))
	if *outMD != "" {
		if err := os.WriteFile(*outMD, []byte(o.md.String()), 0o644); err != nil {
			fatal(err)
		}
		log.Printf("markdown report written to %s", *outMD)
	}
}

// benchTiles prepares the tile workload for Table I's real pool runs.
func benchTiles(seed uint64, quick bool) []*raster.RGB {
	n := 2
	if quick {
		n = 1
	}
	cc := scene.DefaultCollection(seed)
	cc.Scenes = n
	cc.W, cc.H = 256, 256
	scenes, err := scene.GenerateCollection(cc)
	if err != nil {
		fatal(err)
	}
	var tiles []*raster.RGB
	for _, sc := range scenes {
		ts, _, err := raster.Split(sc.Image, 64, 64)
		if err != nil {
			fatal(err)
		}
		for _, t := range ts {
			tiles = append(tiles, t.Image)
		}
	}
	return tiles
}

// benchScenes prepares the scene set for Table II's engine runs.
func benchScenes(seed uint64, quick bool) []*scene.Scene {
	n := 4
	if quick {
		n = 2
	}
	cc := scene.DefaultCollection(seed)
	cc.Scenes = n
	cc.W, cc.H = 256, 256
	scenes, err := scene.GenerateCollection(cc)
	if err != nil {
		fatal(err)
	}
	return scenes
}

// trainSamples prepares a small labeled sample set for Table III's real
// distributed-training runs (the virtual DGX clock carries the paper-scale
// timing; the gradient math here is real).
func trainSamples(seed uint64, quick bool) []train.Sample {
	n := 2
	if quick {
		n = 1
	}
	cc := scene.DefaultCollection(seed)
	cc.Scenes = n
	cc.W, cc.H = 128, 128
	scenes, err := scene.GenerateCollection(cc)
	if err != nil {
		fatal(err)
	}
	build := dataset.DefaultBuild()
	build.TileSize = 16
	set, err := dataset.Build(scenes, build)
	if err != nil {
		fatal(err)
	}
	tiles := dataset.Subsample(set.Tiles, 32, seed)
	return dataset.Samples(tiles, dataset.OriginalImages, dataset.AutoLabels)
}

// measured runs fn n times and reports its mean wall-clock and heap cost,
// the ns/op + allocs/op framing of the testing package's benchmarks so
// perf regressions are diagnosable from a plain seaice-bench run.
func measured(n int, fn func()) (nsPerOp, allocsPerOp, bytesPerOp float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	fn2 := float64(n)
	return float64(elapsed.Nanoseconds()) / fn2,
		float64(after.Mallocs-before.Mallocs) / fn2,
		float64(after.TotalAlloc-before.TotalAlloc) / fn2
}

// trainStepCost measures one synchronous DDP training step (forward +
// backward + chunked ring all-reduce + Adam) on this host, reporting
// ns/op and allocs/op. Steady state is measured: the first step grows the
// engine's scratch buffers and is excluded.
func trainStepCost[S tensor.Scalar](samples []train.Sample, modelCfg unet.Config, seed uint64, master bool) string {
	const workers = 2
	tr, err := ddp.New[S](modelCfg, ddp.Config{
		Workers: workers, BatchPerWorker: 2, Epochs: 1, LR: 0.01, Seed: seed,
		MasterWeights: master,
	})
	if err != nil {
		fatal(err)
	}
	shards := make([][]train.Sample, workers)
	for i, s := range samples {
		shards[i%workers] = append(shards[i%workers], s)
	}
	step := func() {
		if _, err := tr.Step(shards); err != nil {
			fatal(err)
		}
	}
	step() // warm the grow-only buffers
	ns, allocs, bytes := measured(8, step)

	t := report.NewTable("training-step cost (steady state, this host)",
		"quantity", "value")
	t.AddRow("workers × batch", fmt.Sprintf("%d × 2", workers))
	t.AddRow("ns/op", fmt.Sprintf("%.0f", ns))
	t.AddRow("allocs/op", fmt.Sprintf("%.1f", allocs))
	t.AddRow("B/op", fmt.Sprintf("%.0f", bytes))
	return t.String()
}

// labelThroughput measures the sequential filter+label time per scene and
// extrapolates to the paper's workload of 66 scenes at 2048² (§IV-C2
// reports 349.26 s for that workload on the paper's workstation).
func labelThroughput(seed uint64, quick bool) string {
	n := 3
	size := 512
	if quick {
		n, size = 2, 256
	}
	cc := scene.DefaultCollection(seed)
	cc.Scenes = n
	cc.W, cc.H = size, size
	scenes, err := scene.GenerateCollection(cc)
	if err != nil {
		fatal(err)
	}
	sceneIdx := 0
	ns, allocs, bytes := measured(n, func() {
		sc := scenes[sceneIdx%n]
		sceneIdx++
		filtered := core.FilterSceneDefault(sc.Image)
		if _, err := core.LabelDefault(filtered); err != nil {
			fatal(err)
		}
	})
	perScene := ns / 1e9
	// scale per-scene cost to 2048² (quadratic in side length)
	scale := float64(2048*2048) / float64(size*size)
	paperWorkload := perScene * scale * 66

	t := report.NewTable("§IV-C2 — sequential auto-labeling throughput",
		"quantity", "value")
	t.AddRow("scenes timed", report.I(n))
	t.AddRow("scene size", fmt.Sprintf("%d×%d", size, size))
	t.AddRow("seconds per scene (this host)", report.F(perScene))
	t.AddRow("ns/op (one filter+label scene)", fmt.Sprintf("%.0f", ns))
	t.AddRow("allocs/op", fmt.Sprintf("%.1f", allocs))
	t.AddRow("B/op", fmt.Sprintf("%.0f", bytes))
	t.AddRow("extrapolated: 66 scenes @2048² (this host)", report.F(paperWorkload))
	t.AddRow("paper: 66 scenes @2048² (their workstation)", "349.26")
	return t.String()
}

// kernelRun measures one kernel, warming scratch buffers first.
func kernelRun(iters int, fn func()) float64 {
	fn() // warm scratch buffers
	ns, _, _ := measured(iters, fn)
	return ns
}

// kernelTable measures the numeric stack's hot kernels at both
// precisions and prints them side by side — the float32 column is the
// compute path seaice-train/-serve default to, the float64 column the
// master/reference engine.
func kernelTable() string {
	const m, k, n = 16, 72, 8 * 64 * 64
	type row struct {
		name         string
		f64ns, f32ns float64
	}
	var rows []row

	gemmRow := func(name string, run64, run32 func()) {
		r := row{name: name}
		r.f64ns = kernelRun(6, run64)
		r.f32ns = kernelRun(6, run32)
		rows = append(rows, r)
	}

	mk := func(rows, cols int) (*tensor.F64, *tensor.F32) {
		t := tensor.New[float64](rows, cols)
		for i := range t.Data {
			t.Data[i] = float64(i%17)*0.25 - 0.4
		}
		return t, tensor.Convert[float32](t)
	}
	a64, a32 := mk(m, k)
	b64, b32 := mk(k, n)
	at64, at32 := mk(k, m)
	c64 := tensor.New[float64](m, n)
	c32 := tensor.New[float32](m, n)
	gemmRow(fmt.Sprintf("GEMM AB %dx%dx%d", m, k, n),
		func() { tensor.MatMulInto(c64, a64, b64) },
		func() { tensor.MatMulInto(c32, a32, b32) })
	gemmRow("GEMM A\u1d40B", func() { tensor.MatMulATBInto(c64.Reshape(m, n), at64, b64) },
		func() { tensor.MatMulATBInto(c32.Reshape(m, n), at32, b32) })

	// Direct vs Winograd 3x3 conv, batch 8 of 64^2, 8->8 channels.
	conv64 := nn.NewConv2D[float64]("bench", 8, 8, 3, noise.NewRNG(1, 2))
	conv32 := nn.NewConv2D[float32]("bench", 8, 8, 3, noise.NewRNG(1, 2))
	x64c := tensor.New[float64](8, 8, 64, 64)
	for i := range x64c.Data {
		x64c.Data[i] = float64(i%31)*0.05 - 0.7
	}
	x32c := tensor.Convert[float32](x64c)
	y64 := tensor.New[float64](8, 8, 64, 64)
	y32 := tensor.New[float32](8, 8, 64, 64)
	gemmRow("conv3x3 8ch 8x64\u00b2 (direct f64 vs f32 path)",
		func() { nn.Conv3x3Planes(pool.Serial(), conv64, x64c.Data, 8, nil, 0, 8, 64, 64, y64.Data, false) },
		func() {
			nn.NewWinograd[float32](false).ConvBatch(pool.Serial(), conv32, x32c.Data, 8, 64, 64, y32.Data, false)
		})

	t := report.NewTable("numeric kernels, this host (ns/op; f32 is the compute path, f64 the master/reference)",
		"kernel", "f64 ns/op", "f32 ns/op", "f32 speedup")
	for _, r := range rows {
		t.AddRow(r.name, fmt.Sprintf("%.0f", r.f64ns), fmt.Sprintf("%.0f", r.f32ns), fmt.Sprintf("%.2fx", r.f64ns/r.f32ns))
	}
	return t.String()
}

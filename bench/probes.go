package main

import (
	"fmt"
	"net"
	"sync"
	"time"

	"seaice/internal/cloudfilter"
	"seaice/internal/core"
	"seaice/internal/dataset"
	"seaice/internal/ddp"
	"seaice/internal/labeler"
	"seaice/internal/nn"
	"seaice/internal/pipeline"
	"seaice/internal/pool"
	"seaice/internal/raster"
	"seaice/internal/ring"
	"seaice/internal/scene"
	"seaice/internal/tensor"
	"seaice/internal/train"
	"seaice/internal/transport"
	"seaice/internal/unet"
)

// probeSeed fixes every probe input: probes time layers on inputs that do
// not depend on -seed or on the workload, so their numbers compare across
// all traced runs.
const probeSeed = 20240

// timeMs runs fn once untimed and reps times timed, and returns the median
// duration in ms.
func timeMs(reps int, fn func() error) (float64, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	times := make([]float64, reps)
	for i := range times {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times[i] = ms(time.Since(start))
	}
	return median(times), nil
}

// runProbes fills the probe metrics: layers no workload's window isolates,
// timed directly through their public functions. Every probe is recorded
// as a span too, so the trace shows where the run's tail went.
func runProbes(p params, tr *tracer, layers map[string]float64) error {
	probes := []struct {
		name string
		fn   func(params, map[string]float64) error
	}{
		{"labelers", probeLabelers},
		{"pipeline", probePipeline},
		{"fitstream", probeFitStream},
		{"compute", probeCompute},
		{"collectives", probeCollectives},
		{"scaling", probeTrainScaling},
		{"inference", probeInference},
		{"gemm", probeGemm},
	}
	for _, pr := range probes {
		id := tr.begin("probe."+pr.name, noSpan, -1)
		err := pr.fn(p, layers)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", pr.name, err)
		}
	}
	layers["unet.flops_per_tile"] = flopsPerTile(unet.FastConfig(probeSeed), serveTile)
	return nil
}

// probeScene is the fixed 256² scene the single-scene probes share.
var probeScene = sync.OnceValues(func() (*scene.Scene, error) {
	cfg := scene.DefaultConfig(probeSeed)
	cfg.W, cfg.H = serveSceneSize, serveSceneSize
	return scene.Generate(cfg)
})

// probeTiles labels and tiles two fixed 128² scenes into 32 samples of 32².
var probeTiles = sync.OnceValues(func() ([]train.Sample, error) {
	c := scene.DefaultCollection(probeSeed)
	c.Scenes, c.W, c.H = 2, 128, 128
	build := dataset.DefaultBuild()
	build.TileSize = serveTile
	var tiles []dataset.Tile
	for i := 0; i < c.Scenes; i++ {
		sc, err := scene.GenerateAt(c, i)
		if err != nil {
			return nil, err
		}
		ts, err := dataset.BuildScene(sc, i, build)
		if err != nil {
			return nil, err
		}
		tiles = append(tiles, ts...)
	}
	return dataset.Samples(tiles, dataset.FilteredImages, dataset.AutoLabels), nil
})

// probeSamples returns the first n of the probe tiles.
func probeSamples(n int) ([]train.Sample, error) {
	tiles, err := probeTiles()
	if err != nil || len(tiles) < n {
		return nil, fmt.Errorf("probe fixture has %d tiles, need %d: %v", len(tiles), n, err)
	}
	return tiles[:n], nil
}

func probeLabelers(_ params, layers map[string]float64) error {
	sc, err := probeScene()
	if err != nil {
		return err
	}
	img := cloudfilter.Filter(sc.Image, cloudfilter.DefaultConfig()).Image
	for metric, l := range map[string]labeler.Labeler{
		"labeler.kmeans_ms": labeler.KMeans{Seed: probeSeed},
		"labeler.gmm_ms":    labeler.GMM{Seed: probeSeed},
	} {
		if layers[metric], err = timeMs(3, func() error { _, err := l.Label(img); return err }); err != nil {
			return err
		}
	}
	return nil
}

// probePipeline times one campaign-label job at one worker and at nproc,
// interleaved so host drift hits both alike.
func probePipeline(p params, layers map[string]float64) error {
	defer pool.SetSharedWorkers(p.nproc)
	w := newLabelWL(p)
	job := func(workers int) (float64, error) {
		pool.SetSharedWorkers(workers)
		build := w.build
		build.Workers = workers
		c := scene.DefaultCollection(probeSeed)
		c.Scenes, c.W, c.H = labelScenesPerJob, labelSceneSize, labelSceneSize
		start := time.Now()
		_, err := pipeline.StreamBuilder{Config: pipeline.Config{Build: build, Workers: workers}}.BuildSet(pipeline.CollectionSource{Cfg: c})
		return ms(time.Since(start)), err
	}
	var one, all []float64
	for i := 0; i < 6; i++ {
		a, err := job(1)
		if err != nil {
			return err
		}
		b, err := job(p.nproc)
		if err != nil {
			return err
		}
		if i > 0 { // the first pair warms both configurations
			one, all = append(one, a), append(all, b)
		}
	}
	layers["pipeline.scaling_x"] = median(one) / median(all)
	return nil
}

// timedBatches wraps the train.BatchSource seam: the time the trainer
// spends blocked in the iterator is batch wait, the time between a batch's
// delivery and the next request is the trainer's own step.
type timedBatches struct {
	src   train.BatchSource[float32]
	start time.Time
	first time.Duration // stream start → first batch delivered
	wait  time.Duration
	steps []float64 // ms
}

func (t *timedBatches) Epoch(epoch int) func() (*train.PackedBatch[float32], error) {
	next := t.src.Epoch(epoch)
	var delivered time.Time
	return func() (*train.PackedBatch[float32], error) {
		asked := time.Now()
		if !delivered.IsZero() {
			t.steps = append(t.steps, ms(asked.Sub(delivered)))
		}
		b, err := next()
		delivered = time.Now()
		t.wait += delivered.Sub(asked)
		if t.first == 0 {
			t.first = delivered.Sub(t.start)
		}
		return b, err
	}
}

// probeFitStream runs a 2-epoch train.FitStream over the streaming
// pipeline's double-buffered batch source.
func probeFitStream(p params, layers map[string]float64) error {
	c := scene.DefaultCollection(probeSeed)
	c.Scenes, c.W, c.H = 2, 128, 128
	build := dataset.DefaultBuild()
	build.TileSize = serveTile
	build.Workers = p.nproc
	start := time.Now()
	stream, err := pipeline.New(pipeline.CollectionSource{Cfg: c}, pipeline.Config{
		Build: build, Workers: p.nproc,
		Plan: &pipeline.TrainPlan{
			TrainFrac: 0.8, SplitSeed: probeSeed, TrainTiles: 16, TrainSeed: probeSeed,
			Image: dataset.FilteredImages, Labels: dataset.AutoLabels,
			BatchSize: 8, BatchSeed: probeSeed,
		},
	})
	if err != nil {
		return err
	}
	defer stream.Close()
	src, err := pipeline.TrainBatchesOf[float32](stream)
	if err != nil {
		return err
	}
	m, err := unet.New[float32](unet.FastConfig(probeSeed))
	if err != nil {
		return err
	}
	timed := &timedBatches{src: src, start: start}
	if _, err := train.FitStream(m, timed, train.Config{Epochs: 2, LR: 0.01, MasterWeights: true}); err != nil {
		return err
	}
	layers["pipeline.first_batch_ms"] = ms(timed.first)
	layers["pipeline.batch_wait_share"] = float64(timed.wait) / float64(time.Since(start))
	layers["train.step_ms"] = median(timed.steps)
	return nil
}

// probeCompute times the training step's parts on one fixed batch of 8.
func probeCompute(_ params, layers map[string]float64) error {
	samples, err := probeSamples(8)
	if err != nil {
		return err
	}
	if layers["unet.lossgrad_ms.f32"], layers["nn.adam_ms"], err = lossGradMs[float32](samples); err != nil {
		return err
	}
	layers["unet.lossgrad_ms.f64"], _, err = lossGradMs[float64](samples)
	return err
}

func lossGradMs[S tensor.Scalar](samples []train.Sample) (lossGrad, adam float64, err error) {
	m, err := unet.New[S](unet.FastConfig(probeSeed))
	if err != nil {
		return 0, 0, err
	}
	x, labels, err := train.ToTensor[S](samples)
	if err != nil {
		return 0, 0, err
	}
	params := m.Params()
	opt := nn.NewAdam[S](0.01)
	opt.Master = true
	if lossGrad, err = timeMs(5, func() error {
		nn.ZeroGrads(params)
		_, err := m.LossAndGrad(x, labels)
		return err
	}); err != nil {
		return 0, 0, err
	}
	adam, err = timeMs(5, func() error { opt.Step(params); return nil })
	return lossGrad, adam, err
}

// probeCollectives times the gradient all-reduce over nproc ranks on a
// vector as long as FastConfig's gradient, in process and over loopback TCP.
func probeCollectives(p params, layers map[string]float64) error {
	m, err := unet.New[float32](unet.FastConfig(probeSeed))
	if err != nil {
		return err
	}
	n := m.NumParams()
	vectors := make([][]float32, p.nproc)
	for r := range vectors {
		vectors[r] = make([]float32, n)
		for i := range vectors[r] {
			vectors[r][i] = float32(r+i%13) * 0.01
		}
	}
	inProc, err := timeMs(20, func() error { return ring.AllReduceMean(vectors) })
	if err != nil {
		return err
	}
	layers["ring.allreduce_ms"] = inProc
	layers["ring.allreduce_mb_s"] = float64(4*n*p.nproc) / (1 << 20) / (inProc / 1e3)

	rings := make([]*transport.Ring, p.nproc)
	listeners := make([]net.Listener, p.nproc)
	peers := make([]string, p.nproc)
	for r := range listeners {
		if listeners[r], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return err
		}
		peers[r] = listeners[r].Addr().String()
	}
	for r := range rings {
		if rings[r], err = transport.NewRing(transport.Config{
			Rank: r, Peers: peers, ClusterID: "bench-probe", Timeout: 5 * time.Second, Listener: listeners[r],
		}); err != nil {
			return err
		}
		defer rings[r].Close()
	}
	allRanks := func(fn func(r int) error) error {
		errs := make([]error, p.nproc)
		var wg sync.WaitGroup
		for r := range rings {
			wg.Add(1)
			go func(r int) { defer wg.Done(); errs[r] = fn(r) }(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := allRanks(func(r int) error { _, err := rings[r].Establish(0); return err }); err != nil {
		return err
	}
	step := 0
	layers["transport.allreduce_ms"], err = timeMs(10, func() error {
		step++
		return allRanks(func(r int) error {
			rings[r].StepStart(step)
			return transport.AllReduceMean(rings[r], vectors[r], 0)
		})
	})
	return err
}

// probeTrainScaling times one synchronous step on the same 8-tile global
// batch with one rank and with nproc ranks, interleaved.
func probeTrainScaling(p params, layers map[string]float64) error {
	samples, err := probeSamples(8)
	if err != nil {
		return err
	}
	mk := func(workers int) (*ddp.Trainer[float32], [][]train.Sample, error) {
		t, err := ddp.New[float32](unet.FastConfig(probeSeed), ddp.Config{
			Workers: workers, BatchPerWorker: len(samples) / workers, Epochs: 1, LR: 0.01, Seed: probeSeed, MasterWeights: true,
		})
		shards := make([][]train.Sample, workers)
		for r := range shards {
			per := len(samples) / workers
			shards[r] = samples[r*per : (r+1)*per]
		}
		return t, shards, err
	}
	one, oneShards, err := mk(1)
	if err != nil {
		return err
	}
	all, allShards, err := mk(p.nproc)
	if err != nil {
		return err
	}
	var t1, tn []float64
	for i := 0; i < 6; i++ {
		start := time.Now()
		if _, err := one.Step(oneShards); err != nil {
			return err
		}
		mid := time.Now()
		if _, err := all.Step(allShards); err != nil {
			return err
		}
		if i > 0 { // the first pair grows the scratch buffers
			t1, tn = append(t1, ms(mid.Sub(start))), append(tn, ms(time.Since(mid)))
		}
	}
	layers["train.scaling_x"] = median(t1) / median(tn)
	return nil
}

// probeInference times the f64 reference session on a full 16-tile batch,
// held-out evaluation, and whole-scene in-process inference.
func probeInference(_ params, layers map[string]float64) error {
	samples, err := probeSamples(32)
	if err != nil {
		return err
	}
	tiles := make([]*raster.RGB, core.DefaultInferenceBatch)
	for i := range tiles {
		tiles[i] = samples[i].Image
	}
	m64, err := unet.New[float64](unet.FastConfig(probeSeed))
	if err != nil {
		return err
	}
	sess := m64.NewPredictor()
	if layers["unet.predict_ms.f64"], err = timeMs(5, func() error { _, err := sess.PredictTiles(tiles); return err }); err != nil {
		return err
	}
	m32, err := unet.New[float32](unet.FastConfig(probeSeed))
	if err != nil {
		return err
	}
	evalMs, err := timeMs(2, func() error { _, err := train.Evaluate(m32, samples); return err })
	if err != nil {
		return err
	}
	layers["train.eval_tiles_per_s"] = float64(len(samples)) / (evalMs / 1e3)
	sc, err := probeScene()
	if err != nil {
		return err
	}
	build := dataset.DefaultBuild()
	layers["core.infer_scene_ms"], err = timeMs(3, func() error {
		_, err := core.Inference(m32, sc.Image, serveTile, build)
		return err
	})
	return err
}

// probeGemm times the GEMM kernels on a conv-shaped product: 16×72 weights
// against the im2col matrix of a batch of 8 32² tiles.
func probeGemm(_ params, layers map[string]float64) error {
	const m, k, n = 16, 72, 8 * serveTile * serveTile
	var err error
	if layers["tensor.gemm_gflops.f32"], err = gemmGflops[float32](m, k, n); err != nil {
		return err
	}
	if layers["tensor.gemm_gflops.f64"], err = gemmGflops[float64](m, k, n); err != nil {
		return err
	}
	// The int8 product of the mid-encoder conv (k padded to the kernels' 32).
	const rows, kq, npx = 16, 160, 1024
	w := make([]int8, rows*kq)
	x := make([]uint8, npx*kq)
	for i := range w {
		w[i] = int8(i%15 - 7)
	}
	for i := range x {
		x[i] = uint8(i % 127)
	}
	out := make([]int32, rows*npx)
	ops := tensor.Int8()
	elapsed, err := timeMs(50, func() error { ops.GemmU8S8(w, x, rows, kq, npx, out); return nil })
	layers["tensor.gemm_int8_gops"] = 2 * float64(rows*kq*npx) / (elapsed / 1e3) / 1e9
	return err
}

func gemmGflops[S tensor.Scalar](m, k, n int) (float64, error) {
	a, b, dst := tensor.New[S](m, k), tensor.New[S](k, n), tensor.New[S](m, n)
	for i := range a.Data {
		a.Data[i] = S(i%17)*0.25 - 1
	}
	for i := range b.Data {
		b.Data[i] = S(i%13)*0.125 - 0.5
	}
	elapsed, err := timeMs(10, func() error { tensor.MatMulInto(dst, a, b); return nil })
	return 2 * float64(m*k*n) / (elapsed / 1e3) / 1e9, err
}

// flopsPerTile computes — it does not measure — the forward pass's
// floating-point operations on one size² tile, two per multiply-add, from
// the architecture Config describes: per level two 3×3 convolutions down,
// a 2×2 up-convolution and two 3×3 convolutions up, and a 1×1 head.
func flopsPerTile(cfg unet.Config, size int) float64 {
	conv := func(k, in, out, side int) float64 { return 2 * float64(k*k*in*out*side*side) }
	var total float64
	in, ch, side := cfg.InChannels, cfg.BaseChannels, size
	for l := 0; l < cfg.Depth; l++ {
		total += conv(3, in, ch, side) + conv(3, ch, ch, side)
		in, ch, side = ch, ch*2, side/2
	}
	total += conv(3, in, ch, side) + conv(3, ch, ch, side) // bottleneck
	for l := cfg.Depth - 1; l >= 0; l-- {
		skip := cfg.BaseChannels << l
		// A 2×2 stride-2 up-convolution does one 2×2 product per input pixel.
		total += conv(2, ch, skip, side)
		side *= 2
		total += conv(3, 2*skip, skip, side) + conv(3, skip, skip, side)
		ch = skip
	}
	return total + conv(1, cfg.BaseChannels, cfg.Classes, size)
}

// Distributed: Horovod-style synchronous data-parallel U-Net training on
// simulated GPUs with a real ring all-reduce (§III-C1). The example shows
// (i) the ring all-reduce agreeing with a direct sum, (ii) multi-worker
// training staying bit-synchronized, and (iii) the calibrated DGX timing
// model projecting the paper's Table III speedups.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"log"

	"seaice/internal/dataset"
	"seaice/internal/ddp"
	"seaice/internal/perfmodel"
	"seaice/internal/pipeline"
	"seaice/internal/ring"
	"seaice/internal/scene"
	"seaice/internal/unet"
)

func main() {
	log.SetFlags(0)

	// 1. The ring all-reduce itself.
	vectors := [][]float64{
		{1, 2, 3, 4},
		{10, 20, 30, 40},
		{100, 200, 300, 400},
	}
	if err := ring.AllReduceMean(vectors); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ring all-reduce mean across 3 ranks: %v\n\n", vectors[0])

	// 2. Real distributed training on a small auto-labeled dataset,
	// streamed through the sharded pipeline (generation, filtering, and
	// labeling run as overlapped stages; the output is byte-identical
	// to the batch dataset.Build reference the pipeline tests hold it
	// to).
	cc := scene.DefaultCollection(7)
	cc.Scenes = 2
	cc.W, cc.H = 128, 128
	build := dataset.DefaultBuild()
	build.TileSize = 16
	builder := pipeline.StreamBuilder{Config: pipeline.Config{Build: build}}
	set, err := builder.BuildSet(pipeline.CollectionSource{Cfg: cc})
	if err != nil {
		log.Fatal(err)
	}
	samples := dataset.Samples(dataset.Subsample(set.Tiles, 24, 1), dataset.OriginalImages, dataset.AutoLabels)

	modelCfg := unet.Config{Depth: 2, BaseChannels: 4, InChannels: 3, Classes: 3, DropoutRate: 0, Seed: 11}
	trainer, err := ddp.New[float64](modelCfg, ddp.Config{
		Workers:        4,
		BatchPerWorker: 3,
		Epochs:         3,
		LR:             0.01,
		Seed:           5,
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := trainer.Fit(samples)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("4-worker training: loss %.4f → %.4f in %.2f s\n\n",
		res.Epochs[0].Loss, res.Epochs[len(res.Epochs)-1].Loss, res.RealTotal)

	// 3. The Table III projection, from the calibrated DGX model.
	dgx := perfmodel.PaperDGX()
	fmt.Println("projected Table III (50 epochs on the paper's DGX A100):")
	fmt.Println("GPUs  total(s)  s/epoch  img/s    speedup")
	for _, p := range []int{1, 2, 4, 6, 8} {
		fmt.Printf("%4d  %8.2f  %7.3f  %7.1f  %6.2fx\n",
			p, dgx.TotalTime(p, 50), dgx.EpochTime(p), dgx.Throughput(p, 3379), dgx.Speedup(p))
	}
}

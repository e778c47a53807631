package core

import (
	"math"
	"testing"

	"seaice/internal/dataset"
	"seaice/internal/raster"
	"seaice/internal/scene"
	"seaice/internal/train"
	"seaice/internal/unet"
)

func smallScenes(t *testing.T, n, size int) []*scene.Scene {
	t.Helper()
	cc := scene.DefaultCollection(31)
	cc.Scenes = n
	cc.W, cc.H = size, size
	scenes, err := scene.GenerateCollection(cc)
	if err != nil {
		t.Fatalf("scenes: %v", err)
	}
	return scenes
}

// TestRunTable1ModelMatchesPaper: the Table I harness must land within 3%
// of the paper's speedups, and the measured pool path must actually label
// the tiles.
func TestRunTable1ModelMatchesPaper(t *testing.T) {
	scenes := smallScenes(t, 1, 128)
	tiles, _, err := raster.Split(scenes[0].Image, 32, 32)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	imgs := make([]*raster.RGB, len(tiles))
	for i, tl := range tiles {
		imgs[i] = tl.Image
	}
	rows, err := RunTable1(imgs, true)
	if err != nil {
		t.Fatalf("table1: %v", err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows, want 5", len(rows))
	}
	for _, r := range rows {
		if math.Abs(r.ModelSpeedup-r.PaperSpeedup) > 0.03*r.PaperSpeedup {
			t.Errorf("procs=%d: model speedup %.2f vs paper %.2f", r.Processes, r.ModelSpeedup, r.PaperSpeedup)
		}
		if r.MeasuredItems != len(imgs) || r.MeasuredTime <= 0 {
			t.Errorf("procs=%d: measurement missing", r.Processes)
		}
	}
}

// TestRunTable2SimMatchesPaper: every modeled Table II cell must land
// within 16% of the paper (the model's documented worst cell is ~15%),
// and the corner speedups must hit 9.0× / 16.25×.
func TestRunTable2SimMatchesPaper(t *testing.T) {
	rows := RunTable2()
	if len(rows) != 9 {
		t.Fatalf("%d rows, want 9", len(rows))
	}
	for _, r := range rows {
		if math.Abs(r.SimLoad-r.PaperLoad) > 0.16*r.PaperLoad {
			t.Errorf("%dx%d load: sim %.1f vs paper %.1f", r.Executors, r.Cores, r.SimLoad, r.PaperLoad)
		}
		if math.Abs(r.SimReduce-r.PaperReduce) > 0.16*r.PaperReduce {
			t.Errorf("%dx%d reduce: sim %.1f vs paper %.1f", r.Executors, r.Cores, r.SimReduce, r.PaperReduce)
		}
	}
	last := rows[len(rows)-1]
	if math.Abs(last.SimSpeedupReduce-16.25) > 1.0 {
		t.Errorf("4x4 reduce speedup %.2f, paper 16.25", last.SimSpeedupReduce)
	}
	if math.Abs(last.SimSpeedupLoad-9.0) > 0.6 {
		t.Errorf("4x4 load speedup %.2f, paper 9.0", last.SimSpeedupLoad)
	}
}

// TestRunTable3SimMatchesPaper: the Table III harness must reproduce the
// paper's speedup column within 4% while running real ring-all-reduce
// training underneath.
func TestRunTable3SimMatchesPaper(t *testing.T) {
	scenes := smallScenes(t, 1, 64)
	set := buildTinySet(t, scenes)
	rows, err := RunTable3(Table3Config{
		Samples: set,
		Model:   unet.Config{Depth: 2, BaseChannels: 4, InChannels: 3, Classes: 3, DropoutRate: 0, Seed: 2},
		Epochs:  50, RealEpochs: 1, BatchPer: 2, LR: 0.01, Seed: 3,
	})
	if err != nil {
		t.Fatalf("table3: %v", err)
	}
	if len(rows) != 5 {
		t.Fatalf("%d rows, want 5", len(rows))
	}
	for _, r := range rows {
		if math.Abs(r.SimSpeedup-r.PaperSpeedup) > 0.04*r.PaperSpeedup {
			t.Errorf("gpus=%d: sim speedup %.2f vs paper %.2f", r.GPUs, r.SimSpeedup, r.PaperSpeedup)
		}
		if math.Abs(r.SimTotal-r.PaperTotal) > 0.05*r.PaperTotal {
			t.Errorf("gpus=%d: sim total %.1f vs paper %.1f", r.GPUs, r.SimTotal, r.PaperTotal)
		}
		if r.FinalLoss <= 0 || math.IsNaN(r.FinalLoss) {
			t.Errorf("gpus=%d: no real training happened (loss %f)", r.GPUs, r.FinalLoss)
		}
	}
}

// buildTinySet assembles a minimal sample set for harness tests.
func buildTinySet(t *testing.T, scenes []*scene.Scene) []train.Sample {
	t.Helper()
	build := dataset.DefaultBuild()
	build.TileSize = 16
	set, err := dataset.Build(scenes, build)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	tiles := dataset.Subsample(set.Tiles, 16, 1)
	return dataset.Samples(tiles, dataset.OriginalImages, dataset.AutoLabels)
}

// Command seaice-pipeline orchestrates the paper's full parallel
// workflow end to end — sharded scene catalog → concurrent thin-cloud
// filtering and auto-labeling → tiling → streamed U-Net training →
// evaluation — with the stages overlapped: training consumes its first
// batches while later shards are still being labeled, which is the
// pipelining the paper runs across nodes (§III).
//
// Every stage is resumable when -state names a directory: labeled shards
// are checkpointed as they complete (and restored on the next run), the
// trained model is saved to <state>/model.ckpt and reloaded instead of
// retrained, and the evaluation report is written to <state>/eval.txt.
//
// Usage:
//
//	seaice-pipeline -scenes 16 -epochs 6 -shards 4 -procs 4
//	seaice-pipeline -state run1 -scenes 66 -size 512 -tile 64   # resumable
//	seaice-pipeline -state run1 ...                             # resumes
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"seaice/internal/dataset"
	"seaice/internal/labeler"
	"seaice/internal/pipeline"
	"seaice/internal/pool"
	"seaice/internal/scene"
	"seaice/internal/train"
	"seaice/internal/unet"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("seaice-pipeline: ")

	var (
		preset     = flag.String("preset", "fast", "model preset: fast | paper")
		scenes     = flag.Int("scenes", 12, "scenes in the campaign")
		size       = flag.Int("size", 256, "scene size")
		tile       = flag.Int("tile", 32, "tile size")
		labels     = flag.String("labels", "auto", "training labels: manual | auto")
		labSpec    = flag.String("labeler", "hsv", "auto-labeling engine: hsv|kmeans|gmm[:k]")
		epochs     = flag.Int("epochs", 8, "training epochs")
		batch      = flag.Int("batch", 8, "batch size")
		lr         = flag.Float64("lr", 0.01, "Adam learning rate")
		trainFrac  = flag.Float64("train-frac", 0.8, "train/test split fraction")
		maxTiles   = flag.Int("max-tiles", 256, "cap on training tiles (0 = all)")
		testTiles  = flag.Int("test-tiles", 128, "cap on held-out tiles (0 = all)")
		seed       = flag.Uint64("seed", 7, "seed")
		shards     = flag.Int("shards", 0, "scene shards (0 = one per two workers)")
		workers    = flag.Int("workers", 0, "label-stage workers (0 = kernel pool size)")
		prefetch   = flag.Int("prefetch", 2, "bounded prefetch depth between stages")
		state      = flag.String("state", "", "state directory for resumable per-stage checkpoints")
		ckpt       = flag.String("ckpt", "", "model checkpoint path (default <state>/model.ckpt or unet.ckpt)")
		procs      = flag.Int("procs", 0, "worker threads for the compute kernels (0 = all cores)")
		quarantine = flag.Bool("quarantine", false, "drop scenes that stay poisoned through retries into a report instead of failing the run")
		verify     = flag.Bool("verify-state", false, "scrub mode: verify the -state directory's on-disk integrity (shard checkpoints, model checkpoint), report per section, and exit")
	)
	flag.Parse()
	if *verify {
		if *state == "" {
			log.Fatal("-verify-state requires -state <dir>")
		}
		verifyState(*state, *ckpt)
		return
	}
	if err := train.CheckLR(*lr); err != nil {
		log.Fatal(err)
	}
	pool.SetSharedWorkers(*procs)
	log.Printf("compute kernels: %d workers", pool.Shared().Workers())

	var modelCfg unet.Config
	switch *preset {
	case "fast":
		modelCfg = unet.FastConfig(*seed)
	case "paper":
		modelCfg = unet.PaperConfig(*seed)
	default:
		log.Fatalf("unknown preset %q", *preset)
	}
	if *tile < modelCfg.MinInputSize() {
		log.Fatalf("tile size %d below the %s preset's minimum %d", *tile, *preset, modelCfg.MinInputSize())
	}
	var labKind dataset.LabelKind
	switch *labels {
	case "manual":
		labKind = dataset.ManualLabels
	case "auto":
		labKind = dataset.AutoLabels
	default:
		log.Fatalf("unknown label kind %q", *labels)
	}

	modelPath := *ckpt
	shardDir, evalPath := "", ""
	if *state != "" {
		if err := os.MkdirAll(*state, 0o755); err != nil {
			log.Fatal(err)
		}
		shardDir = filepath.Join(*state, "shards")
		evalPath = filepath.Join(*state, "eval.txt")
		if modelPath == "" {
			modelPath = filepath.Join(*state, "model.ckpt")
		}
	}
	if modelPath == "" {
		modelPath = "unet.ckpt"
	}

	cc := scene.DefaultCollection(*seed)
	cc.Scenes = *scenes
	cc.W, cc.H = *size, *size

	build := dataset.DefaultBuild()
	build.TileSize = *tile
	eng, err := labeler.Parse(*labSpec, *seed)
	if err != nil {
		log.Fatal(err)
	}
	build.Labeler = eng

	plan := &pipeline.TrainPlan{
		TrainFrac: *trainFrac, SplitSeed: *seed,
		TrainTiles: *maxTiles, TrainSeed: *seed,
		TestTiles: *testTiles, TestSeed: *seed + 1,
		Image: dataset.OriginalImages, Labels: labKind,
		BatchSize: *batch, BatchSeed: *seed,
	}
	st, err := pipeline.New(pipeline.CollectionSource{Cfg: cc}, pipeline.Config{
		Build:         build,
		Shards:        *shards,
		Workers:       *workers,
		Prefetch:      *prefetch,
		CheckpointDir: shardDir,
		Quarantine:    *quarantine,
		Plan:          plan,
		Progress: func(ev pipeline.Event) {
			switch ev.Kind {
			case "resume":
				log.Printf("label: shard %d/%d restored from checkpoint", ev.Shard+1, ev.Shards)
			case "quarantine":
				log.Printf("label: poisoned scene on shard %d/%d quarantined", ev.Shard+1, ev.Shards)
			case "shard":
				log.Printf("label: shard %d/%d done (%d/%d scenes)", ev.Shard+1, ev.Shards, ev.ScenesDone, ev.Scenes)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	// Stage: train — streamed, overlapping with labeling — unless a
	// model checkpoint from an identical configuration already exists
	// under -state. The key file ties the checkpoint to every flag that
	// shapes the trained weights, mirroring the fingerprint guard on
	// shard checkpoints: a stale or mismatched model retrains instead of
	// being silently reported as the requested configuration.
	modelKey := fmt.Sprintf("preset=%s seed=%d scenes=%d size=%d tile=%d labels=%s labeler=%s epochs=%d batch=%d lr=%g train-frac=%g max-tiles=%d",
		*preset, *seed, *scenes, *size, *tile, *labels, build.LabelerKey(), *epochs, *batch, *lr, *trainFrac, *maxTiles)
	keyPath := modelPath + ".key"
	var model *unet.Model[float64]
	if prev, readErr := os.ReadFile(keyPath); *state != "" && readErr == nil && string(prev) == modelKey {
		model, err = unet.LoadFile[float64](modelPath)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("train: resumed model from %s", modelPath)
	} else {
		if *state != "" && readErr == nil {
			log.Printf("train: %s was trained with different flags (%s); retraining", modelPath, string(prev))
		}
		batches, err := st.TrainBatches()
		if err != nil {
			log.Fatal(err)
		}
		model, err = unet.New[float64](modelCfg)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, err := train.FitStream(model, batches, train.Config{
			Epochs: *epochs, BatchSize: *batch, LR: *lr, Seed: *seed,
			Progress: func(epoch int, loss float64) {
				log.Printf("train: epoch %d loss %.4f", epoch, loss)
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		log.Printf("train: %d steps in %s (streamed; first batches consumed while later shards labeled)",
			res.Steps, elapsed.Round(time.Millisecond))
		if err := model.SaveFile(modelPath); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(keyPath, []byte(modelKey), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("train: checkpoint written to %s", modelPath)
	}
	if err := st.CheckpointErr(); err != nil {
		log.Printf("warning: %v", err)
	}
	for _, q := range st.Quarantined() {
		log.Printf("quarantine: scene %d dropped — %s", q.Scene, q.Reason)
	}

	// Stage: eval — held-out tiles, filtered imagery, manual labels.
	heldOut, err := st.TestTiles()
	if err != nil {
		log.Fatal(err)
	}
	conf, err := train.Evaluate(model, dataset.Samples(heldOut, dataset.FilteredImages, dataset.ManualLabels))
	if err != nil {
		log.Fatal(err)
	}
	report := fmt.Sprintf("validation accuracy (filtered imagery, manual labels, %d tiles): %.2f%%\n%s",
		len(heldOut), 100*conf.Accuracy(), conf)
	fmt.Print(report)
	if evalPath != "" {
		if err := os.WriteFile(evalPath, []byte(report), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("eval: report written to %s", evalPath)
	}
}

// verifyState is the -verify-state scrub mode: it checks every on-disk
// artifact under the state directory — each shard checkpoint's
// checksummed layout and the model checkpoint's decodability — printing
// a per-section report and exiting non-zero if anything fails to verify.
func verifyState(state, ckpt string) {
	bad := false

	shardDir := filepath.Join(state, "shards")
	paths, _ := filepath.Glob(filepath.Join(shardDir, "shard-*.gob"))
	if len(paths) == 0 {
		fmt.Printf("shards: none found under %s\n", shardDir)
	}
	for _, p := range paths {
		scenes, tiles, err := pipeline.VerifyShardFile(p)
		if err != nil {
			fmt.Printf("shard %s: CORRUPT — %v\n", filepath.Base(p), err)
			bad = true
			continue
		}
		fmt.Printf("shard %s: OK — header ok, CRC ok, %d scenes, %d tiles\n", filepath.Base(p), scenes, tiles)
	}

	modelPath := ckpt
	if modelPath == "" {
		modelPath = filepath.Join(state, "model.ckpt")
	}
	if _, err := os.Stat(modelPath); err != nil {
		fmt.Printf("model %s: absent\n", modelPath)
	} else if _, err := unet.LoadFile[float64](modelPath); err != nil {
		fmt.Printf("model %s: CORRUPT — %v\n", modelPath, err)
		bad = true
	} else {
		fmt.Printf("model %s: OK\n", modelPath)
	}

	if bad {
		log.Fatalf("state directory %s failed verification", state)
	}
}

// Command seaice-train trains a U-Net sea-ice classifier on a synthetic
// campaign with Horovod-style synchronous data parallelism over simulated
// GPUs (§III-C): one trainer (internal/ddp) at every world size, the
// single-GPU baseline being the same program at -workers 1. It saves a
// checkpoint usable by seaice-infer. The dataset is produced by the
// streaming pipeline (internal/pipeline), whose stage workers generate,
// filter and auto-label scenes concurrently.
//
// Every stage is resumable when -state names a directory: labeled shards
// are checkpointed as they complete (and restored on the next run), the
// trained model is saved to <state>/model.ckpt and reloaded instead of
// retrained while its .key file matches the flags that shape the
// weights, and the evaluation report is written to <state>/eval.txt.
//
// Training defaults to float32 mixed precision (float32 compute with
// float64 master weights in Adam) — the bandwidth-saving path; pass
// -precision f64 for the bit-exact master/reference engine.
//
// Training is elastic and fault tolerant: -chaos injects a seeded,
// deterministic fault schedule (replica crashes, process kills, stage
// panics, stragglers — see internal/chaos) that the stack recovers from
// with bit-identical results; -snapshot persists mid-epoch snapshots so
// a killed run resumes exactly with -resume.
//
// Usage:
//
//	seaice-train -preset fast -epochs 8 -labels auto -ckpt unet-auto.ckpt
//	seaice-train -workers 4 -epochs 4          # distributed (ring all-reduce)
//	seaice-train -preset paper -epochs 1       # full 28-conv-layer variant
//	seaice-train -precision f64                # float64 reference numerics
//	seaice-train -quantize -ckpt unet.q.ckpt   # checkpoint with its int8 calibration table
//	seaice-train -workers 4 -chaos "7:crash@3:r1,crash@9" -snapshot unet.snap
//	seaice-train -snapshot unet.snap -resume   # continue a killed run
//	seaice-train -workers 3 -guard skip -chaos "7:nanstep@4:r1"  # roll back injected NaN grads
//	seaice-train -verify-snapshot unet.snap    # scrub on-disk snapshot integrity
//	seaice-train -state run1 -scenes 66 -size 512 -tile 64   # resumable per stage
//	seaice-train -state run1 -scenes 66 -size 512 -tile 64   # resumes
//	seaice-train -verify-state -state run1     # scrub the state directory
//
// With -peers, the same data-parallel run executes across real processes
// over TCP (internal/transport): each process is one rank, the ring
// collectives go over the wire, and the result is byte-identical to the
// in-process run at the same world size — every mode prints a
// "weights sha256" fingerprint to prove it. Network faults (part, drop,
// slow, reconn from internal/chaos) are recovered transparently;
// snapshots are rank-local files, so a killed cluster resumes across
// machines:
//
//	seaice-train -peers 127.0.0.1:7701,127.0.0.1:7702 -rank 0 &
//	seaice-train -peers 127.0.0.1:7701,127.0.0.1:7702 -rank 1
package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"seaice/internal/chaos"
	"seaice/internal/dataset"
	"seaice/internal/ddp"
	"seaice/internal/labeler"
	"seaice/internal/nn"
	"seaice/internal/pipeline"
	"seaice/internal/pool"
	"seaice/internal/raster"
	"seaice/internal/scene"
	"seaice/internal/tensor"
	"seaice/internal/train"
	"seaice/internal/transport"
	"seaice/internal/unet"
)

// options carries the parsed flags into the precision-generic run.
type options struct {
	precision   string
	procs       int
	chaosSpec   string
	verifySnap  string
	verifyState bool

	preset   string
	scenes   int
	size     int
	tile     int
	labels   string
	labSpec  string
	focal    *nn.FocalParams
	epochs   int
	batch    int
	lr       float64
	workers  int
	maxTiles int
	seed     uint64
	ckpt     string

	chaos     *chaos.Injector
	elastic   bool
	snapshot  string
	snapEvery int
	snapKeep  int
	resume    bool
	quantize  bool
	guard     train.GuardConfig

	// state, when set, is the directory of per-stage resume artifacts:
	// shard checkpoints, the model and its key, and the eval report.
	state      string
	quarantine bool

	// Network data parallelism: peers lists every rank's host:port (this
	// process listens on peers[rank] and is one rank of a real
	// multi-process cluster).
	peers     []string
	rank      int
	clusterID string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("seaice-train: ")

	o, err := parseFlags(os.Args[1:], flag.ExitOnError)
	if err != nil {
		log.Fatal(err)
	}
	if o.verifySnap != "" {
		verifySnapshot(o.verifySnap, o.snapKeep)
		return
	}
	if o.verifyState {
		verifyState(o.state, o.ckpt)
		return
	}
	pool.SetSharedWorkers(o.procs)
	log.Printf("training engine: %d kernel workers, %s precision", pool.Shared().Workers(), o.precision)
	if o.chaos != nil {
		log.Printf("chaos: injecting %d seeded faults (%s)", o.chaos.Remaining(), o.chaosSpec)
	}
	if o.precision == "f32" {
		run[float32](o, true)
	} else {
		run[float64](o, false)
	}
}

// parseFlags parses the command line and checks everything about it that
// can be checked before any work starts; main exits on its error. With
// -verify-snapshot only the rotation depth matters and nothing else is
// validated; -verify-state needs -state and nothing else.
func parseFlags(args []string, onError flag.ErrorHandling) (options, error) {
	var o options
	fs := flag.NewFlagSet("seaice-train", onError)
	fs.StringVar(&o.precision, "precision", "f32", "compute precision: f32 (mixed, f64 master weights) | f64 (reference)")
	fs.IntVar(&o.procs, "procs", 0, "worker threads for the training engine's kernels (0 = all cores)")
	fs.StringVar(&o.chaosSpec, "chaos", "", `deterministic fault schedule, e.g. "7:crash@3:r1,kill@9" (see internal/chaos)`)
	peersSpec := fs.String("peers", "", "comma-separated host:port list of every rank — run this process as one rank of a TCP cluster")
	fs.IntVar(&o.rank, "rank", 0, "this process's rank within -peers")
	fs.StringVar(&o.clusterID, "cluster-id", "seaice", "cluster identity checked during the transport handshake")
	fs.StringVar(&o.preset, "preset", "fast", "model preset: fast | paper")
	fs.IntVar(&o.scenes, "scenes", 12, "scenes in the training campaign")
	fs.IntVar(&o.size, "size", 256, "scene size")
	fs.IntVar(&o.tile, "tile", 32, "tile size")
	fs.StringVar(&o.labels, "labels", "auto", "training labels: manual | auto")
	fs.StringVar(&o.labSpec, "labeler", "hsv", "auto-labeling engine: hsv|kmeans|gmm[:k]")
	focalSpec := fs.String("focal", "", `train with focal loss: "gamma" or "gamma:a0,a1,a2" per-class alphas (e.g. 2 or 2:0.25,1,0.5); empty = cross-entropy`)
	fs.IntVar(&o.epochs, "epochs", 8, "training epochs")
	fs.IntVar(&o.batch, "batch", 8, "batch size per worker")
	fs.Float64Var(&o.lr, "lr", 0.01, "Adam learning rate")
	fs.IntVar(&o.workers, "workers", 1, "simulated GPUs for distributed training")
	fs.IntVar(&o.maxTiles, "max-tiles", 256, "cap on training tiles (0 = all)")
	fs.Uint64Var(&o.seed, "seed", 7, "seed")
	fs.StringVar(&o.ckpt, "ckpt", "", "checkpoint output path (default <state>/model.ckpt or unet.ckpt)")
	fs.StringVar(&o.state, "state", "", "state directory for resumable per-stage checkpoints")
	fs.BoolVar(&o.quarantine, "quarantine", false, "drop scenes that stay poisoned through retries into a report instead of failing the run")
	fs.BoolVar(&o.verifyState, "verify-state", false, "scrub mode: verify the -state directory's on-disk integrity (shard checkpoints, model checkpoint), report per section, and exit")
	fs.BoolVar(&o.elastic, "elastic", false, "continue degraded over survivors after a crash instead of heal-and-retry")
	fs.StringVar(&o.snapshot, "snapshot", "", "persist mid-epoch training snapshots to this file (enables -resume)")
	fs.IntVar(&o.snapEvery, "snapshot-every", 0, "steps between snapshots (0 = every 8)")
	fs.IntVar(&o.snapKeep, "snapshot-keep", 0, "snapshot rotation depth: newest plus keep-1 fallback generations (0 = 2)")
	fs.BoolVar(&o.resume, "resume", false, "resume from the -snapshot file's newest verifiable rotation entry")
	guardSpec := fs.String("guard", "", `numeric anomaly guard: "skip" or "abort", optionally ":maxnorm" (e.g. skip:1e3); empty = off`)
	fs.StringVar(&o.verifySnap, "verify-snapshot", "", "scrub mode: verify the integrity of this snapshot file (and its rotation entries), report per section, and exit")
	fs.BoolVar(&o.quantize, "quantize", false, "post-training-quantize: calibrate on training tiles and write a quantized checkpoint (serves f64, f32, and int8)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	// Resolve the rotation depth here, once: save rotation, resume
	// fallback, and -verify-snapshot must all walk the same number of
	// generations, and ddp only normalizes the value carried in its
	// Config — the load paths take the depth as a bare argument.
	if o.snapKeep <= 0 {
		o.snapKeep = ddp.DefaultSnapshotKeep
	}
	if o.ckpt == "" {
		o.ckpt = "unet.ckpt"
		if o.state != "" {
			o.ckpt = filepath.Join(o.state, "model.ckpt")
		}
	}
	if o.verifySnap != "" {
		return o, nil
	}
	if o.verifyState {
		if o.state == "" {
			return o, errors.New("-verify-state requires -state <dir>")
		}
		return o, nil
	}
	var err error
	if o.guard, err = train.ParseGuard(*guardSpec); err != nil {
		return o, err
	}
	if o.focal, err = parseFocal(*focalSpec); err != nil {
		return o, err
	}
	if err := train.CheckLR(o.lr); err != nil {
		return o, err
	}
	for _, f := range []struct {
		name string
		v    int
	}{{"epochs", o.epochs}, {"batch", o.batch}, {"workers", o.workers}} {
		if f.v < 1 {
			return o, fmt.Errorf("-%s %d: must be at least 1", f.name, f.v)
		}
	}
	if *peersSpec != "" {
		for _, p := range strings.Split(*peersSpec, ",") {
			if p = strings.TrimSpace(p); p != "" {
				o.peers = append(o.peers, p)
			}
		}
		if o.rank < 0 || o.rank >= len(o.peers) {
			return o, fmt.Errorf("-rank %d outside -peers list of %d", o.rank, len(o.peers))
		}
		// In net mode the world size is the peer list; -workers must
		// agree when set.
		if o.workers != 1 && o.workers != len(o.peers) {
			return o, fmt.Errorf("-workers %d conflicts with %d -peers (omit -workers in net mode)", o.workers, len(o.peers))
		}
		o.workers = len(o.peers)
	} else {
		o.rank = 0 // -rank names a position within -peers only
	}
	if o.chaosSpec != "" {
		sched, err := chaos.Parse(o.chaosSpec)
		if err != nil {
			return o, err
		}
		o.chaos = chaos.New(sched, o.workers)
		if len(o.peers) > 0 {
			// Stage and serve panics live in other subsystems of a
			// single process (ddp.NewNet rejects the replica-crash kind).
			for _, k := range []chaos.Kind{chaos.StagePanic, chaos.ServePanic} {
				if o.chaos.Count(k) > 0 {
					return o, fmt.Errorf("chaos kind %q is in-process only and cannot be injected in -peers mode", k)
				}
			}
		}
	}
	if o.resume && o.snapshot == "" {
		return o, errors.New("-resume requires -snapshot <path>")
	}
	if o.state != "" && len(o.peers) > 0 {
		return o, errors.New("-state is per process and cannot be combined with -peers")
	}
	if o.state != "" && o.quantize {
		return o, errors.New("-state resumes a float checkpoint and cannot be combined with -quantize")
	}
	if o.precision != "f32" && o.precision != "f64" {
		return o, fmt.Errorf("unknown precision %q (want f32 or f64)", o.precision)
	}
	return o, nil
}

// run executes the whole train → evaluate → checkpoint flow in the chosen
// compute precision. master enables float64 master weights in Adam (the
// mixed-precision default for f32; a no-op for f64).
func run[S tensor.Scalar](o options, master bool) {
	var modelCfg unet.Config
	switch o.preset {
	case "fast":
		modelCfg = unet.FastConfig(o.seed)
	case "paper":
		modelCfg = unet.PaperConfig(o.seed)
	default:
		log.Fatalf("unknown preset %q", o.preset)
	}
	if o.tile < modelCfg.MinInputSize() {
		log.Fatalf("tile size %d below the %s preset's minimum %d", o.tile, o.preset, modelCfg.MinInputSize())
	}

	var labKind dataset.LabelKind
	switch o.labels {
	case "manual":
		labKind = dataset.ManualLabels
	case "auto":
		labKind = dataset.AutoLabels
	default:
		log.Fatalf("unknown label kind %q", o.labels)
	}

	cc := scene.DefaultCollection(o.seed)
	cc.Scenes = o.scenes
	cc.W, cc.H = o.size, o.size

	// The streaming pipeline replaces the old generate-all → build-all
	// sequence: scenes are generated, filtered, and labeled by
	// concurrent stage workers. Split, subsample, and batch order are
	// byte-identical to the batch reference dataset.Build (see
	// internal/pipeline parity tests).
	build := dataset.DefaultBuild()
	build.TileSize = o.tile
	eng, err := labeler.Parse(o.labSpec, o.seed)
	if err != nil {
		log.Fatal(err)
	}
	build.Labeler = eng
	plan := &pipeline.TrainPlan{
		TrainFrac: 0.8, SplitSeed: o.seed,
		TrainTiles: o.maxTiles, TrainSeed: o.seed,
		TestTiles: 128, TestSeed: o.seed + 1,
		Image: dataset.OriginalImages, Labels: labKind,
		// The trainer shards each global batch over the ranks, so the
		// global batch is the planning unit.
		BatchSize: o.batch * o.workers, BatchSeed: o.seed,
	}
	// With chaos active, stage faults need a retry budget to be
	// recoverable rather than fatal — sized from the schedule, since a
	// spec may stack several faults on one scene.
	retries := o.chaos.Count(chaos.StagePanic)
	shardDir := ""
	if o.state != "" {
		if err := os.MkdirAll(o.state, 0o755); err != nil {
			log.Fatal(err)
		}
		shardDir = filepath.Join(o.state, "shards")
	}
	log.Printf("streaming %d scenes of %dx%d through filter/label/tile (%s labeling)…", o.scenes, o.size, o.size, eng.Name())
	st, err := pipeline.New(pipeline.CollectionSource{Cfg: cc}, pipeline.Config{
		Build:         build,
		Plan:          plan,
		Chaos:         o.chaos,
		Retries:       retries,
		CheckpointDir: shardDir,
		Quarantine:    o.quarantine,
		Progress: func(ev pipeline.Event) {
			switch ev.Kind {
			case "shard":
				log.Printf("labeled shard %d/%d (%d/%d scenes)", ev.Shard+1, ev.Shards, ev.ScenesDone, ev.Scenes)
			case "retry":
				log.Printf("stage fault on shard %d — retrying scene", ev.Shard+1)
			case "resume":
				log.Printf("shard %d/%d restored from checkpoint", ev.Shard+1, ev.Shards)
			case "quarantine":
				log.Printf("poisoned scene on shard %d/%d quarantined", ev.Shard+1, ev.Shards)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	key := modelKey(o, build.LabelerKey())
	model := resumeModel[S](o, key)
	resumed := model != nil
	if !resumed {
		model = trainModel[S](o, modelCfg, st, master)
	}
	if err := st.CheckpointErr(); err != nil {
		log.Printf("warning: %v", err)
	}
	for _, q := range st.Quarantined() {
		log.Printf("quarantine: scene %d dropped — %s", q.Scene, q.Reason)
	}

	// The deterministic weight fingerprint every mode logs (float64 bit
	// patterns of all parameters, in Params order) — the cross-process
	// identity check the cluster smoke test greps for.
	fmt.Printf("weights sha256: %x\n", weightsSHA(model))
	if o.rank != 0 {
		// Every rank finishes with identical weights; rank 0 owns
		// evaluation and the checkpoint.
		return
	}

	// Validate on held-out tiles against manual labels.
	testTiles, err := st.TestTiles()
	if err != nil {
		log.Fatal(err)
	}
	conf, err := train.Evaluate(model, dataset.Samples(testTiles, dataset.FilteredImages, dataset.ManualLabels))
	if err != nil {
		log.Fatal(err)
	}
	report := fmt.Sprintf("validation accuracy (filtered imagery, manual labels): %.2f%%\n%s\n", 100*conf.Accuracy(), conf)
	fmt.Print(report)
	if o.state != "" {
		evalPath := filepath.Join(o.state, "eval.txt")
		if err := os.WriteFile(evalPath, []byte(report), 0o644); err != nil {
			log.Fatal(err)
		}
		log.Printf("eval: report written to %s", evalPath)
	}

	if o.quantize {
		qm, err := quantizeTrained(model, st, o.batch)
		if err != nil {
			log.Fatal(err)
		}
		if err := qm.SaveFile(o.ckpt); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("quantized checkpoint written to %s — serves f64, f32, and int8\n", o.ckpt)
		return
	}
	if resumed {
		return
	}
	keyPath := o.ckpt + ".key"
	if o.state != "" {
		// The old key goes first: a run that dies between the two writes
		// must not pair it with the new weights.
		os.Remove(keyPath)
	}
	if err := model.SaveFile(o.ckpt); err != nil {
		log.Fatal(err)
	}
	if o.state != "" {
		if err := os.WriteFile(keyPath, []byte(key), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("checkpoint written to %s\n", o.ckpt)
}

// modelKey lists every flag that shapes the trained weights. Under -state
// it is written next to the checkpoint as <ckpt>.key, mirroring the
// fingerprint guard on shard checkpoints: a model trained with other
// flags retrains instead of being reported as the requested
// configuration.
func modelKey(o options, labelerKey string) string {
	return fmt.Sprintf("preset=%s seed=%d scenes=%d size=%d tile=%d labels=%s labeler=%s epochs=%d batch=%d lr=%g max-tiles=%d precision=%s workers=%d focal=%v guard=%v elastic=%t chaos=%q quarantine=%t",
		o.preset, o.seed, o.scenes, o.size, o.tile, o.labels, labelerKey, o.epochs, o.batch, o.lr, o.maxTiles,
		o.precision, o.workers, o.focal, o.guard, o.elastic, o.chaosSpec, o.quarantine)
}

// resumeModel loads the -state model when its key file matches key, and
// returns nil when there is nothing to resume: no -state, no key file, a
// key written with other flags, or a model file that is not a readable
// checkpoint (the last two it logs).
func resumeModel[S tensor.Scalar](o options, key string) *unet.Model[S] {
	if o.state == "" {
		return nil
	}
	prev, err := os.ReadFile(o.ckpt + ".key")
	if err != nil {
		return nil
	}
	if string(prev) != key {
		log.Printf("%s was trained with different flags (%s); retraining", o.ckpt, prev)
		return nil
	}
	model, err := unet.LoadFile[S](o.ckpt)
	if errors.Is(err, unet.ErrBadCheckpoint) {
		// Like a corrupt shard, an unreadable model is a cache miss.
		log.Printf("%s is unreadable (%v); retraining", o.ckpt, err)
		return nil
	}
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("resumed model from %s", o.ckpt)
	return model
}

// calibrationTileCap bounds the calibration pass: activation ranges
// saturate after a few dozen representative tiles, so running the whole
// campaign through the float engine again would be pure waste.
const calibrationTileCap = 128

// quantizeTrained rebuilds the float64 master from the trained model (a
// no-op copy for f64, the Adam master weights for f32), calibrates
// activation ranges over training tiles, and quantizes to int8.
func quantizeTrained[S tensor.Scalar](model *unet.Model[S], st *pipeline.Stream, batch int) (*unet.QuantModel, error) {
	master, err := unet.New[float64](model.Config())
	if err != nil {
		return nil, err
	}
	if err := master.SetWeightsF64(model.WeightsF64()); err != nil {
		return nil, err
	}
	samples, err := st.TrainSamples()
	if err != nil {
		return nil, err
	}
	if len(samples) > calibrationTileCap {
		samples = samples[:calibrationTileCap]
	}
	imgs := make([]*raster.RGB, len(samples))
	for i := range samples {
		imgs[i] = samples[i].Image
	}
	log.Printf("calibrating int8 activation ranges on %d training tiles", len(imgs))
	cal, err := unet.Calibrate(master, imgs, batch)
	if err != nil {
		return nil, err
	}
	return unet.Quantize(master, cal)
}

// trainModel trains a fresh model on the stream's training samples
// through the data-parallel trainer: every rank in this process, or —
// with -peers — this process as one rank of a TCP cluster whose ring
// collectives run over internal/transport. It is one trainer at every
// world size, so a cluster run is byte-identical to the in-process run
// at the same world size, across injected crashes, partitions, dropped
// frames and process kills; the two differ only in how the trainer gets
// its collective and where its snapshots go.
func trainModel[S tensor.Scalar](o options, modelCfg unet.Config, st *pipeline.Stream, master bool) *unet.Model[S] {
	nTrain, err := st.TrainLen()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("training on %d tiles (%s labels), %d epochs, preset %s (%d conv layers)",
		nTrain, o.labels, o.epochs, o.preset, modelCfg.NumConvLayers())
	who := "" // log prefix naming this process's rank of a cluster
	cfg := ddp.Config{
		Workers:        o.workers,
		BatchPerWorker: o.batch,
		Epochs:         o.epochs,
		LR:             o.lr,
		Seed:           o.seed,
		MasterWeights:  master,
		Focal:          o.focal,
		Chaos:          o.chaos,
		SnapshotPath:   o.snapshot,
		SnapshotEvery:  o.snapEvery,
		SnapshotKeep:   o.snapKeep,
		Guard:          o.guard,
		Elastic:        o.elastic,
		Progress: func(epoch int, loss float64) {
			log.Printf("%sepoch %d: loss %.4f", who, epoch, loss)
		},
	}
	var tr *ddp.Trainer[S]
	if len(o.peers) == 0 {
		tr, err = ddp.New[S](modelCfg, cfg)
	} else {
		who = fmt.Sprintf("rank %d/%d: ", o.rank, o.workers)
		if o.snapshot != "" {
			// Snapshots are rank-local: each process persists and resumes
			// its own file, as real machines would.
			cfg.SnapshotPath = fmt.Sprintf("%s.rank%d", o.snapshot, o.rank)
		}
		ringT, rerr := transport.NewRing(transport.Config{
			Rank:      o.rank,
			Peers:     o.peers,
			ClusterID: o.clusterID,
			Chaos:     o.chaos,
			Logf:      log.Printf,
		})
		if rerr != nil {
			log.Fatal(rerr)
		}
		coll := &transport.Collective[S]{R: ringT}
		defer coll.Close()
		log.Printf("%slistening on %s, cluster %q (reported losses are rank-local)", who, o.peers[o.rank], o.clusterID)
		tr, err = ddp.NewNet[S](modelCfg, cfg, coll)
	}
	if err != nil {
		log.Fatal(err)
	}
	samples, err := st.TrainSamples()
	if err != nil {
		log.Fatal(err)
	}
	if o.resume {
		snap, entry, err := ddp.LoadSnapshotFallback(cfg.SnapshotPath, o.snapKeep)
		if err != nil {
			log.Fatal(err)
		}
		if err := tr.Restore(snap); err != nil {
			log.Fatal(err)
		}
		log.Printf("%sresumed from %s at global step %d", who, entry, snap.Step)
	}
	res, err := tr.Fit(samples)
	for _, ev := range o.chaos.Events() {
		log.Printf("chaos: delivered %s", ev)
	}
	if errors.Is(err, ddp.ErrKilled) {
		hint := "no -snapshot was set, so the training state is lost (pass -snapshot PATH to make kills resumable)"
		switch {
		case o.snapshot != "" && o.elastic:
			// Elastic runs stop snapshotting once the complement
			// degrades, so a resume replays from the last
			// full-complement snapshot with every rank healed — a
			// different run than the degraded one that died.
			hint = "rerun with -resume added and -chaos dropped to restart from the last full-complement snapshot — elastic steps after it are not replayed"
		case o.snapshot != "":
			hint = "rerun with -resume added and the kill dropped from -chaos (or it re-arms and fires again) to continue bit-identically"
		}
		log.Fatalf("%srun killed by injected fault after %d committed steps; %s", who, res.Steps, hint)
	}
	if err != nil {
		log.Fatal(err)
	}
	if o.chaos != nil {
		log.Printf("%schaos: %d recoveries (%d by snapshot replay), %d stragglers absorbed, %d faults undelivered",
			who, res.Recoveries, res.Replays, res.Stalls, o.chaos.Remaining())
		if res.Anomalies > 0 {
			log.Printf("%sguard: %d gradient anomalies detected, %d updates skipped", who, res.Anomalies, res.GuardSkips)
		}
		if len(res.LostRanks) > 0 {
			log.Printf("%schaos: finished elastically without ranks %v", who, res.LostRanks)
		}
	}
	// Committed steps times their share of the epochs' tiles: exact for a
	// whole run, proportional for a resumed tail.
	steps := o.epochs * ((nTrain + o.batch*o.workers - 1) / (o.batch * o.workers))
	tiles := float64(nTrain*o.epochs) * float64(res.Steps) / float64(steps)
	log.Printf("%straining: %d ranks, %d committed steps in %.2f s (%.1f tiles/s)",
		who, o.workers, res.Steps, res.RealTotal, tiles/res.RealTotal)
	return tr.Replica(o.rank)
}

// verifySnapshot is the -verify-snapshot scrub mode: it checks every
// rotation entry of a snapshot file for on-disk integrity — header,
// length, CRC32C trailer, decodability, and numeric sanity of the
// decoded state — printing a per-section report and exiting non-zero if
// the newest entry (the one -resume would prefer) does not verify.
func verifySnapshot(path string, keep int) {
	bad := false
	for i := 0; i < keep; i++ {
		entry := ddp.RotationEntry(path, i)
		snap, err := ddp.LoadSnapshotFile(entry)
		if err != nil {
			switch {
			case errors.Is(err, ddp.ErrCorruptSnapshot):
				fmt.Printf("%s: CORRUPT — %v\n", entry, err)
				bad = bad || i == 0
			case errors.Is(err, ddp.ErrBadSnapshot):
				fmt.Printf("%s: MALFORMED — %v\n", entry, err)
				bad = bad || i == 0
			default:
				if i > 0 {
					continue // older generations simply absent
				}
				fmt.Printf("%s: UNREADABLE — %v\n", entry, err)
				bad = true
			}
			continue
		}
		params, nonFinite := 0, 0
		for _, w := range snap.Weights {
			params += len(w)
			for _, v := range w {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					nonFinite++
				}
			}
		}
		fmt.Printf("%s: OK — header ok, CRC ok, step %d, precision %s, %d ranks, %d weight values\n",
			entry, snap.Step, snap.Precision, len(snap.RNG), params)
		if nonFinite > 0 {
			fmt.Printf("%s: NUMERIC — %d non-finite weight values\n", entry, nonFinite)
			bad = bad || i == 0
		}
	}
	if bad {
		log.Fatalf("snapshot %s failed verification", path)
	}
}

// verifyState is the -verify-state scrub mode: it checks every on-disk
// artifact under the state directory — each shard checkpoint's
// checksummed layout and the model checkpoint's decodability — printing
// a per-section report and exiting non-zero if anything fails to verify.
func verifyState(state, modelPath string) {
	bad := false

	shardDir := filepath.Join(state, "shards")
	paths, _ := filepath.Glob(filepath.Join(shardDir, "shard-*.rec"))
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

// parseFocal parses the -focal spec: "" (nil — plain cross-entropy),
// "gamma", or "gamma:a0,a1,..." with one alpha per class.
func parseFocal(spec string) (*nn.FocalParams, error) {
	if spec == "" {
		return nil, nil
	}
	gammaStr, alphaStr, hasAlpha := strings.Cut(spec, ":")
	gamma, err := strconv.ParseFloat(gammaStr, 64)
	if err != nil || gamma < 0 {
		return nil, fmt.Errorf(`-focal %q: want "gamma" or "gamma:a0,a1,..." with gamma ≥ 0`, spec)
	}
	p := &nn.FocalParams{Gamma: gamma}
	if hasAlpha {
		for _, a := range strings.Split(alphaStr, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(a), 64)
			if err != nil || v < 0 {
				return nil, fmt.Errorf("-focal %q: bad alpha %q", spec, a)
			}
			p.Alpha = append(p.Alpha, v)
		}
		if len(p.Alpha) != int(raster.NumClasses) {
			return nil, fmt.Errorf("-focal %q: %d alphas for %d classes", spec, len(p.Alpha), raster.NumClasses)
		}
	}
	return p, nil
}

// weightsSHA hashes the model's parameters as float64 little-endian bit
// patterns in Params order — a render-independent fingerprint identical
// across precisions' master copies and across processes.
func weightsSHA[S tensor.Scalar](m *unet.Model[S]) []byte {
	h := sha256.New()
	var b [8]byte
	for _, p := range m.Params() {
		for _, v := range p.W.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(float64(v)))
			h.Write(b[:])
		}
	}
	return h.Sum(nil)
}

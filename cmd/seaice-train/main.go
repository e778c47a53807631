// Command seaice-train trains a U-Net sea-ice classifier on a synthetic
// campaign, either serially or with Horovod-style synchronous data
// parallelism over simulated GPUs (§III-C). It saves a checkpoint usable
// by seaice-infer. The dataset is fed through the streaming pipeline
// (internal/pipeline), so filtering and auto-labeling overlap training;
// cmd/seaice-pipeline exposes the full orchestration (sharding knobs,
// per-stage resume) on top of the same machinery.
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
//	seaice-train -quantize -ckpt unet.q.ckpt   # int8-calibrated v3 checkpoint
//	seaice-train -workers 4 -chaos "7:crash@3:r1,crash@9" -snapshot unet.snap
//	seaice-train -snapshot unet.snap -resume   # continue a killed run
//	seaice-train -workers 3 -guard skip -chaos "7:nanstep@4:r1"  # roll back injected NaN grads
//	seaice-train -verify-snapshot unet.snap    # scrub on-disk snapshot integrity
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
	"strconv"
	"strings"
	"time"

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
	precision  string
	procs      int
	chaosSpec  string
	verifySnap string

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
// validated.
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
	fs.IntVar(&o.batch, "batch", 8, "batch size (per worker when -workers > 1)")
	fs.Float64Var(&o.lr, "lr", 0.01, "Adam learning rate")
	fs.IntVar(&o.workers, "workers", 1, "simulated GPUs for distributed training")
	fs.IntVar(&o.maxTiles, "max-tiles", 256, "cap on training tiles (0 = all)")
	fs.Uint64Var(&o.seed, "seed", 7, "seed")
	fs.StringVar(&o.ckpt, "ckpt", "unet.ckpt", "checkpoint output path")
	fs.BoolVar(&o.elastic, "elastic", false, "continue degraded over survivors after a crash instead of heal-and-retry")
	fs.StringVar(&o.snapshot, "snapshot", "", "persist mid-epoch training snapshots to this file (enables -resume)")
	fs.IntVar(&o.snapEvery, "snapshot-every", 0, "steps between snapshots (0 = every 8)")
	fs.IntVar(&o.snapKeep, "snapshot-keep", 0, "snapshot rotation depth: newest plus keep-1 fallback generations (0 = 2)")
	fs.BoolVar(&o.resume, "resume", false, "resume from the -snapshot file's newest verifiable rotation entry")
	guardSpec := fs.String("guard", "", `numeric anomaly guard: "skip" or "abort", optionally ":maxnorm" (e.g. skip:1e3); empty = off`)
	fs.StringVar(&o.verifySnap, "verify-snapshot", "", "scrub mode: verify the integrity of this snapshot file (and its rotation entries), report per section, and exit")
	fs.BoolVar(&o.quantize, "quantize", false, "post-training-quantize: calibrate on training tiles and write a v3 quantized checkpoint (serves f64, f32, and int8)")
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
	if o.verifySnap != "" {
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
	// concurrent stage workers while training consumes its first
	// batches. Split, subsample, and batch order are byte-identical to
	// the legacy batch path (see internal/pipeline parity tests).
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
		BatchSize: o.batch, BatchSeed: o.seed,
	}
	// Fault-tolerant and multi-process runs always use the ddp trainer
	// (it owns the snapshot/recovery machinery), even at one worker. It
	// shards globally, so the global batch is the planning unit.
	useDDP := len(o.peers) > 0 || o.workers > 1 || o.chaos != nil || o.resume || o.snapshot != ""
	if useDDP {
		plan.BatchSize = o.batch * o.workers
	}
	// With chaos active, stage faults need a retry budget to be
	// recoverable rather than fatal — sized from the schedule, since a
	// spec may stack several faults on one scene.
	retries := o.chaos.Count(chaos.StagePanic)
	log.Printf("streaming %d scenes of %dx%d through filter/label/tile (%s labeling)…", o.scenes, o.size, o.size, eng.Name())
	st, err := pipeline.New(pipeline.CollectionSource{Cfg: cc}, pipeline.Config{
		Build:   build,
		Plan:    plan,
		Chaos:   o.chaos,
		Retries: retries,
		Progress: func(ev pipeline.Event) {
			switch ev.Kind {
			case "shard":
				log.Printf("labeled shard %d/%d (%d/%d scenes)", ev.Shard+1, ev.Shards, ev.ScenesDone, ev.Scenes)
			case "retry":
				log.Printf("stage fault on shard %d — retrying scene", ev.Shard+1)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	nTrain, err := st.TrainLen()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("training on %d tiles (%s labels), %d epochs, preset %s (%d conv layers)",
		nTrain, o.labels, o.epochs, o.preset, modelCfg.NumConvLayers())

	var model *unet.Model[S]
	if useDDP {
		model = runDDP[S](o, modelCfg, st, master)
	} else {
		batches, err := pipeline.TrainBatchesOf[S](st)
		if err != nil {
			log.Fatal(err)
		}
		model, err = unet.New[S](modelCfg)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		res, err := train.FitStream(model, batches, train.Config{
			Epochs: o.epochs, BatchSize: o.batch, LR: o.lr, Seed: o.seed,
			MasterWeights: master, Focal: o.focal,
			Progress: func(epoch int, loss float64) {
				log.Printf("epoch %d: loss %.4f", epoch, loss)
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		log.Printf("streamed training: %d steps in %s (%.1f ms/step, %.1f tiles/s)",
			res.Steps, elapsed.Round(time.Millisecond),
			float64(elapsed.Milliseconds())/float64(res.Steps),
			float64(nTrain*o.epochs)/elapsed.Seconds())
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
	fmt.Printf("validation accuracy (filtered imagery, manual labels): %.2f%%\n", 100*conf.Accuracy())
	fmt.Println(conf)

	if o.quantize {
		qm, err := quantizeTrained(model, st, o.batch)
		if err != nil {
			log.Fatal(err)
		}
		if err := qm.SaveFile(o.ckpt); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("quantized checkpoint (v3) written to %s — serves f64, f32, and int8\n", o.ckpt)
		return
	}
	if err := model.SaveFile(o.ckpt); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint written to %s\n", o.ckpt)
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

// runDDP trains through the data-parallel trainer: every rank in this
// process, or — with -peers — this process as one rank of a TCP cluster
// whose ring collectives run over internal/transport. It is one trainer
// either way, so a cluster run is byte-identical to the in-process run
// at the same world size, across injected crashes, partitions, dropped
// frames and process kills; the two differ only in how the trainer gets
// its collective and where its snapshots go.
func runDDP[S tensor.Scalar](o options, modelCfg unet.Config, st *pipeline.Stream, master bool) *unet.Model[S] {
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
	var err error
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
	log.Printf("%sdata-parallel training: %d ranks, %d committed steps in %.2f s",
		who, o.workers, res.Steps, res.RealTotal)
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

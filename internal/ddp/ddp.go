// Package ddp is the Horovod analogue: synchronous data-parallel U-Net
// training across N ranks with ring all-reduce gradient averaging
// (§III-C1). Every rank owns a full model replica — the stand-in for one
// GPU of the paper's DGX A100 — and every step follows Horovod's
// protocol:
//
//  1. rank 0 broadcasts initial weights (BroadcastGlobalVariables),
//  2. each rank computes gradients on its shard of the global batch,
//  3. gradients are averaged with the bandwidth-optimal ring all-reduce,
//  4. every rank applies an identical Adam update, keeping replicas
//     bit-synchronized.
//
// There is one trainer and it runs one program at any scale, as the
// paper's does from 1 to 8 GPUs. A Trainer hosts a set of ranks and
// drives each through a ring.Collective endpoint: New hosts all Workers
// ranks in this process as goroutines on ring.Local, NewNet hosts
// exactly one rank of a multi-process run on whatever collective it is
// given (transport's TCP ring in a real cluster). The Fit loop, the
// per-rank step body and the recovery machine are the same code in
// both, so rank r of a network run finishes byte-identical to replica r
// of the in-process run on the same data, for float64 and float32-mixed
// alike (asserted by the parity tests and the CI cluster-smoke job).
//
// Fault tolerance works at step granularity. Every step boundary
// captures a rollback state; any rank loss — an injected replica crash
// (internal/chaos, at exact global-step boundaries), a peer's broken
// connection, a partition, a dropped or corrupted frame — surfaces from
// the collective as *ring.RankError, and the trainer rolls its ranks
// back to the boundary, re-admits lost in-process ranks, rendezvouses
// through Collective.Reestablish, rewinds to the step the ring agreed on
// and retries. Every committed update is therefore executed exactly
// once with the full complement, which makes a faulted run
// **bit-identical** to a never-failed one (asserted by the chaos tests
// at 1, 3, and 4 workers and over TCP; float32-mixed runs too, since
// boundary states store exact float64 weights). Hosting every rank adds
// two abilities a lone rank of a cluster lacks:
//
//   - Heal: a crashed replica is re-admitted with weights and optimizer
//     state copied from a survivor; with no survivor left (the
//     single-worker case) every rank restores the latest snapshot and the
//     loop re-executes from it.
//   - Elastic (Config.Elastic): dead ranks stay dead; subsequent batches
//     are resharded over the survivors and gradients are averaged by a
//     ring rebuilt over them with re-chunked geometry. Throughput
//     degrades, the update sequence changes (documented, deterministic
//     given the fault schedule), and the run finishes instead of failing.
//
// Mid-epoch snapshots (model weights, Adam moments, master weights,
// each hosted rank's RNG position, and the batch cursor) are taken every
// Config.SnapshotEvery steps and optionally persisted (atomically) to
// Config.SnapshotPath; a process killed at any instant resumes from the
// last snapshot bit-identically, because training from any step boundary
// is a pure function of the snapshot state and the seeded batch
// schedule. A network run persists one rank-local snapshot per process.
//
// In-process ranks are real goroutines whose kernels share the worker
// pool, so wall clock scales with the host's cores (the benchmark's
// train.scaling_x probe measures it). The trainer measures and reports
// real seconds only; Table III's paper-scale DGX timing is a separate
// closed-form model (perfmodel.PaperDGX, read by core.RunTable3). The
// equivalence theorem "K-worker DDP step == single-model step on the
// merged batch" is verified in the tests.
//
// The trainer consumes materialized sample sets (each rank needs random
// access to its shard of every global batch); streaming callers
// materialize via pipeline.Stream.TrainSamples, which still overlaps
// labeling with scene generation upstream.
//
// The trainer is generic over the compute precision: float64 replicas
// reproduce the reference engine bit-for-bit, float32 replicas halve
// every ring hop's wire bytes and may enable float64 master weights
// (Config.MasterWeights) for mixed-precision stability; either
// instantiation is bit-deterministic across runs and worker counts.
package ddp

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"seaice/internal/chaos"
	"seaice/internal/nn"
	"seaice/internal/noise"
	"seaice/internal/ring"
	"seaice/internal/tensor"
	"seaice/internal/train"
	"seaice/internal/unet"
)

// DefaultSnapshotEvery is the snapshot cadence (in global steps) when
// Config.SnapshotEvery is unset.
const DefaultSnapshotEvery = 8

// ErrKilled reports a run aborted by an injected process-kill fault.
// The trainer state is abandoned mid-flight (as a real kill would leave
// it); resume by restoring the last snapshot into a fresh trainer.
var ErrKilled = errors.New("ddp: run killed by injected fault (resume from the last snapshot)")

// Config controls a distributed training run.
type Config struct {
	// Workers is the number of ranks — simulated GPUs — in the run (the
	// paper sweeps 1,2,4,6,8).
	Workers int
	// BatchPerWorker is the per-GPU batch size (paper: 32 per node).
	BatchPerWorker int
	Epochs         int
	LR             float64
	Seed           uint64
	// MasterWeights keeps float64 master copies of the weights in each
	// rank's Adam — the mixed-precision recipe for float32 replicas; it
	// has no effect on float64 replicas.
	MasterWeights bool
	// Focal, if non-nil, trains every replica with the focal loss at
	// these parameters instead of plain softmax cross-entropy; each
	// rank's criterion is stateless apart from scratch buffers, so
	// recovery and snapshot replay are unaffected.
	Focal *nn.FocalParams
	// Progress, if non-nil, receives each epoch's mean loss over the
	// hosted ranks.
	Progress func(epoch int, loss float64)

	// Chaos injects deterministic faults (replica crashes, process
	// kills, stragglers, NaN gradients, torn snapshot writes) at
	// global-step boundaries; nil disables injection. Real
	// (non-injected) replica errors — a failing
	// LossAndGrad — still abort the run: recovery is defined for worker
	// *loss*, where retrying is sound, not for compute errors, which
	// would recur deterministically on retry.
	Chaos *chaos.Injector
	// SnapshotEvery is the step cadence of mid-epoch snapshots; <= 0
	// uses DefaultSnapshotEvery. A snapshot is always taken at the first
	// step of a run (or resume), so snapshot-replay recovery is always
	// possible.
	SnapshotEvery int
	// SnapshotPath, when non-empty, persists each snapshot atomically to
	// this file, enabling kill-and-restart resume across processes.
	SnapshotPath string
	// SnapshotKeep is the on-disk snapshot rotation depth (the live file
	// plus SnapshotKeep-1 older generations); <= 0 uses
	// DefaultSnapshotKeep. Resume falls back to the newest generation
	// that passes its checksum, so one corrupt or torn write never
	// strands a run.
	SnapshotKeep int
	// Guard is the per-step numeric anomaly guard over the reduced
	// gradient vector (train.CheckGrads); the zero value disables it.
	// On anomaly the step is rolled back via RNG rewind and retried
	// once; a reproduced anomaly is skipped or aborts per the policy.
	Guard train.GuardConfig
	// Elastic (New only) switches recovery policy: instead of
	// heal-and-retry (bit-identical), dead ranks stay dead and training continues over
	// the survivors with resharded batches and a re-chunked survivor
	// ring. Deterministic given the fault schedule, but a different —
	// documented — update sequence than the no-fault run.
	Elastic bool
}

// EpochStat records one epoch's loss and wall-clock time.
type EpochStat struct {
	Loss        float64
	RealSeconds float64
}

// Result summarizes the run.
type Result struct {
	Epochs    []EpochStat
	RealTotal float64

	// Steps is the number of committed global steps this Fit executed
	// (excluding resumed-over steps, discarded attempts, and replays).
	Steps int
	// Recoveries counts replicas healed after a detected failure; for a
	// rank of a network run, the ring failures it recovered from.
	Recoveries int
	// Replays counts snapshot-replay recoveries (crashes with no
	// survivors, e.g. the single-worker case).
	Replays int
	// Stalls counts absorbed straggler delays.
	Stalls int
	// Anomalies counts gradient anomalies the numeric guard caught
	// (again, if a recovery re-executed the step); each was rolled back
	// before any weight was touched.
	Anomalies int
	// GuardSkips counts steps whose update was dropped by the skip
	// policy after an anomaly survived its rolled-back retry.
	GuardSkips int
	// LostRanks lists ranks still dead at exit (elastic mode only).
	LostRanks []int
}

// rank is one hosted member of the run: its replica, optimizer, ring
// endpoint, and the contiguous vector its parameters are packed into
// for the collectives (one chunked all-reduce per step instead of one
// serial ring per parameter), reused across steps.
type rank[S tensor.Scalar] struct {
	id    int
	coll  ring.Collective[S]
	model *unet.Model[S]
	opt   *nn.Adam[S]
	flat  []S
}

// Trainer runs the ranks of a data-parallel run that live in this
// process — all of them (New) or exactly one (NewNet) — generic over the
// compute precision of the replicas and the reduced gradient vectors
// (float32 halves the bytes every ring hop moves).
type Trainer[S tensor.Scalar] struct {
	cfg      Config
	modelCfg unet.Config
	// key fingerprints the configuration a resumed run must share with
	// the run that wrote a snapshot; the sample set is fingerprinted
	// separately (dataFP) because it exists only once Fit runs.
	key   string
	world int
	// ranks are the hosted ranks in ascending id order.
	ranks []*rank[S]
	// group is the ring membership. New shares it with the ring.Local
	// endpoints, so failing a rank here is how its peers lose it; under
	// NewNet peers are lost and regained inside the transport and every
	// member stays live.
	group *ring.Group
	// snap is the latest snapshot; startStep is the batch cursor a
	// restored trainer resumes from; restored marks that snap came from
	// Restore, so Fit must verify it against the sample set.
	snap      *Snapshot
	startStep int
	restored  bool
	dataFP    string
}

// New builds a trainer hosting all cfg.Workers ranks in this process,
// connected by ring.Local. The rank-0 replica is initialized from the
// model configuration; ranks 1..N-1 receive rank 0's weights.
func New[S tensor.Scalar](modelCfg unet.Config, cfg Config) (*Trainer[S], error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("ddp: workers %d", cfg.Workers)
	}
	group, err := ring.NewGroup(cfg.Workers)
	if err != nil {
		return nil, err
	}
	locals, err := ring.NewLocal[S](cfg.Workers, group)
	if err != nil {
		return nil, err
	}
	colls := make([]ring.Collective[S], len(locals))
	for r, l := range locals {
		colls[r] = l
	}
	t, err := newTrainer(modelCfg, cfg, group, colls)
	if err != nil {
		return nil, err
	}
	t.key = fmt.Sprintf("model %+v|workers %d|batch %d|epochs %d|lr %g|seed %d|master %t",
		modelCfg, cfg.Workers, cfg.BatchPerWorker, cfg.Epochs, cfg.LR, cfg.Seed, cfg.MasterWeights)
	// Fit broadcasts rank 0's weights again, as every rank of a network
	// run must; copying them here keeps Replica and Step meaningful on a
	// trainer that has not run Fit.
	for _, r := range t.ranks[1:] {
		if err := r.model.CopyWeightsFrom(t.ranks[0].model); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// NewNet builds a trainer hosting one rank — coll.Rank() — of a run
// whose other ranks live in other processes (or, in tests, other
// trainers on ring.Local). cfg.Workers must equal the collective's world
// size; the model and shard math then match New's Workers-way trainer
// exactly. Reported losses are rank-local (the mean over this rank's
// shard): a global mean would cost an extra collective per step for a
// statistic the weights already embody. Snapshots are rank-local too,
// and their key names the rank, so each restores only into the same rank
// of the same run shape.
//
// Healing a crashed replica and continuing elastically need every rank
// in one process, so a Config that asks for either is rejected with an
// error wrapping errors.ErrUnsupported.
func NewNet[S tensor.Scalar](modelCfg unet.Config, cfg Config, coll ring.Collective[S]) (*Trainer[S], error) {
	if coll == nil {
		return nil, fmt.Errorf("ddp: nil collective")
	}
	if cfg.Workers != coll.World() {
		return nil, fmt.Errorf("ddp: %d workers for world of %d", cfg.Workers, coll.World())
	}
	if cfg.Elastic {
		return nil, fmt.Errorf("ddp: elastic mode is in-process only (network recovery retries with the full complement): %w", errors.ErrUnsupported)
	}
	if n := cfg.Chaos.Count(chaos.ReplicaCrash); n > 0 {
		return nil, fmt.Errorf("ddp: %d %q faults scheduled, but replica crashes are in-process only (a lone rank cannot heal a peer): %w",
			n, chaos.ReplicaCrash, errors.ErrUnsupported)
	}
	group, err := ring.NewGroup(cfg.Workers)
	if err != nil {
		return nil, err
	}
	t, err := newTrainer(modelCfg, cfg, group, []ring.Collective[S]{coll})
	if err != nil {
		return nil, err
	}
	t.key = fmt.Sprintf("net rank %d/%d|model %+v|batch %d|epochs %d|lr %g|seed %d|master %t",
		coll.Rank(), t.world, modelCfg, cfg.BatchPerWorker, cfg.Epochs, cfg.LR, cfg.Seed, cfg.MasterWeights)
	return t, nil
}

// newTrainer validates the shared configuration and builds one hosted
// rank per collective endpoint.
func newTrainer[S tensor.Scalar](modelCfg unet.Config, cfg Config, group *ring.Group, colls []ring.Collective[S]) (*Trainer[S], error) {
	if cfg.BatchPerWorker <= 0 || cfg.Epochs <= 0 {
		return nil, fmt.Errorf("ddp: invalid batch %d or epochs %d", cfg.BatchPerWorker, cfg.Epochs)
	}
	if train.CheckLR(cfg.LR) != nil {
		return nil, fmt.Errorf("ddp: invalid learning rate %g", cfg.LR)
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	if cfg.SnapshotKeep <= 0 {
		cfg.SnapshotKeep = DefaultSnapshotKeep
	}
	t := &Trainer[S]{cfg: cfg, modelCfg: modelCfg, world: cfg.Workers, group: group}
	for _, coll := range colls {
		mc := modelCfg
		// Distinct dropout streams per rank; weights are broadcast from
		// rank 0, so only regularization noise differs.
		mc.Seed = modelCfg.Seed + uint64(coll.Rank())*0x9e37
		m, err := unet.New[S](mc)
		if err != nil {
			return nil, err
		}
		if cfg.Focal != nil {
			m.SetCriterion(nn.NewFocal[S](*cfg.Focal))
		}
		opt := nn.NewAdam[S](cfg.LR)
		opt.Master = cfg.MasterWeights
		t.ranks = append(t.ranks, &rank[S]{id: coll.Rank(), coll: coll, model: m, opt: opt})
	}
	return t, nil
}

// Replica exposes a hosted rank's model, or nil for a rank this trainer
// does not host. Every rank's weights are bit-synchronized at step
// boundaries; rank 0 is the canonical result.
func (t *Trainer[S]) Replica(rank int) *unet.Model[S] {
	for _, r := range t.ranks {
		if r.id == rank {
			return r.model
		}
	}
	return nil
}

// live returns the hosted ranks currently in the ring.
func (t *Trainer[S]) live() []*rank[S] {
	out := make([]*rank[S], 0, len(t.ranks))
	for _, r := range t.ranks {
		if t.group.IsLive(r.id) {
			out = append(out, r)
		}
	}
	return out
}

// eachLive runs fn once per live hosted rank, concurrently (each
// replica's kernels fan out on the shared pool), waits for all of them,
// and returns the lowest rank's error.
func (t *Trainer[S]) eachLive(fn func(i int, r *rank[S]) error) error {
	live := t.live()
	errs := make([]error, len(live))
	var wg sync.WaitGroup
	wg.Add(len(live))
	for i, r := range live {
		go func() {
			defer wg.Done()
			errs[i] = fn(i, r)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// dataFingerprint hashes the sample set's count, dimensions, imagery,
// and labels. Resume-on-different-data would silently train the wrong
// batches from the cursor onward, so Fit refuses it.
func dataFingerprint(samples []train.Sample) string {
	h := sha256.New()
	var dims [8]byte
	binary.LittleEndian.PutUint64(dims[:], uint64(len(samples)))
	h.Write(dims[:])
	var lbuf []byte
	for _, s := range samples {
		binary.LittleEndian.PutUint32(dims[:4], uint32(s.Image.W))
		binary.LittleEndian.PutUint32(dims[4:], uint32(s.Image.H))
		h.Write(dims[:])
		h.Write(s.Image.Pix)
		if cap(lbuf) < len(s.Labels.Pix) {
			lbuf = make([]byte, len(s.Labels.Pix))
		}
		lbuf = lbuf[:len(s.Labels.Pix)]
		for i, c := range s.Labels.Pix {
			lbuf[i] = byte(c)
		}
		h.Write(lbuf)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// capture records the exact training state of the hosted ranks at the
// current step boundary. All live ranks are bit-synchronized, so weights
// and optimizer state are taken from the lowest live hosted rank; RNG
// positions are per hosted rank. The deep copies are optional: a
// boundary that can only ever be rewound within its own step needs the
// RNG positions alone (see Fit).
func (t *Trainer[S]) capture(step int, weights bool) *Snapshot {
	s := &Snapshot{
		Precision: precisionName[S](),
		Key:       t.key,
		Data:      t.dataFP,
		Step:      step,
		RNG:       make([]noise.RNGState, len(t.ranks)),
	}
	for i, r := range t.ranks {
		s.RNG[i] = r.model.RNGState()
	}
	if weights {
		src := t.ranks[0]
		if live := t.live(); len(live) > 0 {
			src = live[0]
		}
		s.Weights = src.model.WeightsF64()
		s.Opt = src.opt.State()
	}
	return s
}

// rollback returns every hosted rank to a captured boundary: its own
// RNG position and, when the boundary holds them, the weights and
// optimizer state.
func (t *Trainer[S]) rollback(s *Snapshot) error {
	for i, r := range t.ranks {
		r.model.SetRNGState(s.RNG[i])
		if s.Weights == nil {
			continue
		}
		if err := r.model.SetWeightsF64(s.Weights); err != nil {
			return err
		}
		r.opt.SetState(s.Opt) // SetState deep-copies, so ranks do not share buffers
	}
	return nil
}

// precisionName reports the instantiation's precision tag.
func precisionName[S tensor.Scalar]() string {
	if tensor.IsF32[S]() {
		return "float32"
	}
	return "float64"
}

// Restore loads a snapshot into the trainer: every hosted rank gets the
// snapshot weights and optimizer state, its own RNG position, and ring
// membership. Fit then resumes from the snapshot's batch cursor without
// re-broadcasting weights (every rank of the run restored the same
// bit-synchronized state).
func (t *Trainer[S]) Restore(s *Snapshot) error {
	if s.Key != t.key {
		return fmt.Errorf("%w: key %q vs trainer %q", ErrSnapshotMismatch, s.Key, t.key)
	}
	if s.Precision != precisionName[S]() {
		return fmt.Errorf("%w: snapshot precision %s, trainer %s", ErrSnapshotMismatch, s.Precision, precisionName[S]())
	}
	if len(s.RNG) != len(t.ranks) {
		return fmt.Errorf("%w: %d RNG states for %d ranks", ErrSnapshotMismatch, len(s.RNG), len(t.ranks))
	}
	if err := t.rollback(s); err != nil {
		return err
	}
	for _, r := range t.ranks {
		t.group.Heal(r.id)
	}
	t.snap = s
	t.startStep = s.Step
	t.restored = true
	return nil
}

// errGuardRetry asks Fit to roll back the current boundary and retry the
// step after a first numeric-anomaly verdict. Distinct from *RankError:
// the ring is healthy, so no re-rendezvous is needed.
var errGuardRetry = errors.New("ddp: numeric anomaly, retrying step")

// rankOut is what one rank's pass through the step body reports.
type rankOut struct {
	loss    float64
	held    bool // the rank's shard was non-empty, so loss counts
	stalled bool
	anomaly bool // the guard tripped on the reduced gradient
	skipped bool // …again on the retry, and the skip policy dropped the update
}

// grads is the first half of the step body, run once per live hosted
// rank: forward and backward on the rank's shard. An error here is a
// compute failure that would recur on retry, and ends the run.
func (t *Trainer[S]) grads(r *rank[S], g int, shard []train.Sample) (out rankOut, err error) {
	if d := t.cfg.Chaos.StragglerDelay(r.id, g); d > 0 {
		// A straggler slows the whole synchronous ring (wall clock only —
		// results are unaffected, which the chaos tests assert).
		out.stalled = true
		time.Sleep(d)
	}
	nn.ZeroGrads(r.model.Params())
	if len(shard) == 0 {
		return out, nil // the rank idles this step and contributes zero grads
	}
	x, labels, err := train.ToTensor[S](shard)
	if err != nil {
		return out, err
	}
	out.held = true
	out.loss, err = r.model.LossAndGrad(x, labels)
	return out, err
}

// exchange is the second half: the gradients are ring-averaged,
// guard-scanned and Adam-applied, then the commit barrier. A
// *ring.RankError or errGuardRetry leaves partial state (consumed
// dropout noise, possibly an applied update) for Fit to roll back.
// retried marks the re-execution of a step whose first attempt tripped
// the guard.
func (t *Trainer[S]) exchange(r *rank[S], g int, retried bool, out *rankOut) error {
	params := r.model.Params()
	r.flat = r.flat[:0]
	for _, prm := range params {
		r.flat = append(r.flat, prm.Grad.Data...)
	}
	if t.cfg.Chaos.NaNStep(r.id, g) {
		// Poison one pre-reduce element: the ring mean propagates the NaN
		// to every rank, so the guard verdict below is unanimous.
		r.flat[0] = S(math.NaN())
	}
	if err := r.coll.AllReduceMean(r.flat, ring.DefaultChunk); err != nil {
		return err
	}
	// Numeric guard: scan the reduced gradient (identical on every rank)
	// before any weight moves. An anomaly rolls the attempt back and
	// retries once — which clears transient corruption like an injected
	// NaN; a reproduced anomaly is deterministic in (weights, batch, RNG)
	// and falls to the policy: drop the update and continue, or abort
	// typed.
	if t.cfg.Guard.Enabled() {
		if a := train.CheckGrads(t.cfg.Guard, g, r.flat); a != nil {
			out.anomaly = true
			if !retried {
				return fmt.Errorf("%w: %v", errGuardRetry, a)
			}
			if t.cfg.Guard.Policy == train.GuardAbort {
				return a
			}
			// Weights untouched, dropout noise stays consumed — but still
			// commit the barrier so every rank advances in lockstep.
			out.skipped = true
			return r.coll.Commit(g)
		}
	}
	off := 0
	for _, prm := range params {
		off += copy(prm.Grad.Data, r.flat[off:])
	}
	r.opt.Step(params)
	return r.coll.Commit(g)
}

// step runs the step body on every live hosted rank concurrently and
// folds the verdicts: the mean loss over the ranks that held samples,
// whether the guard's skip policy dropped the update, and the error that
// decides what Fit does next. Straggler and anomaly events are counted
// into res. The ranks meet between the two halves, so a compute failure
// on one ends the step before its peers enter a collective it would
// never join.
func (t *Trainer[S]) step(g int, shards [][]train.Sample, retried bool, res *Result) (loss float64, skipped bool, err error) {
	outs := make([]rankOut, len(t.ranks)) // the live ranks fill a prefix; the rest stay zero
	err = t.eachLive(func(i int, r *rank[S]) (err error) {
		outs[i], err = t.grads(r, g, shards[r.id])
		return err
	})
	if err != nil {
		return 0, false, err
	}
	err = t.eachLive(func(i int, r *rank[S]) error { return t.exchange(r, g, retried, &outs[i]) })
	held := 0
	for _, o := range outs {
		if o.stalled {
			res.Stalls++
		}
		if o.held {
			loss += o.loss
			held++
		}
	}
	if held > 0 {
		loss /= float64(held)
	}
	// The ranks reduced one vector, so its verdict and the fate of the
	// exchange are the same on all of them; count and report the first.
	if outs[0].anomaly {
		res.Anomalies++
	}
	return loss, outs[0].skipped, err
}

// Step runs one synchronous data-parallel step over the hosted ranks:
// shards[r] is rank r's mini-batch. It returns the mean loss across the
// hosted ranks. Step is the step body alone — no boundary capture,
// snapshot, fault delivery or recovery; Fit wraps it with those.
func (t *Trainer[S]) Step(shards [][]train.Sample) (float64, error) {
	if len(shards) != t.world {
		return 0, fmt.Errorf("ddp: %d shards for %d workers", len(shards), t.world)
	}
	loss, _, err := t.step(-1, shards, false, &Result{})
	return loss, err
}

// reestablish drives every live hosted rank through the ring rendezvous
// and returns the step the ring agreed to continue from. After a fault
// the whole complement re-enters it, but not in lockstep, so individual
// attempts can time out while peers catch up.
func (t *Trainer[S]) reestablish(step int) (int, error) {
	agreed := make([]int, len(t.ranks))
	err := t.eachLive(func(i int, r *rank[S]) error {
		var lastErr error
		for attempt := 0; attempt < 8; attempt++ {
			a, err := r.coll.Reestablish(step)
			if err == nil {
				agreed[i] = a
				return nil
			}
			lastErr = err
		}
		return fmt.Errorf("ddp: rank %d: ring re-establish failed: %w", r.id, lastErr)
	})
	return agreed[0], err // hosted ranks share one ring, so all were told one step
}

// syncWeights broadcasts rank 0's parameters to r — Horovod's
// BroadcastGlobalVariables, moving the exact S-precision bit patterns.
func (t *Trainer[S]) syncWeights(r *rank[S]) error {
	params := r.model.Params()
	r.flat = r.flat[:0]
	for _, prm := range params {
		r.flat = append(r.flat, prm.W.Data...)
	}
	if err := r.coll.Broadcast(r.flat); err != nil {
		return err
	}
	off := 0
	for _, prm := range params {
		off += copy(prm.W.Data, r.flat[off:])
	}
	return nil
}

// heal re-admits the hosted ranks a crash took out of the ring, and
// returns the step the run can continue from. With survivors, a dead
// rank takes a survivor's weights and optimizer state (the crash landed
// at the step boundary, before the rank consumed any noise, so its own
// RNG position is the boundary's) and the step is retried; with none,
// the only complete state left is the latest snapshot, so the run
// continues from there — Fit rewinds to it and re-executes, which is
// bit-identical because every step is deterministic in that state.
func (t *Trainer[S]) heal(g int, res *Result) (int, error) {
	dead := t.group.Dead()
	if len(dead) == 0 {
		// A peer in another process was lost; the rendezvous gets it back.
		res.Recoveries++
		return g, nil
	}
	if t.cfg.Elastic {
		return g, nil // dead ranks stay dead; the survivors retry
	}
	res.Recoveries += len(dead)
	at, live := g, t.live()
	if len(live) == 0 {
		if t.snap == nil {
			return 0, fmt.Errorf("ddp: all ranks failed at step %d with no snapshot", g)
		}
		res.Replays++
		at = t.snap.Step
	}
	for _, r := range t.ranks {
		if t.group.IsLive(r.id) {
			continue
		}
		if len(live) > 0 {
			if err := r.model.CopyWeightsFrom(live[0].model); err != nil {
				return 0, err
			}
			r.opt.SetState(live[0].opt.State())
		}
		t.group.Heal(r.id)
	}
	return at, nil
}

// stepStat is the accounting of one committed step, kept so a rewind
// can take it back.
type stepStat struct {
	loss    float64
	skipped bool
}

// Fit trains the hosted ranks for the configured epochs over the
// dataset, sharding each global batch of Workers×BatchPerWorker samples
// across the run's ranks, bit-synchronized with any peers. Faults fire
// at their exact step boundaries and the run recovers as the package
// comment describes; a ProcessKill fault aborts with ErrKilled after the
// last snapshot (resume via LoadSnapshotFallback + Restore into a fresh
// trainer — every process of a network run sees the same schedule, so
// the whole cluster dies at that boundary and each rank resumes from
// its own file). A trainer restored from a snapshot resumes at its batch
// cursor. Progress is called with every hosted replica quiescent.
func (t *Trainer[S]) Fit(samples []train.Sample) (*Result, error) {
	batcher, err := train.NewBatcher(samples, t.world*t.cfg.BatchPerWorker, t.cfg.Seed)
	if err != nil {
		return nil, err
	}
	nb := batcher.NumBatches()
	totalSteps := t.cfg.Epochs * nb
	// Snapshots exist for recovery (chaos) and restart (SnapshotPath); a
	// plain fault-free run skips them, and the full-dataset hash they and
	// the resume check carry.
	wantSnaps := t.cfg.Chaos != nil || t.cfg.SnapshotPath != ""
	if wantSnaps || t.restored {
		t.dataFP = dataFingerprint(samples)
	}
	if t.restored && t.snap.Data != "" && t.snap.Data != t.dataFP {
		// A cursor into a different sample set would silently train the
		// wrong batches; bit-identical resume is only defined on the
		// data the snapshot was taken over. Checked even at cursor 0 —
		// restoring a snapshot is a claim about the data it came from.
		return nil, fmt.Errorf("%w: snapshot was taken over a different sample set", ErrSnapshotMismatch)
	}

	res := &Result{}
	agreed, err := t.reestablish(t.startStep)
	if err != nil {
		return res, err
	}
	if !t.restored {
		err = t.eachLive(func(_ int, r *rank[S]) error { return t.syncWeights(r) })
	} else if agreed != t.startStep {
		// Resumed ranks restored identical bit-synchronized state; the
		// rendezvous only has to agree they are at the same step.
		err = fmt.Errorf("ddp: resumed at step %d but the ring agreed on %d (mismatched snapshots?)", t.startStep, agreed)
	}
	if err != nil {
		return res, err
	}

	var (
		stats        = make([]stepStat, totalSteps)
		epochBatches [][]train.Sample
		epochLoaded  = -1
		epochStart   time.Time
		// curB is the rollback state of the step being attempted, prevB
		// the one before it: a peer can be at most one commit behind.
		prevB, curB *Snapshot
		lastSnap    = -1
		// guardRetried is the step already rolled back and retried for a
		// numeric anomaly; a second trip there falls to the guard policy.
		guardRetried = -1
	)
	for g := t.startStep; g < totalSteps; {
		epoch, bi := g/nb, g%nb
		if epoch != epochLoaded {
			epochBatches, epochLoaded = batcher.Epoch(epoch), epoch
			epochStart = time.Now()
		}
		batch := epochBatches[bi]
		for _, r := range t.ranks {
			r.coll.StepStart(g) // boundary network faults (partition, reconnect) fire here
		}

		// ---- step boundary: rollback state, snapshot, then faults fire ----
		if curB == nil || curB.Step != g { // else a retry: the boundary is already held
			// Snapshots are full-complement states, taken once per step: a
			// rewind that passes a step again must not churn the rotation.
			snapNow := wantSnaps && (g == t.startStep || g%t.cfg.SnapshotEvery == 0) &&
				lastSnap != g && len(t.live()) == len(t.ranks)
			// With a peer in another process a step can commit here and
			// not there, so the boundary must be able to undo an applied
			// update; with every rank hosted a step fails for all or none,
			// and only the consumed dropout noise needs rewinding.
			prevB, curB = curB, t.capture(g, snapNow || len(t.ranks) < t.world)
			if snapNow {
				t.snap, lastSnap = curB, g
				if t.cfg.SnapshotPath != "" {
					// An injected torn-write fault truncates this snapshot
					// mid-body; the rotation keeps the previous generation,
					// and resume (LoadSnapshotFallback) detects the tear
					// and falls back to it.
					torn := t.cfg.Chaos.TornWrite(g)
					if err := saveSnapshotFile(t.cfg.SnapshotPath, t.snap, t.cfg.SnapshotKeep, torn); err != nil {
						return res, err
					}
				}
			}
		}
		if t.cfg.Chaos.ProcessKill(g) {
			// The process dies here; in-flight state is abandoned, as a
			// real SIGKILL would leave it.
			return res, ErrKilled
		}
		// Replica crashes scheduled for this step fire now: the worker
		// dies at the boundary, producing no gradients, and the membership
		// group is how the survivors see it.
		for _, r := range t.live() {
			if t.cfg.Chaos.ReplicaCrash(r.id, g) {
				t.group.Fail(r.id)
			}
		}

		// Shard over the full complement — the committed execution always
		// has every rank — or, in elastic mode, over the survivors.
		members := t.group.Live()
		var stat stepStat
		switch {
		case len(members) == 0 && t.cfg.Elastic:
			// Elastic mode never resurrects ranks — with the last survivor
			// gone there is nothing to continue on, and a snapshot replay
			// would silently rewrite the degraded steps already committed.
			return res, fmt.Errorf("ddp: all replicas lost at step %d (elastic mode does not heal)", g)
		case len(members) < t.world && !t.cfg.Elastic:
			// The boundary already knows who died: spending a forward/
			// backward + all-reduce on a step that must be retried anyway
			// would be pure waste.
			err = &ring.RankError{Rank: t.group.Dead()[0]}
		default:
			stat.loss, stat.skipped, err = t.step(g, shardOver(batch, members, t.world), guardRetried == g, res)
		}

		var lost *ring.RankError
		switch {
		case err == nil:
			stats[g] = stat
			res.Steps++
			if stat.skipped {
				res.GuardSkips++
			}
			g++
			if bi == nb-1 {
				t.closeEpoch(res, epoch, stats[max(epoch*nb, t.startStep):g], epochStart)
			}
		case errors.Is(err, errGuardRetry):
			// Every rank scanned the identical reduced bytes and reached
			// this verdict in lockstep; the ring is intact, so roll back
			// and retry the step without a rendezvous.
			guardRetried = g
			if err := t.rollback(curB); err != nil {
				return res, err
			}
		case errors.As(err, &lost):
			// A rank was lost: get the complement back, agree where to
			// retry from, and undo everything past that point — the
			// attempt's partial effects and, when a peer never committed
			// a step this trainer did (or the state had to come from a
			// snapshot), the committed steps too. Re-executing them is
			// bit-identical, so the redo restores every number.
			at, err := t.heal(g, res)
			if err != nil {
				return res, err
			}
			if at, err = t.reestablish(at); err != nil {
				return res, err
			}
			to := curB
			if at < g {
				to = nil
				for _, b := range []*Snapshot{t.snap, prevB} {
					if b != nil && b.Step == at && b.Weights != nil {
						to = b
					}
				}
				if to == nil {
					return res, fmt.Errorf("ddp: must rewind to step %d but hold no boundary state for it", at)
				}
				for h := g - 1; h >= at; h-- {
					res.Steps--
					if stats[h].skipped {
						res.GuardSkips--
					}
					if h%nb == nb-1 {
						last := res.Epochs[len(res.Epochs)-1]
						res.Epochs = res.Epochs[:len(res.Epochs)-1]
						res.RealTotal -= last.RealSeconds
					}
				}
				prevB, curB, g, guardRetried = nil, to, at, -1
			}
			if err := t.rollback(to); err != nil {
				return res, err
			}
		default:
			return res, err
		}
	}
	res.LostRanks = t.group.Dead()
	return res, nil
}

// closeEpoch emits the epoch stat from the steps of the epoch this Fit
// executed — all of them, or the tail a mid-epoch resume left.
func (t *Trainer[S]) closeEpoch(res *Result, epoch int, steps []stepStat, start time.Time) {
	stat := EpochStat{RealSeconds: time.Since(start).Seconds()}
	for _, s := range steps {
		stat.Loss += s.loss
	}
	stat.Loss /= float64(len(steps))
	res.Epochs = append(res.Epochs, stat)
	res.RealTotal += stat.RealSeconds
	if t.cfg.Progress != nil {
		t.cfg.Progress(epoch, stat.Loss)
	}
}

// shardOver distributes a batch round-robin across the given ranks:
// over all of them, with batch = Workers×BatchPerWorker, every rank gets
// exactly BatchPerWorker samples; over the survivors of a degraded
// elastic run, every sample is still trained and dead ranks receive
// empty shards.
func shardOver(batch []train.Sample, ranks []int, workers int) [][]train.Sample {
	out := make([][]train.Sample, workers)
	for i, s := range batch {
		r := ranks[i%len(ranks)]
		out[r] = append(out[r], s)
	}
	return out
}

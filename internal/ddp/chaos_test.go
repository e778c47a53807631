package ddp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"seaice/internal/chaos"
	"seaice/internal/tensor"
	"seaice/internal/train"
	"seaice/internal/unet"
)

// dropoutConfig exercises the RNG-rewind machinery: recovery is only
// bit-identical if dropout masks are redrawn from the rewound stream.
func dropoutConfig(seed uint64) unet.Config {
	return unet.Config{Depth: 2, BaseChannels: 4, InChannels: 3, Classes: 3, DropoutRate: 0.15, Seed: seed}
}

// chaosTrainCfg is the shared small training configuration of the chaos
// tests: 12 steps total (4 batches/epoch × 3 epochs) at the given worker
// count.
func chaosTrainCfg(workers int, spec string, t *testing.T) Config {
	t.Helper()
	cfg := Config{
		Workers:        workers,
		BatchPerWorker: 2,
		Epochs:         3,
		LR:             0.01,
		Seed:           9,
		SnapshotEvery:  4,
	}
	if spec != "" {
		sched, err := chaos.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Chaos = chaos.New(sched, workers)
	}
	return cfg
}

// weightsOf renders rank 0's parameters as raw bytes (the float64
// widening is exact for either precision) for byte comparison.
func weightsOf[S tensor.Scalar](tr *Trainer[S]) []byte {
	var buf bytes.Buffer
	var b [8]byte
	for _, p := range tr.Replica(0).Params() {
		for _, v := range p.W.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(float64(v)))
			buf.Write(b[:])
		}
	}
	return buf.Bytes()
}

// runFit trains a fresh trainer and returns it with its result.
func runFit[S tensor.Scalar](t *testing.T, model unet.Config, cfg Config, samples []train.Sample) (*Trainer[S], *Result) {
	t.Helper()
	tr, err := New[S](model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	return tr, res
}

// TestChaosRecoveryBitIdentity is the acceptance criterion: a run with
// ≥2 injected replica crashes at distinct steps recovers to final
// weights byte-identical to the uninterrupted run, at worker counts 1,
// 3, and 4 — in float64 and in float32 mixed precision (snapshots store
// exact float64 state, so recovery is bit-exact there too). Dropout is
// enabled: identity also proves the RNG streams rewind correctly.
func TestChaosRecoveryBitIdentity(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		spec    string
		guard   train.GuardConfig
		every   int // snapshot cadence; 0 keeps chaosTrainCfg's 4
	}{
		// Single worker: every crash is a no-survivor loss, forcing the
		// snapshot-replay path (crashes land between snapshots at 4k).
		{"workers=1", 1, "11:crash@2:r0,crash@7:r0", train.GuardConfig{}, 0},
		// Multi-worker: survivor-copy healing; one auto-targeted crash
		// and a straggler riding along.
		{"workers=3", 3, "11:crash@3:r1,crash@9:r0,stall@5:r2:2ms", train.GuardConfig{}, 0},
		{"workers=4", 4, "11:crash@1:r3,crash@6,crash@6:r0", train.GuardConfig{}, 0},
		// Snapshot replay over guard-skipped steps: at this bound the
		// gradient norm trips (and reproduces) at steps 0 and 1 only, so
		// the crash at step 3 replays from the step-0 snapshot across two
		// dropped updates and one applied one. The replay must drop the
		// same updates, and still draw their dropout noise.
		{"workers=1+guardskip", 1, "11:crash@3:r0,crash@7:r0", train.GuardConfig{Policy: train.GuardSkip, MaxNorm: 0.4}, 0},
		// Snapshot replay across epoch boundaries: with snapshots at 0
		// and 6 and 4 batches per epoch, the crash at step 5 rewinds over
		// the close of epoch 0 (step 3) and the one at 9 over the close
		// of epoch 1 (step 7). Each closed epoch must be taken back and
		// closed again once, or the epoch list grows.
		{"workers=1+epochrewind", 1, "11:crash@5:r0,crash@9:r0", train.GuardConfig{}, 6},
	} {
		samples := syntheticSamples(123, tc.workers*2*4, 8)
		t.Run(tc.name, func(t *testing.T) {
			t.Run("f64", func(t *testing.T) {
				chaosBitIdentity[float64](t, tc.workers, tc.spec, tc.guard, tc.every, samples)
			})
			t.Run("f32-mixed", func(t *testing.T) {
				chaosBitIdentity[float32](t, tc.workers, tc.spec, tc.guard, tc.every, samples)
			})
		})
	}
}

func chaosBitIdentity[S tensor.Scalar](t *testing.T, workers int, spec string, guard train.GuardConfig, every int, samples []train.Sample) {
	model := dropoutConfig(4)
	base := chaosTrainCfg(workers, "", t)
	base.MasterWeights = tensor.IsF32[S]()
	base.Guard = guard
	clean, cleanRes := runFit[S](t, model, base, samples)

	cfg := chaosTrainCfg(workers, spec, t)
	cfg.MasterWeights = base.MasterWeights
	cfg.Guard = guard
	if every > 0 {
		cfg.SnapshotEvery = every
	}
	injector := cfg.Chaos
	faulty, res := runFit[S](t, model, cfg, samples)

	if injector.Remaining() != 0 {
		t.Fatalf("schedule not exhausted: %d faults pending (%v)", injector.Remaining(), injector.Pending())
	}
	if res.Recoveries < 2 {
		t.Fatalf("recoveries = %d, want ≥ 2 (events %v)", res.Recoveries, injector.Events())
	}
	if workers == 1 && res.Replays < 2 {
		t.Fatalf("single-worker run used %d snapshot replays, want 2", res.Replays)
	}
	if res.Steps != cleanRes.Steps {
		t.Fatalf("committed steps %d vs clean %d", res.Steps, cleanRes.Steps)
	}
	if guard.Enabled() && cleanRes.GuardSkips != 2 {
		t.Fatalf("clean run skipped %d updates, want 2 (steps 0 and 1)", cleanRes.GuardSkips)
	}
	if res.GuardSkips != cleanRes.GuardSkips {
		t.Fatalf("guard skips %d vs clean %d: a replayed step was counted twice, or its update was not dropped again", res.GuardSkips, cleanRes.GuardSkips)
	}
	if len(res.Epochs) != len(cleanRes.Epochs) {
		t.Fatalf("%d epochs reported vs clean %d: a rewound epoch was not taken back", len(res.Epochs), len(cleanRes.Epochs))
	}
	for e := range res.Epochs {
		if got, want := math.Float64bits(res.Epochs[e].Loss), math.Float64bits(cleanRes.Epochs[e].Loss); got != want {
			t.Fatalf("epoch %d loss %v vs clean %v", e, res.Epochs[e].Loss, cleanRes.Epochs[e].Loss)
		}
	}
	if got, want := weightsOf(faulty), weightsOf(clean); !bytes.Equal(got, want) {
		t.Fatalf("recovered weights differ from uninterrupted run (%d vs %d bytes)", len(got), len(want))
	}
}

// TestChaosKillResume asserts a run killed by an injected process fault
// resumes from its persisted snapshot bit-identically: kill at step 6,
// restart from the step-4 snapshot, final weights equal the
// uninterrupted run's.
func TestChaosKillResume(t *testing.T) {
	const workers = 3
	samples := syntheticSamples(55, workers*2*4, 8)
	model := dropoutConfig(21)
	snapPath := filepath.Join(t.TempDir(), "train.snap")

	base := chaosTrainCfg(workers, "", t)
	clean, _ := runFit[float64](t, model, base, samples)

	cfg := chaosTrainCfg(workers, "5:kill@6", t)
	cfg.SnapshotPath = snapPath
	tr, err := New[float64](model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Fit(samples)
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("Fit returned %v, want ErrKilled", err)
	}
	if res.Steps != 6 {
		t.Fatalf("killed run committed %d steps, want 6", res.Steps)
	}

	// Restart: a fresh process loads the last persisted snapshot (taken
	// at step 4) and replays the rest of the schedule.
	snap, err := LoadSnapshotFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Step != 4 {
		t.Fatalf("persisted snapshot at step %d, want 4", snap.Step)
	}
	resumeCfg := chaosTrainCfg(workers, "", t)
	resumeCfg.SnapshotPath = snapPath
	resumed, err := New[float64](model, resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	res2, err := resumed.Fit(samples)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Steps != 8 {
		t.Fatalf("resumed run committed %d steps, want 8 (12 total − 4 snapshotted)", res2.Steps)
	}
	if got, want := weightsOf(resumed), weightsOf(clean); !bytes.Equal(got, want) {
		t.Fatal("kill-and-resume weights differ from uninterrupted run")
	}

	// Resuming against a different sample set cannot be bit-identical
	// and must be refused, not silently trained.
	wrongData, err := New[float64](model, chaosTrainCfg(workers, "", t))
	if err != nil {
		t.Fatal(err)
	}
	if err := wrongData.Restore(snap); err != nil {
		t.Fatal(err)
	}
	other := syntheticSamples(56, workers*2*4, 8)
	if _, err := wrongData.Fit(other); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("resume on different data: %v, want ErrSnapshotMismatch", err)
	}
}

// TestChaosRestoreRejectsMismatch asserts snapshots restore only into a
// matching trainer (typed error), and malformed snapshot streams report
// ErrBadSnapshot.
func TestChaosRestoreRejectsMismatch(t *testing.T) {
	model := dropoutConfig(3)
	cfg := chaosTrainCfg(2, "", t)
	tr, err := New[float64](model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap := tr.Snapshot(0)

	other := cfg
	other.LR = 0.5
	wrong, err := New[float64](model, other)
	if err != nil {
		t.Fatal(err)
	}
	if err := wrong.Restore(snap); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("mismatched config restore: %v, want ErrSnapshotMismatch", err)
	}
	f32, err := New[float32](model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	snap32 := f32.Snapshot(0)
	snap32.Precision = "float64"
	// Same key, wrong precision: precision check must trip.
	wrong32, err := New[float32](model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := wrong32.Restore(snap32); !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("cross-precision restore: %v, want ErrSnapshotMismatch", err)
	}

	if _, err := ReadSnapshot(bytes.NewReader([]byte("not a snapshot"))); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("garbage stream: %v, want ErrBadSnapshot", err)
	}
	// A valid header followed by garbage is a corruption (the header
	// promised a snapshot), not a malformed stream.
	if _, err := ReadSnapshot(bytes.NewReader([]byte(snapMagic + "truncated"))); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("truncated stream: %v, want ErrCorruptSnapshot", err)
	}
}

// TestChaosElasticDegradedRun asserts elastic mode survives permanent
// rank loss: the run completes over the survivors (resharded batches,
// re-chunked survivor ring), reports the lost ranks, and is
// deterministic given the fault schedule.
func TestChaosElasticDegradedRun(t *testing.T) {
	const workers = 3
	samples := syntheticSamples(200, workers*2*4, 8)
	model := dropoutConfig(8)

	run := func() (*Trainer[float64], *Result) {
		cfg := chaosTrainCfg(workers, "17:crash@2:r1,crash@5:r2", t)
		cfg.Elastic = true
		return runFit[float64](t, model, cfg, samples)
	}
	a, resA := run()
	b, resB := run()

	if !reflect.DeepEqual(resA.LostRanks, []int{1, 2}) {
		t.Fatalf("LostRanks = %v, want [1 2]", resA.LostRanks)
	}
	if resA.Recoveries != 0 || resA.Replays != 0 {
		t.Fatalf("elastic run healed ranks (recoveries %d, replays %d)", resA.Recoveries, resA.Replays)
	}
	if resA.Steps != 12 || resB.Steps != 12 {
		t.Fatalf("elastic runs committed %d/%d steps, want 12", resA.Steps, resB.Steps)
	}
	if !bytes.Equal(weightsOf(a), weightsOf(b)) {
		t.Fatal("elastic runs with the same fault schedule diverged")
	}
	// Degraded math is a *different* (documented) update sequence.
	cleanCfg := chaosTrainCfg(workers, "", t)
	clean, _ := runFit[float64](t, model, cleanCfg, samples)
	if bytes.Equal(weightsOf(a), weightsOf(clean)) {
		t.Fatal("elastic degraded run unexpectedly matched the full-complement run")
	}
}

// TestChaosElasticTotalLossFails asserts elastic mode refuses to
// resurrect ranks: losing every replica is a terminal error, not a
// silent snapshot replay that would rewrite the committed degraded
// steps.
func TestChaosElasticTotalLossFails(t *testing.T) {
	const workers = 2
	samples := syntheticSamples(77, workers*2*4, 8)
	cfg := chaosTrainCfg(workers, "3:crash@2:r0,crash@4:r1", t)
	cfg.Elastic = true
	tr, err := New[float64](dropoutConfig(6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Fit(samples); err == nil || !strings.Contains(err.Error(), "all replicas lost") {
		t.Fatalf("Fit = %v, want all-replicas-lost error", err)
	}
}

// TestChaosStragglerIsHarmless asserts stragglers cost wall clock only.
func TestChaosStragglerIsHarmless(t *testing.T) {
	const workers = 3
	samples := syntheticSamples(88, workers*2*4, 8)
	model := dropoutConfig(13)

	clean, _ := runFit[float64](t, model, chaosTrainCfg(workers, "", t), samples)
	slow, res := runFit[float64](t, model, chaosTrainCfg(workers, "3:stall@1:r0:1ms,stall@4:r2:1ms", t), samples)
	if res.Stalls != 2 {
		t.Fatalf("stalls = %d, want 2", res.Stalls)
	}
	if !bytes.Equal(weightsOf(slow), weightsOf(clean)) {
		t.Fatal("straggler changed the training result")
	}
}

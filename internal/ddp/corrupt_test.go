package ddp

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"seaice/internal/chaos"
	"seaice/internal/nn"
	"seaice/internal/tensor"
	"seaice/internal/train"
	"seaice/internal/unet"
)

// TestCorruptNaNStepBitIdentity is the silent-corruption acceptance
// criterion for the numeric guard: a run where injected NaNs poison the
// gradient exchange at scheduled steps finishes with weights
// byte-identical to the never-corrupted run, at worker counts 1, 3, and
// 4, in float64 and float32 mixed precision. The injected faults are
// one-shot, so the guard's rollback-and-retry must clear every one of
// them without ever falling to the skip policy.
func TestCorruptNaNStepBitIdentity(t *testing.T) {
	for _, tc := range []struct {
		workers int
		spec    string
	}{
		{1, "21:nanstep@3:r0"},
		{3, "21:nanstep@3:r1,nanstep@8:r0"},
		{4, "21:nanstep@2,nanstep@7:r3"},
	} {
		samples := syntheticSamples(123, tc.workers*2*4, 8)
		t.Run(fmt.Sprintf("workers=%d", tc.workers), func(t *testing.T) {
			t.Run("f64", func(t *testing.T) {
				corruptNaNIdentity[float64](t, tc.workers, tc.spec, samples)
			})
			t.Run("f32-mixed", func(t *testing.T) {
				corruptNaNIdentity[float32](t, tc.workers, tc.spec, samples)
			})
		})
	}
}

func corruptNaNIdentity[S tensor.Scalar](t *testing.T, workers int, spec string, samples []train.Sample) {
	model := dropoutConfig(4)
	base := chaosTrainCfg(workers, "", t)
	base.MasterWeights = tensor.IsF32[S]()
	base.Guard = train.GuardConfig{Policy: train.GuardSkip}
	clean, cleanRes := runFit[S](t, model, base, samples)

	cfg := chaosTrainCfg(workers, spec, t)
	cfg.MasterWeights = base.MasterWeights
	cfg.Guard = base.Guard
	injector := cfg.Chaos
	faulty, res := runFit[S](t, model, cfg, samples)

	if injector.Remaining() != 0 {
		t.Fatalf("schedule not exhausted: %d faults pending (%v)", injector.Remaining(), injector.Pending())
	}
	if res.Anomalies < 1 {
		t.Fatal("no anomalies recorded — the injected NaNs never reached the guard")
	}
	if res.GuardSkips != 0 {
		t.Fatalf("GuardSkips = %d, want 0: a one-shot NaN must clear on the rollback retry, not fall to the skip policy", res.GuardSkips)
	}
	if res.Steps != cleanRes.Steps {
		t.Fatalf("committed steps %d vs clean %d", res.Steps, cleanRes.Steps)
	}
	if !bytes.Equal(weightsOf(faulty), weightsOf(clean)) {
		t.Error("weights diverge from the never-corrupted run")
	}
}

// TestCorruptGuardSkipPolicy forces a deterministic anomaly (an
// impossibly small norm bound trips on every step, and reproduces on
// the retry) and asserts the skip policy drops every update: the run
// completes, every step is counted as skipped, and the weights are
// byte-identical to the untrained initialization.
func TestCorruptGuardSkipPolicy(t *testing.T) {
	model := dropoutConfig(4)
	cfg := chaosTrainCfg(1, "", t)
	cfg.Guard = train.GuardConfig{Policy: train.GuardSkip, MaxNorm: 1e-12}
	samples := syntheticSamples(321, 8, 8)

	fresh, err := New[float64](model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	initW := weightsOf(fresh)

	tr, res := runFit[float64](t, model, cfg, samples)
	if res.Steps != 12 {
		t.Fatalf("steps = %d, want 12", res.Steps)
	}
	if res.GuardSkips != res.Steps {
		t.Fatalf("GuardSkips = %d, want every one of the %d steps skipped", res.GuardSkips, res.Steps)
	}
	// Each skipped step trips the guard twice: once on first sight, once
	// on the reproducing retry.
	if res.Anomalies != 2*res.Steps {
		t.Fatalf("Anomalies = %d, want %d (two per skipped step)", res.Anomalies, 2*res.Steps)
	}
	if !bytes.Equal(weightsOf(tr), initW) {
		t.Error("skip policy applied an update: weights moved from initialization")
	}
}

// TestCorruptGuardAbortPolicy asserts the abort policy surfaces a typed
// *train.AnomalyError once the anomaly reproduces on the retry.
func TestCorruptGuardAbortPolicy(t *testing.T) {
	model := dropoutConfig(4)
	cfg := chaosTrainCfg(1, "", t)
	cfg.Guard = train.GuardConfig{Policy: train.GuardAbort, MaxNorm: 1e-12}
	samples := syntheticSamples(321, 8, 8)

	tr, err := New[float64](model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Fit(samples)
	var a *train.AnomalyError
	if !errors.As(err, &a) {
		t.Fatalf("Fit returned %v, want *train.AnomalyError", err)
	}
	if a.Step != 0 {
		t.Errorf("anomaly at step %d, want 0 (first step trips the bound)", a.Step)
	}
	if res.Steps != 0 {
		t.Errorf("committed %d steps before aborting, want 0", res.Steps)
	}
}

// corruptSnapshotPair saves two snapshot generations (steps 4 then 8)
// under path with keep=2, so path holds step 8 and path.1 holds step 4.
func corruptSnapshotPair(t *testing.T, tornNewest bool) string {
	t.Helper()
	tr, err := New[float64](dropoutConfig(4), chaosTrainCfg(1, "", t))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "snap")
	if err := saveSnapshotFile(path, tr.Snapshot(4), 2, false); err != nil {
		t.Fatal(err)
	}
	if err := saveSnapshotFile(path, tr.Snapshot(8), 2, tornNewest); err != nil {
		t.Fatal(err)
	}
	return path
}

// flipByte flips one bit inside the gob body of the snapshot at path.
func flipByte(t *testing.T, path string, off int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[off] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptSnapshotFallback is the rotation acceptance criterion: a
// bit-flipped or torn newest snapshot is detected at load with the
// typed corruption error, and resume falls back to the previous good
// rotation entry; with every entry corrupt, the load fails loudly.
func TestCorruptSnapshotFallback(t *testing.T) {
	t.Run("bitflip", func(t *testing.T) {
		path := corruptSnapshotPair(t, false)
		flipByte(t, path, len(snapMagic)+8+16) // inside the gob body

		if _, err := LoadSnapshotFile(path); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("strict load: got %v, want ErrCorruptSnapshot", err)
		}
		snap, entry, err := LoadSnapshotFallback(path, 2)
		if err != nil {
			t.Fatal(err)
		}
		if want := RotationEntry(path, 1); entry != want {
			t.Errorf("fell back to %s, want %s", entry, want)
		}
		if snap.Step != 4 {
			t.Errorf("fallback snapshot at step %d, want 4", snap.Step)
		}
	})

	t.Run("torn-write", func(t *testing.T) {
		path := corruptSnapshotPair(t, true) // newest save truncated mid-body

		if _, err := LoadSnapshotFile(path); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("strict load: got %v, want ErrCorruptSnapshot", err)
		}
		snap, entry, err := LoadSnapshotFallback(path, 2)
		if err != nil {
			t.Fatal(err)
		}
		if want := RotationEntry(path, 1); entry != want {
			t.Errorf("fell back to %s, want %s", entry, want)
		}
		if snap.Step != 4 {
			t.Errorf("fallback snapshot at step %d, want 4", snap.Step)
		}
	})

	t.Run("all-corrupt", func(t *testing.T) {
		path := corruptSnapshotPair(t, false)
		flipByte(t, path, len(snapMagic)+8+16)
		flipByte(t, RotationEntry(path, 1), len(snapMagic)+8+16)

		if _, _, err := LoadSnapshotFallback(path, 2); !errors.Is(err, ErrCorruptSnapshot) {
			t.Fatalf("got %v, want ErrCorruptSnapshot with no fallback left", err)
		}
	})

	t.Run("clean-prefers-newest", func(t *testing.T) {
		path := corruptSnapshotPair(t, false)
		snap, entry, err := LoadSnapshotFallback(path, 2)
		if err != nil {
			t.Fatal(err)
		}
		if entry != path {
			t.Errorf("loaded %s, want the newest entry %s", entry, path)
		}
		if snap.Step != 8 {
			t.Errorf("snapshot at step %d, want 8", snap.Step)
		}
	})
}

// TestCorruptSnapshotHugeLength asserts a header that claims a 4 GiB
// body over an empty file is rejected as a torn write without the
// decoder allocating what the header claims.
func TestCorruptSnapshotHugeLength(t *testing.T) {
	data := binary.BigEndian.AppendUint64([]byte(snapMagic), 1<<32)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadSnapshot(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("got %v, want ErrCorruptSnapshot", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("decoding a %d-byte file allocated %d bytes", len(data), grew)
	}
}

// TestCorruptNetBitIdentity is the tentpole invariant over real TCP: a
// 3-rank cluster with an injected frame bit-flip (caught by the CRC32C
// trailer) and an injected NaN gradient (caught by the numeric guard)
// finishes byte-identical to the never-corrupted single-process run —
// for float64 and float32 mixed precision.
func TestCorruptNetBitIdentity(t *testing.T) {
	t.Run("float64", func(t *testing.T) { testCorruptNetBitIdentity[float64](t, false) })
	t.Run("float32-mixed", func(t *testing.T) { testCorruptNetBitIdentity[float32](t, true) })
}

func testCorruptNetBitIdentity[S tensor.Scalar](t *testing.T, master bool) {
	t.Helper()
	const p = 3
	modelCfg := dropoutConfig(11)
	want := goldenWeights[S](t, modelCfg, p, master)

	h := newNetHarness(t, p)
	results, errs, weights := runNetRanks[S](t, h, modelCfg, func(rank int, inj *chaos.Injector) Config {
		cfg := chaosTrainCfg(p, "", t)
		cfg.MasterWeights = master
		cfg.Chaos = inj
		cfg.Guard = train.GuardConfig{Policy: train.GuardSkip}
		return cfg
	}, "51:bitflip@3:r1,nanstep@6:r0")

	anomalies, recoveries := 0, 0
	for r := 0; r < p; r++ {
		if errs[r] != nil {
			t.Fatalf("rank %d: %v", r, errs[r])
		}
		if !bytes.Equal(weights[r], want) {
			t.Errorf("rank %d weights diverge from the never-corrupted run", r)
		}
		if results[r].Steps != 12 {
			t.Errorf("rank %d committed %d steps, want 12", r, results[r].Steps)
		}
		if results[r].GuardSkips != 0 {
			t.Errorf("rank %d GuardSkips = %d, want 0 (transient NaN clears on retry)", r, results[r].GuardSkips)
		}
		anomalies += results[r].Anomalies
		recoveries += results[r].Recoveries
	}
	if anomalies == 0 {
		t.Error("no anomalies recorded — the injected NaN never reached the guard")
	}
	if recoveries == 0 {
		t.Error("no recoveries recorded — the flipped frame was not caught by the CRC path")
	}
}

// infAtCorner is a criterion that plants +Inf in dL/dlogits at the
// top-left pixel of every batch whose labels are all class 2 — the
// marked sample of TestCorruptInfGradSameStepAcrossBackends. A corner is
// where the two 3×3 weight-gradient forms part ways: the direct kernel
// skips the taps that fall in the zero padding, the GEMM form multiplies
// them (Inf·0 = NaN).
type infAtCorner struct {
	nn.SoftmaxCrossEntropy[float32]
	marked bool
}

func (c *infAtCorner) Loss(logits *tensor.Tensor[float32], labels []uint8) (float64, error) {
	c.marked = bytes.Count(labels, []byte{2}) == len(labels)
	return c.SoftmaxCrossEntropy.Loss(logits, labels)
}

func (c *infAtCorner) Grad() *tensor.Tensor[float32] {
	g := c.SoftmaxCrossEntropy.Grad()
	if c.marked {
		g.Data[0] = float32(math.Inf(1))
	}
	return g
}

// TestCorruptInfGradSameStepAcrossBackends closes the one place the float
// backends may legally differ (nn.conv3x3WeightGrad's comment, ROADMAP
// conformance soft spot 3): for a non-finite dout the GEMM-form 3×3
// weight gradient (AVX2 hosts) and the direct form (everything else)
// produce different non-finite gradients. Both must still trip the guard
// on the same step, so hosts of either kind take the same recovery path:
// under the skip policy the one poisoned step is dropped — one skip, two
// anomalies (first sight and the reproducing retry) — and the final
// weights are the same bytes.
func TestCorruptInfGradSameStepAcrossBackends(t *testing.T) {
	samples := syntheticSamples(77, 8, 16)
	for i := range samples[5].Labels.Pix {
		samples[5].Labels.Pix[i] = 2
	}
	cfg := Config{Workers: 2, BatchPerWorker: 1, Epochs: 1, LR: 0.01, Seed: 5, MasterWeights: true,
		Guard: train.GuardConfig{Policy: train.GuardSkip}}
	prev := tensor.Float[float32]().Name
	defer func() {
		if err := tensor.SelectFloat[float32](prev); err != nil {
			t.Fatal(err)
		}
	}()
	type outcome struct {
		steps, anomalies, skips int
		weights                 [sha256.Size]byte
	}
	var runs []outcome
	for _, backend := range []string{"engine", "avx2"} {
		if err := tensor.SelectFloat[float32](backend); err != nil {
			if backend == "avx2" {
				t.Skip(err)
			}
			t.Fatal(err)
		}
		tr, err := New[float32](unet.FastConfig(3), cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < cfg.Workers; r++ {
			tr.Replica(r).SetCriterion(&infAtCorner{})
		}
		res, err := tr.Fit(samples)
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		got := outcome{res.Steps, res.Anomalies, res.GuardSkips, sha256.Sum256(weightsOf(tr))}
		if got.steps != 4 || got.skips != 1 || got.anomalies != 2 {
			t.Errorf("%s: %d steps, %d skipped, %d anomalies; want 4, 1, 2", backend, got.steps, got.skips, got.anomalies)
		}
		runs = append(runs, got)
	}
	if runs[0] != runs[1] {
		t.Fatalf("backends diverged on a non-finite gradient:\nengine %+v\navx2   %+v", runs[0], runs[1])
	}
}

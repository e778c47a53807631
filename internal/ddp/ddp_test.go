package ddp

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"seaice/internal/nn"
	"seaice/internal/noise"
	"seaice/internal/raster"
	"seaice/internal/ring"
	"seaice/internal/tensor"
	"seaice/internal/train"
	"seaice/internal/unet"
)

// syntheticSamples builds deterministic random tiles with random labels.
func syntheticSamples(seed uint64, n, size int) []train.Sample {
	rng := noise.NewRNG(seed, 1)
	out := make([]train.Sample, n)
	for i := range out {
		img := raster.NewRGB(size, size)
		for j := range img.Pix {
			img.Pix[j] = uint8(rng.Intn(256))
		}
		lab := raster.NewLabels(size, size)
		for j := range lab.Pix {
			lab.Pix[j] = raster.Class(rng.Intn(3))
		}
		out[i] = train.Sample{Image: img, Labels: lab}
	}
	return out
}

func noDropoutConfig(seed uint64) unet.Config {
	return unet.Config{Depth: 2, BaseChannels: 4, InChannels: 3, Classes: 3, DropoutRate: 0, Seed: seed}
}

// TestDDPStepMatchesSingleModel is the core synchronous-data-parallel
// equivalence theorem: a K-worker step over equal shards must produce the
// same weights as one step of a single model on the merged batch (with
// dropout disabled so stochastic masks cannot differ).
func TestDDPStepMatchesSingleModel(t *testing.T) {
	const workers = 4
	const perWorker = 2
	samples := syntheticSamples(77, workers*perWorker, 8)

	// reference: single model, merged batch
	ref, err := unet.New[float64](noDropoutConfig(5))
	if err != nil {
		t.Fatalf("ref model: %v", err)
	}
	refOpt := nn.NewAdam[float64](0.01)
	x, labels, err := train.ToTensor[float64](samples)
	if err != nil {
		t.Fatalf("tensor: %v", err)
	}
	nn.ZeroGrads(ref.Params())
	if _, err := ref.LossAndGrad(x, labels); err != nil {
		t.Fatalf("ref loss: %v", err)
	}
	refOpt.Step(ref.Params())

	// ddp: same init (same seed), round-robin shards
	tr, err := New[float64](noDropoutConfig(5), Config{Workers: workers, BatchPerWorker: perWorker, Epochs: 1, LR: 0.01, Seed: 9})
	if err != nil {
		t.Fatalf("trainer: %v", err)
	}
	shards := make([][]train.Sample, workers)
	for i, s := range samples {
		shards[i%workers] = append(shards[i%workers], s)
	}
	if _, err := tr.Step(shards); err != nil {
		t.Fatalf("step: %v", err)
	}

	// Weight comparison. The DDP gradient is the mean over workers of
	// per-worker means; with equal shard sizes that equals the merged-
	// batch mean, so weights must match to numerical precision.
	refParams := ref.Params()
	for r := 0; r < workers; r++ {
		got := tr.Replica(r).Params()
		for j := range refParams {
			for i := range refParams[j].W.Data {
				d := math.Abs(refParams[j].W.Data[i] - got[j].W.Data[i])
				if d > 1e-9 {
					t.Fatalf("rank %d param %s[%d] differs from single-model step by %g", r, refParams[j].Name, i, d)
				}
			}
		}
	}
}

// TestReplicasStaySynchronized: after several steps all replicas hold
// bit-identical weights.
func TestReplicasStaySynchronized(t *testing.T) {
	const workers = 3
	samples := syntheticSamples(88, 12, 8)
	tr, err := New[float64](noDropoutConfig(6), Config{Workers: workers, BatchPerWorker: 2, Epochs: 2, LR: 0.01, Seed: 10})
	if err != nil {
		t.Fatalf("trainer: %v", err)
	}
	if _, err := tr.Fit(samples); err != nil {
		t.Fatalf("fit: %v", err)
	}
	p0 := tr.Replica(0).Params()
	for r := 1; r < workers; r++ {
		pr := tr.Replica(r).Params()
		for j := range p0 {
			for i := range p0[j].W.Data {
				if p0[j].W.Data[i] != pr[j].W.Data[i] {
					t.Fatalf("rank %d param %s[%d] diverged", r, p0[j].Name, i)
				}
			}
		}
	}
}

// TestDDPLossDecreases: distributed training must actually learn.
func TestDDPLossDecreases(t *testing.T) {
	samples := syntheticSamples(99, 8, 8)
	tr, err := New[float64](noDropoutConfig(7), Config{Workers: 2, BatchPerWorker: 4, Epochs: 8, LR: 0.02, Seed: 11})
	if err != nil {
		t.Fatalf("trainer: %v", err)
	}
	res, err := tr.Fit(samples)
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	first := res.Epochs[0].Loss
	last := res.Epochs[len(res.Epochs)-1].Loss
	t.Logf("ddp loss %f → %f", first, last)
	if last >= first {
		t.Fatalf("ddp training did not reduce loss: %f → %f", first, last)
	}
}

// TestConfigErrors rejects invalid configurations.
func TestConfigErrors(t *testing.T) {
	for _, cfg := range []Config{
		{Workers: 0, BatchPerWorker: 1, Epochs: 1, LR: 0.01},
		{Workers: 1, BatchPerWorker: 0, Epochs: 1, LR: 0.01},
		{Workers: 1, BatchPerWorker: 1, Epochs: 0, LR: 0.01},
		{Workers: 1, BatchPerWorker: 1, Epochs: 1, LR: 0},
		{Workers: 1, BatchPerWorker: 1, Epochs: 1, LR: -1},
		{Workers: 1, BatchPerWorker: 1, Epochs: 1, LR: math.NaN()},
		{Workers: 1, BatchPerWorker: 1, Epochs: 1, LR: math.Inf(1)},
	} {
		if _, err := New[float64](noDropoutConfig(1), cfg); err == nil {
			t.Fatalf("New: config %+v should be rejected", cfg)
		}
		if cfg.Workers != 1 {
			continue
		}
		locals, err := ring.NewLocal[float64](1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewNet[float64](noDropoutConfig(1), cfg, locals[0]); err == nil {
			t.Fatalf("NewNet: config %+v should be rejected", cfg)
		}
	}
	if _, err := New[float64](noDropoutConfig(1), Config{Workers: 1, BatchPerWorker: 1, Epochs: 1, LR: 0.01}); err != nil {
		t.Fatalf("the valid config is rejected: %v", err)
	}
}

// TestComputeErrorEndsRun: a forward/backward failure on one rank (its
// shard mixes tile sizes) is not a lost worker — retrying would fail
// again — so Fit returns it, and its peers are not left waiting for the
// rank in the all-reduce.
func TestComputeErrorEndsRun(t *testing.T) {
	samples := syntheticSamples(5, 6, 8)
	samples[4] = syntheticSamples(6, 1, 16)[0]
	tr, err := New[float64](noDropoutConfig(2), Config{Workers: 3, BatchPerWorker: 2, Epochs: 1, LR: 0.01, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Fit(samples)
	var lost *ring.RankError
	if err == nil || errors.As(err, &lost) {
		t.Fatalf("Fit = %v, want the rank's compute error", err)
	}
	if res.Steps != 0 || res.Recoveries != 0 {
		t.Fatalf("committed %d steps with %d recoveries, want none", res.Steps, res.Recoveries)
	}
}

// TestBackendWeightParity is the end-to-end half of the float backends'
// determinism contract (internal/tensor backend.go): eight mixed-precision
// float32 steps of the FastConfig U-Net on two ranks — AVX2 GEMM panel,
// batched Winograd products and GEMM-form weight gradient on one side,
// the scalar engine kernels on the other — must end in weights with the
// same SHA-256.
func TestBackendWeightParity(t *testing.T) {
	samples := syntheticSamples(21, 16, 32)
	cfg := Config{Workers: 2, BatchPerWorker: 1, Epochs: 1, LR: 0.01, Seed: 5, MasterWeights: true}
	prev := tensor.Float[float32]().Name
	defer func() {
		if err := tensor.SelectFloat[float32](prev); err != nil {
			t.Fatal(err)
		}
	}()
	sums := map[string][sha256.Size]byte{}
	for _, backend := range []string{"engine", "avx2"} {
		if err := tensor.SelectFloat[float32](backend); err != nil {
			t.Skip(err)
		}
		tr, res := runFit[float32](t, unet.FastConfig(3), cfg, samples)
		if res.Steps != 8 {
			t.Fatalf("%s: %d steps, want 8", backend, res.Steps)
		}
		sums[backend] = sha256.Sum256(weightsOf(tr))
	}
	if sums["engine"] != sums["avx2"] {
		t.Fatalf("weights sha256 differ: engine %x, avx2 %x", sums["engine"], sums["avx2"])
	}
}

// TestGoldenTrainWeights pins training bit-identity to committed
// constants, so a refactor of the model or its kernels needs no parent
// binary to prove it moved nothing: eight steps of the FastConfig U-Net
// (dropout on) over two ranks on fixed synthetic samples must end in
// weights with these SHA-256 sums. The sums are properties of amd64
// builds (no FMA fusion, see tensor/matmul.go), where every float backend
// must reproduce them; on architectures whose compiler fuses multiply-add
// (arm64) the rounding differs, so the test skips there.
func TestGoldenTrainWeights(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden sums are recorded for amd64; GOARCH=%s may fuse multiply-add", runtime.GOARCH)
	}
	samples := syntheticSamples(21, 16, 32)
	cfg := Config{Workers: 2, BatchPerWorker: 1, Epochs: 1, LR: 0.01, Seed: 5}
	check := func(name, want string, weights []byte, steps int) {
		t.Helper()
		if steps != 8 {
			t.Fatalf("%s: %d steps, want 8", name, steps)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(weights)); got != want {
			t.Errorf("%s: weights sha256 %s, want %s", name, got, want)
		}
	}
	t.Run("f64", func(t *testing.T) {
		tr, res := runFit[float64](t, unet.FastConfig(3), cfg, samples)
		check("f64", "c6ac18074397adc04ca5f80f207fffb7750df7b6514b35fde0a118af65c10261", weightsOf(tr), res.Steps)
	})
	t.Run("f32-mixed", func(t *testing.T) {
		cfg := cfg
		cfg.MasterWeights = true
		tr, res := runFit[float32](t, unet.FastConfig(3), cfg, samples)
		check("f32-mixed", "854953bdf97d5d38f38a393e2f872dae6a8ad58ec68068b168580a528894cd4b", weightsOf(tr), res.Steps)
	})
}

// Top-level benchmarks, one (or more) per table and figure of the paper's
// evaluation section, measuring the real cost of each table's
// computational building blocks on the host that runs them. Where a table
// is a speedup on the paper's hardware (Tables I and III), the benchmark
// also reports the calibrated perfmodel prediction for that configuration
// as a custom metric; Table II is a closed-form model with no work of its
// own to time, so it has no benchmark here. The full table harness is
// cmd/seaice-bench.
package seaice_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"seaice/internal/autolabel"
	"seaice/internal/cloudfilter"
	"seaice/internal/core"
	"seaice/internal/dataset"
	"seaice/internal/ddp"
	"seaice/internal/metrics"
	"seaice/internal/nn"
	"seaice/internal/perfmodel"
	"seaice/internal/pool"
	"seaice/internal/raster"
	"seaice/internal/ring"
	"seaice/internal/scene"
	"seaice/internal/serve"
	"seaice/internal/tensor"
	"seaice/internal/train"
	"seaice/internal/unet"
)

// benchTiles renders a small tile workload once per process.
var benchTileCache []*raster.RGB

func benchTiles(b *testing.B) []*raster.RGB {
	b.Helper()
	if benchTileCache != nil {
		return benchTileCache
	}
	cfg := scene.DefaultConfig(555)
	cfg.W, cfg.H = 256, 256
	sc, err := scene.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tiles, _, err := raster.Split(sc.Image, 64, 64)
	if err != nil {
		b.Fatal(err)
	}
	for _, t := range tiles {
		benchTileCache = append(benchTileCache, t.Image)
	}
	return benchTileCache
}

// BenchmarkTable1_PoolAutolabel measures the Table I workload — filter +
// color-segmentation auto-labeling of tiles — through the worker pool at
// the paper's process counts, and reports the SMT-machine model's
// paper-hardware speedup as a metric (Fig 10's series).
func BenchmarkTable1_PoolAutolabel(b *testing.B) {
	tiles := benchTiles(b)
	machine := perfmodel.PaperWorkstation()
	for _, procs := range []int{1, 2, 4, 6, 8} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			p := pool.New(procs)
			b.ReportMetric(machine.Speedup(procs), "paper-speedup")
			for i := 0; i < b.N; i++ {
				_, err := pool.MapSlice(p, tiles, func(img *raster.RGB) (*raster.Labels, error) {
					return autolabel.LabelPaper(cloudfilter.FilterDefault(img).Image)
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchSamples builds a small labeled sample set for the training benches.
func benchSamples(b *testing.B, n, size int) []train.Sample {
	b.Helper()
	cfg := scene.DefaultConfig(777)
	cfg.W, cfg.H = 128, 128
	sc, err := scene.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	build := dataset.DefaultBuild()
	build.TileSize = size
	set, err := dataset.Build([]*scene.Scene{sc}, build)
	if err != nil {
		b.Fatal(err)
	}
	tiles := dataset.Subsample(set.Tiles, n, 1)
	return dataset.Samples(tiles, dataset.OriginalImages, dataset.AutoLabels)
}

// BenchmarkTable3_DDPStep measures one synchronous data-parallel training
// step (forward + backward + ring all-reduce + Adam) at the paper's GPU
// counts, reporting the calibrated DGX per-epoch virtual seconds (Fig 12's
// time-per-epoch series).
func BenchmarkTable3_DDPStep(b *testing.B) {
	dgx := perfmodel.PaperDGX()
	modelCfg := unet.Config{Depth: 2, BaseChannels: 4, InChannels: 3, Classes: 3, DropoutRate: 0, Seed: 3}
	for _, gpus := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("gpus=%d", gpus), func(b *testing.B) {
			samples := benchSamples(b, gpus*2, 16)
			tr, err := ddp.New[float64](modelCfg, ddp.Config{
				Workers: gpus, BatchPerWorker: 2, Epochs: 1, LR: 0.01, Seed: 4,
			})
			if err != nil {
				b.Fatal(err)
			}
			shards := make([][]train.Sample, gpus)
			for i, s := range samples {
				shards[i%gpus] = append(shards[i%gpus], s)
			}
			b.ReportMetric(dgx.EpochTime(gpus), "dgx-epoch-s")
			b.ReportMetric(dgx.Speedup(gpus), "paper-speedup")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Step(shards); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable4_UNetForward measures the inference cost underlying the
// Table IV/V evaluations: one U-Net forward pass per tile, for both the
// fast preset and the paper's full 28-conv-layer architecture.
func BenchmarkTable4_UNetForward(b *testing.B) {
	for _, preset := range []struct {
		name string
		cfg  unet.Config
		size int
	}{
		{"fast-64px", unet.FastConfig(1), 64},
		{"paper-32px", unet.PaperConfig(1), 32},
	} {
		b.Run(preset.name, func(b *testing.B) {
			m, err := unet.New[float64](preset.cfg)
			if err != nil {
				b.Fatal(err)
			}
			x := tensor.New[float64](1, 3, preset.size, preset.size)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Forward(x, false)
			}
		})
	}
}

// BenchmarkTable5_CloudBucketing measures the Table V dataset machinery:
// building cloud-coverage buckets over a tile set.
func BenchmarkTable5_CloudBucketing(b *testing.B) {
	cfg := scene.DefaultConfig(888)
	cfg.W, cfg.H = 256, 256
	sc, err := scene.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	build := dataset.DefaultBuild()
	build.TileSize = 32
	set, err := dataset.Build([]*scene.Scene{sc}, build)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cloudy, clear := dataset.CloudBuckets(set.Tiles, 0.10)
		if len(cloudy)+len(clear) != len(set.Tiles) {
			b.Fatal("buckets lost tiles")
		}
	}
}

// BenchmarkFig13_ConfusionAccumulate measures confusion-matrix
// accumulation over label maps (the Fig 13 evaluation inner loop).
func BenchmarkFig13_ConfusionAccumulate(b *testing.B) {
	truth := raster.NewLabels(256, 256)
	pred := raster.NewLabels(256, 256)
	for i := range truth.Pix {
		truth.Pix[i] = raster.Class(i % 3)
		pred.Pix[i] = raster.Class((i / 2) % 3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conf := metrics.NewConfusion(3)
		if err := conf.AddLabels(truth, pred); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSSIM_AutolabelQuality measures the §IV-B2 SSIM validation on a
// full scene.
func BenchmarkSSIM_AutolabelQuality(b *testing.B) {
	cfg := scene.DefaultConfig(999)
	sc, err := scene.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	lab, err := autolabel.LabelPaper(sc.Image)
	if err != nil {
		b.Fatal(err)
	}
	manual := sc.Truth.Render()
	auto := lab.Render()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := metrics.SSIMRGB(manual, auto); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSceneLabelThroughput measures the §IV-C2 sequential workload:
// thin-cloud/shadow filtering plus color segmentation of one full scene
// (the paper reports 349.26 s for 66 scenes at 2048²).
func BenchmarkSceneLabelThroughput(b *testing.B) {
	cfg := scene.DefaultConfig(1111)
	sc, err := scene.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		filtered := core.FilterSceneDefault(sc.Image)
		if _, err := core.LabelDefault(filtered); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblation_RingVsNaive compares the ring all-reduce against the
// gather-broadcast baseline on gradient-sized vectors — Horovod's
// bandwidth-optimality argument for the ring (§III-C1): each rank moves
// 2(p-1)/p of the vector instead of the root moving 2(p-1) copies.
func BenchmarkAblation_RingVsNaive(b *testing.B) {
	const n = 1 << 16
	makeVecs := func(p int) [][]float64 {
		out := make([][]float64, p)
		for r := range out {
			out[r] = make([]float64, n)
			for i := range out[r] {
				out[r][i] = float64(r + i)
			}
		}
		return out
	}
	for _, p := range []int{4, 8} {
		b.Run(fmt.Sprintf("ring/p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := ring.AllReduceSum(makeVecs(p)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("naive/p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := ring.NaiveAllReduceSum(makeVecs(p)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_FilterStages separates the cloud filter's cost into
// its full pipeline versus segmentation alone, quantifying what the
// thin-cloud/shadow correction costs per scene.
func BenchmarkAblation_FilterStages(b *testing.B) {
	cfg := scene.DefaultConfig(2222)
	cfg.W, cfg.H = 256, 256
	sc, err := scene.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("segment-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := autolabel.LabelPaper(sc.Image); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("filter+segment", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			filtered := cloudfilter.FilterDefault(sc.Image)
			if _, err := autolabel.LabelPaper(filtered.Image); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkServeThroughput compares online classification throughput:
// naive per-tile forward passes (the seed's inference loop) against the
// serving stack's micro-batched path — a fused-kernel inference session
// driven end-to-end through the scheduler (concurrent submits, bounded
// queue, no cache) — at all three compute precisions. Tiles/sec is
// reported as a metric; the batched path sustains ≥2× the naive rate,
// the pure float32 hot path sustains ≥1.6× the float64 batched-serve
// rate, and the int8 quantized engine sustains ≥2× the float32
// batched-serve rate. Recorded rows live in BENCH_infer.json.
func BenchmarkServeThroughput(b *testing.B) {
	b.Run("f64", benchServeThroughput[float64])
	b.Run("f32", benchServeThroughput[float32])
	b.Run("int8", benchServeThroughputInt8)
}

func benchServeThroughput[S tensor.Scalar](b *testing.B) {
	tiles := benchTiles(b) // 64 tiles of 64²
	m, err := unet.New[S](unet.FastConfig(1))
	if err != nil {
		b.Fatal(err)
	}

	b.Run("naive-per-tile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, img := range tiles {
				if _, err := core.PredictTile(m, img); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.N*len(tiles))/b.Elapsed().Seconds(), "tiles/s")
	})

	b.Run("batched-session", func(b *testing.B) {
		pred := core.NewSessionPredictor(m, 16)
		for i := 0; i < b.N; i++ {
			if _, err := pred.PredictTiles(tiles); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*len(tiles))/b.Elapsed().Seconds(), "tiles/s")
	})

	b.Run("batched-serve", func(b *testing.B) {
		cfg := serve.DefaultConfig()
		cfg.TileSize = 64
		cfg.CacheSize = 0
		cfg.QueueSize = len(tiles) * 2
		sched := serve.NewScheduler(cfg, nil)
		defer sched.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sched.SubmitTiles(m, tiles, time.Time{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*len(tiles))/b.Elapsed().Seconds(), "tiles/s")
	})
}

// benchServeThroughputInt8 is benchServeThroughput for the quantized
// engine: a fresh FastConfig master calibrated on the benchmark tiles and
// quantized (the seaice-train -quantize path, minus training). The naive
// path mints a predictor per tile, matching the seed loop's
// allocate-every-tile behavior.
func benchServeThroughputInt8(b *testing.B) {
	tiles := benchTiles(b)
	qm := benchQuantModel(b, tiles)

	b.Run("naive-per-tile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, img := range tiles {
				if _, err := qm.NewPredictor().PredictTiles([]*raster.RGB{img}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.N*len(tiles))/b.Elapsed().Seconds(), "tiles/s")
	})

	b.Run("batched-session", func(b *testing.B) {
		pred := core.NewSessionPredictor(qm, 16)
		for i := 0; i < b.N; i++ {
			if _, err := pred.PredictTiles(tiles); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*len(tiles))/b.Elapsed().Seconds(), "tiles/s")
	})

	b.Run("batched-serve", func(b *testing.B) {
		cfg := serve.DefaultConfig()
		cfg.TileSize = 64
		cfg.CacheSize = 0
		cfg.QueueSize = len(tiles) * 2
		sched := serve.NewScheduler(cfg, nil)
		defer sched.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sched.SubmitTiles(qm, tiles, time.Time{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*len(tiles))/b.Elapsed().Seconds(), "tiles/s")
	})
}

// benchQuantModel calibrates and quantizes a fresh FastConfig master on
// tiles — the seaice-train -quantize path, minus training.
func benchQuantModel(b *testing.B, tiles []*raster.RGB) *unet.QuantModel {
	b.Helper()
	m, err := unet.New[float64](unet.FastConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	cal, err := unet.Calibrate(m, tiles, 16)
	if err != nil {
		b.Fatal(err)
	}
	qm, err := unet.Quantize(m, cal)
	if err != nil {
		b.Fatal(err)
	}
	return qm
}

// BenchmarkServeCacheHit measures one unfiltered POST /classify over
// loopback HTTP on a caching f32 server, for a single 32² tile and a
// 256² scene (64 tiles): "miss" posts never-seen pixels every iteration
// (decode, scene key, filter, split, forward, stitch, store), "hit"
// re-posts one primed body (decode, scene key, lookup). The server's
// tile-weighted counters are the witness that a hit row did no filter
// or forward work: every tile a hit, no miss, no batch.
func BenchmarkServeCacheHit(b *testing.B) {
	m, err := unet.New[float32](unet.FastConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, shape := range []struct {
		name string
		side int
	}{{"tile32", 32}, {"scene256", 256}} {
		sceneCfg := scene.DefaultConfig(556)
		sceneCfg.W, sceneCfg.H = shape.side, shape.side
		sc, err := scene.Generate(sceneCfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, hit := range []bool{false, true} {
			name := shape.name + "/miss"
			if hit {
				name = shape.name + "/hit"
			}
			b.Run(name, func(b *testing.B) {
				cfg := serve.DefaultConfig()
				cfg.TileSize = 32
				reg := serve.NewRegistry()
				if err := reg.Add("default", m); err != nil {
					b.Fatal(err)
				}
				srv, err := serve.NewServer(cfg, reg)
				if err != nil {
					b.Fatal(err)
				}
				defer srv.Close()
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()

				img := sc.Image.Clone()
				var body bytes.Buffer
				post := func() {
					resp, err := http.Post(ts.URL+"/classify", "image/png", bytes.NewReader(body.Bytes()))
					if err != nil {
						b.Fatal(err)
					}
					_, err = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						b.Fatalf("status %d, read error %v", resp.StatusCode, err)
					}
				}
				if err := img.EncodePNG(&body); err != nil {
					b.Fatal(err)
				}
				post() // primes the hit rows, warms the connection for both
				before := srv.Stats()

				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if !hit {
						b.StopTimer()
						binary.LittleEndian.PutUint64(img.Pix, uint64(i)+1)
						body.Reset()
						if err := img.EncodePNG(&body); err != nil {
							b.Fatal(err)
						}
						b.StartTimer()
					}
					post()
				}
				b.StopTimer()

				after := srv.Stats()
				tiles := int64(b.N) * int64(shape.side/32) * int64(shape.side/32)
				hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
				if hit && (hits != tiles || misses != 0 || after.Batches != before.Batches) {
					b.Fatalf("hit row did work: %d hits, %d misses of %d tiles, %d batches",
						hits, misses, tiles, after.Batches-before.Batches)
				}
				if !hit && (hits != 0 || misses != tiles) {
					b.Fatalf("miss row hit the cache: %d hits, %d misses of %d tiles", hits, misses, tiles)
				}
			})
		}
	}
}

// BenchmarkInt8Conv measures the one integer kernel (tensor.Int8Ops.
// ConvU8S8) on the FastConfig U-Net's layer geometries at the serving
// batch of 16 tiles of 32² — driven row by row over halo-padded NHWC
// buffers exactly as the quantized layers drive it, without their
// requantization epilogue — per int8 backend, in Gop/s (2 ops per
// multiply-accumulate, pad lanes and pad channels not counted).
func BenchmarkInt8Conv(b *testing.B) {
	const batch = 16
	layers := []struct {
		name    string
		side, k int   // plane side, kernel size (3: three runs per window, 1: one)
		src     []int // input channels per source
		rows    int   // output channels (4·OutC for an up-convolution)
	}{
		{"enc0.conv1-3to8@32", 32, 3, []int{3}, 8},
		{"enc0.conv2-8to8@32", 32, 3, []int{8}, 8},
		{"enc1.conv2-16to16@16", 16, 3, []int{16}, 16},
		{"bottleneck.conv2-64to64@4", 4, 3, []int{64}, 64},
		{"up0-16to4x8@16", 16, 1, []int{16}, 32},
		{"dec0.conv1-8+8to8@32", 32, 3, []int{8, 8}, 8},
		{"head-8to3@32", 32, 1, []int{8}, 3},
	}
	prev := tensor.Int8().Name
	defer func() {
		if err := tensor.SelectInt8(prev); err != nil {
			b.Fatal(err)
		}
	}()
	for _, backend := range tensor.Int8BackendNames() {
		for _, l := range layers {
			b.Run(backend+"/"+l.name, func(b *testing.B) {
				if err := tensor.SelectInt8(backend); err != nil {
					b.Skip(err)
				}
				ops := tensor.Int8()
				ocPad := tensor.Int8LanePad(l.rows)
				acc := make([]int32, l.side*ocPad)
				type source struct {
					x, w []byte
					st   int // pixel stride: channels padded to 4
				}
				var srcs []source
				macs := 0
				for _, c := range l.src {
					st := (c + 3) &^ 3
					x := make([]byte, batch*(l.side+2)*(l.side+2)*st)
					for i := range x {
						x[i] = byte(i*7) & tensor.QuantMax
					}
					w := make([]int8, l.rows*l.k*l.k*st)
					for i := range w {
						w[i] = int8(i%255 - 127)
					}
					srcs = append(srcs, source{x, tensor.PackInt8Weights(w, l.rows, l.k*l.k*st), st})
					macs += batch * l.side * l.side * l.k * l.k * c * l.rows
				}
				pad := l.k / 2
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for img := 0; img < batch; img++ {
						for y := 0; y < l.side; y++ {
							for si, s := range srcs {
								off := ((img*(l.side+2)+y+1-pad)*(l.side+2) + 1 - pad) * s.st
								ops.ConvU8S8(acc, s.x[off:], s.w, l.side, s.st, l.k, l.k*s.st, (l.side+2)*s.st, ocPad, si > 0)
							}
						}
					}
				}
				b.ReportMetric(2*float64(macs)*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gop/s")
			})
		}
	}
}

// BenchmarkRequantRow times the int8 epilogue that follows every
// ConvU8S8 row — bias, fixed-point multiply, round, shift, zero-point,
// clamp to a byte — on one 32-pixel row per lane count, scalar ("ref")
// against the eight-lane AVX2 kernel (bit-identical bytes).
func BenchmarkRequantRow(b *testing.B) {
	const npx = 32
	prev := tensor.Int8().Name
	defer func() {
		if err := tensor.SelectInt8(prev); err != nil {
			b.Fatal(err)
		}
	}()
	for _, nl := range []int{8, 16, 32, 64} {
		lanes := make([]tensor.RequantLane, nl)
		for c := range lanes {
			lanes[c] = tensor.NewRequantLane(int32(c*37-500), tensor.NewRequant(0.004/float64(c+1)))
		}
		table := tensor.NewRequantTable(lanes)
		acc := make([]int32, npx*nl)
		for i := range acc {
			acc[i] = int32(i*2654435761) >> 14 // both signs, a realistic ±2¹⁷
		}
		dst := make([]uint8, npx*nl)
		for _, backend := range []string{"ref", "avx2"} {
			b.Run(fmt.Sprintf("%dlanes/%s", nl, backend), func(b *testing.B) {
				if err := tensor.SelectInt8(backend); err != nil {
					b.Skip(err)
				}
				ops := tensor.Int8()
				for i := 0; i < b.N; i++ {
					ops.RequantRow(dst, nl, acc, nl, npx, table, 0)
				}
				b.ReportMetric(float64(b.N)*npx*float64(nl)/b.Elapsed().Seconds(), "elements/s")
			})
		}
	}
}

// BenchmarkQuantForward times QuantSession on the serving stack's unit
// of int8 work — one full batch of 16 tiles of 32² — per int8 backend
// (bit-identical labels; the ratio to "ref" is what the kernel buys).
func BenchmarkQuantForward(b *testing.B) {
	tiles := benchTiles(b)
	qm := benchQuantModel(b, tiles)
	var batch []*raster.RGB
	for _, t := range tiles[:4] { // 4 tiles of 64² → 16 of 32²
		quarters, _, err := raster.Split(t, 32, 32)
		if err != nil {
			b.Fatal(err)
		}
		for _, q := range quarters {
			batch = append(batch, q.Image)
		}
	}
	prev := tensor.Int8().Name
	defer func() {
		if err := tensor.SelectInt8(prev); err != nil {
			b.Fatal(err)
		}
	}()
	for _, backend := range tensor.Int8BackendNames() {
		b.Run(backend, func(b *testing.B) {
			if err := tensor.SelectInt8(backend); err != nil {
				b.Skip(err)
			}
			s := unet.NewQuantSession(qm)
			if _, err := s.PredictTiles(batch); err != nil { // warm the grow-only buffers
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.PredictTiles(batch); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*len(batch))/b.Elapsed().Seconds(), "tiles/s")
		})
	}
}

// BenchmarkTrainStep measures one full training step (forward + backward
// + Adam) on the FastConfig U-Net at batch 8 on 64×64 tiles — the
// training engine's acceptance workload. "legacy-serial" is the pre-PR
// path: serial reference GEMM/im2col kernels allocating every
// intermediate; "engine" is the cache-blocked, buffer-reusing parallel
// float64 path; "engine-f32" runs the same kernels in float32 and
// "engine-f32-mixed" adds the float64 master-weight Adam (the training
// default). The recorded baseline-vs-after numbers live in
// BENCH_train.json; the f32 mixed path sustains ≥1.4× the f64 engine.
func BenchmarkTrainStep(b *testing.B) {
	samples := benchSamples(b, 8, 64)
	b.Run("legacy-serial", func(b *testing.B) {
		benchTrainStep[float64](b, samples, true, 1, false)
	})
	b.Run("engine", func(b *testing.B) {
		benchTrainStep[float64](b, samples, false, runtime.NumCPU(), false)
	})
	b.Run("engine-f32", func(b *testing.B) {
		benchTrainStep[float32](b, samples, false, runtime.NumCPU(), false)
	})
	// The training default, once per float32 kernel backend (bit-identical
	// weights, see ddp.TestBackendWeightParity): the ratio of the two is
	// what the AVX2 panel, the batched Winograd products and the GEMM-form
	// weight gradient buy a whole step.
	for _, backend := range []string{"engine", "avx2"} {
		b.Run("engine-f32-mixed/"+backend, func(b *testing.B) {
			useFloat32Backend(b, backend)
			benchTrainStep[float32](b, samples, false, runtime.NumCPU(), true)
		})
	}
}

// BenchmarkWinogradTransforms times the F(4×4,3×3) input transform (window
// gather + Bᵀ·d·B) and output transform (Aᵀ·M·A + bias + ReLU + scatter)
// on their own, for one 4-image rank step at the three U-Net levels a 32²
// tile trains through, per float32 backend: "engine" runs the scalar
// stencils; "avx2" runs the input transform eight tiles per register
// (bit-identical outputs, see nn.TestWinogradTransformConformance) and,
// until its kernel lands (ROADMAP), the same scalar output transform —
// the out4 rows are that kernel's baseline.
func BenchmarkWinogradTransforms(b *testing.B) {
	levels := []struct{ side, c int }{{32, 8}, {16, 16}, {8, 32}}
	for t, name := range []string{"in4", "out4"} {
		for _, l := range levels {
			for _, backend := range []string{"engine", "avx2"} {
				b.Run(fmt.Sprintf("%s/%dx%dx%d/%s", name, l.side, l.side, l.c, backend), func(b *testing.B) {
					useFloat32Backend(b, backend)
					const n = 4
					in, out := nn.WinogradTransforms4[float32](n, l.c, l.side, l.side)
					transform := [2]func(){in, out}[t]
					transform()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						transform()
					}
					b.ReportMetric(float64(b.N*n*(l.side/4)*(l.side/4))/b.Elapsed().Seconds(), "tiles/s")
				})
			}
		}
	}
}

// useFloat32Backend pins the float32 kernel backend (internal/tensor
// backend.go) for one sub-benchmark, skipping it on hosts that cannot run
// the backend, and restores the previous one afterwards.
func useFloat32Backend(b *testing.B, name string) {
	prev := tensor.Float[float32]().Name
	if err := tensor.SelectFloat[float32](name); err != nil {
		b.Skip(err)
	}
	b.Cleanup(func() {
		if err := tensor.SelectFloat[float32](prev); err != nil {
			b.Fatal(err)
		}
	})
}

func benchTrainStep[S tensor.Scalar](b *testing.B, samples []train.Sample, legacy bool, workers int, master bool) {
	prevLegacy := nn.SetLegacyKernels(legacy)
	defer nn.SetLegacyKernels(prevLegacy)
	pool.SetSharedWorkers(workers)
	defer pool.SetSharedWorkers(0)

	m, err := unet.New[S](unet.FastConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	x, labels, err := train.ToTensor[S](samples)
	if err != nil {
		b.Fatal(err)
	}
	params := m.Params()
	opt := nn.NewAdam[S](0.01)
	opt.Master = master
	step := func() {
		nn.ZeroGrads(params)
		if _, err := m.LossAndGrad(x, labels); err != nil {
			b.Fatal(err)
		}
		opt.Step(params)
	}
	step() // warm the grow-only scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkMatMul measures the GEMM core on a convolution-shaped product
// (16×72 × 72×32768, the batch-8 64²-tile encoder shape) for the serial
// reference kernels versus the blocked parallel engine, covering both
// product forms the conv layers use. Under f32, AB/engine pins the
// scalar engine panel and AB/avx2 the AVX2 one, so their ratio is the
// kernel-level gain of the SIMD backend.
func BenchmarkMatMul(b *testing.B) {
	b.Run("f64", benchMatMul[float64])
	b.Run("f32", benchMatMul[float32])
}

func benchMatMul[S tensor.Scalar](b *testing.B) {
	fill := func(t *tensor.Tensor[S], phase float64) {
		for i := range t.Data {
			t.Data[i] = S(float64(i%17)*0.25 - phase)
		}
	}
	const m, k, n = 16, 72, 8 * 64 * 64
	a := tensor.New[S](m, k)  // weights (OutC, C·KH·KW)
	bb := tensor.New[S](k, n) // im2col matrix
	at := tensor.New[S](k, m) // transposed weights for Aᵀ×B
	wide := tensor.New[S](k, n)
	fill(a, 0.1)
	fill(bb, 0.2)
	fill(at, 0.3)
	fill(wide, 0.6)

	b.Run("AB/ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.MatMulRef(a, bb)
		}
	})
	backends := []string{"engine"}
	if tensor.IsF32[S]() {
		backends = append(backends, "avx2")
	}
	for _, backend := range backends {
		b.Run("AB/"+backend, func(b *testing.B) {
			if tensor.IsF32[S]() {
				useFloat32Backend(b, backend)
			}
			for i := 0; i < b.N; i++ {
				tensor.MatMul(a, bb)
			}
			b.ReportMetric(2*m*k*n*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gflop/s")
		})
	}
	b.Run("ATB/ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.MatMulATBRef(at, wide)
		}
	})
	b.Run("ATB/engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.MatMulATB(at, wide)
		}
	})
}

// BenchmarkSceneGeneration measures the synthetic data substrate itself.
func BenchmarkSceneGeneration(b *testing.B) {
	cfg := scene.DefaultConfig(3333)
	cfg.W, cfg.H = 256, 256
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := scene.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

package core

import (
	"fmt"
	"time"

	"seaice/internal/autolabel"
	"seaice/internal/cloudfilter"
	"seaice/internal/dataset"
	"seaice/internal/ddp"
	"seaice/internal/perfmodel"
	"seaice/internal/pool"
	"seaice/internal/raster"
	"seaice/internal/train"
	"seaice/internal/unet"
)

// labelTile applies the auto-labeler to one image with the build's
// thresholds.
func labelTile(img *raster.RGB, build dataset.BuildConfig) (*raster.Labels, error) {
	return autolabel.Label(img, build.Labels)
}

// filterScene applies the build's thin-cloud/shadow filter to a scene.
func filterScene(img *raster.RGB, build dataset.BuildConfig) *raster.RGB {
	return cloudfilter.Filter(img, build.Filter).Image
}

// FilterScene applies the build's thin-cloud/shadow filter to a scene —
// the exported seam the serve coordinator uses to filter once at scene
// scale before sharding tiles across worker nodes.
func FilterScene(img *raster.RGB, build dataset.BuildConfig) *raster.RGB {
	return filterScene(img, build)
}

// FilterSceneDefault applies the default thin-cloud/shadow filter — the
// per-scene unit of work of the §IV-C2 throughput measurement.
func FilterSceneDefault(img *raster.RGB) *raster.RGB {
	return cloudfilter.FilterDefault(img).Image
}

// LabelDefault applies the paper's published auto-label thresholds.
func LabelDefault(img *raster.RGB) (*raster.Labels, error) {
	return autolabel.LabelPaper(img)
}

// ---------------------------------------------------------------------
// Table I / Fig 10 — Python-multiprocessing-style pool speedup
// ---------------------------------------------------------------------

// Table1Row is one row of Table I.
type Table1Row struct {
	Processes     int
	PaperTime     float64 // seconds, from the paper
	PaperSpeedup  float64
	ModelTime     float64 // SMT machine model prediction
	ModelSpeedup  float64
	MeasuredTime  float64 // real pool run on this host (seconds)
	MeasuredItems int
}

// Table1Paper holds the published Table I (sequential 17.40 s).
var Table1Paper = []Table1Row{
	{Processes: 1, PaperTime: 17.40, PaperSpeedup: 1.0},
	{Processes: 2, PaperTime: 8.89, PaperSpeedup: 2.0},
	{Processes: 4, PaperTime: 4.69, PaperSpeedup: 3.7},
	{Processes: 6, PaperTime: 4.10, PaperSpeedup: 4.2},
	{Processes: 8, PaperTime: 3.89, PaperSpeedup: 4.5},
}

// RunTable1 reproduces Table I: the calibrated SMT workstation model
// supplies the paper-hardware times, and (optionally) the real worker
// pool labels tiles to validate pool semantics and measure this host.
func RunTable1(tiles []*raster.RGB, measure bool) ([]Table1Row, error) {
	machine := perfmodel.PaperWorkstation()
	seq := Table1Paper[0].PaperTime

	rows := make([]Table1Row, len(Table1Paper))
	copy(rows, Table1Paper)
	for i := range rows {
		n := rows[i].Processes
		rows[i].ModelSpeedup = machine.Speedup(n)
		rows[i].ModelTime = machine.Time(seq, n)
		if !measure {
			continue
		}
		p := pool.New(n)
		start := time.Now()
		_, err := pool.MapSlice(p, tiles, func(img *raster.RGB) (*raster.Labels, error) {
			res := cloudfilter.FilterDefault(img)
			return autolabel.LabelPaper(res.Image)
		})
		if err != nil {
			return nil, fmt.Errorf("core: table1: %w", err)
		}
		rows[i].MeasuredTime = time.Since(start).Seconds()
		rows[i].MeasuredItems = len(tiles)
	}
	return rows, nil
}

// ---------------------------------------------------------------------
// Table II — PySpark map-reduce scaling on the paper's Dataproc cluster
// ---------------------------------------------------------------------

// Table2Row is one cell group of Table II.
type Table2Row struct {
	Executors, Cores                 int
	PaperLoad, PaperMap, PaperReduce float64
	PaperSpeedupLoad                 float64
	PaperSpeedupReduce               float64
	SimLoad, SimMap, SimReduce       float64
	SimSpeedupLoad, SimSpeedupReduce float64
}

// Table2Paper holds the published Table II.
var Table2Paper = []Table2Row{
	{Executors: 1, Cores: 1, PaperLoad: 108, PaperMap: 0.4, PaperReduce: 390, PaperSpeedupLoad: 1, PaperSpeedupReduce: 1},
	{Executors: 1, Cores: 2, PaperLoad: 58, PaperMap: 0.4, PaperReduce: 174, PaperSpeedupLoad: 1.86, PaperSpeedupReduce: 2.24},
	{Executors: 1, Cores: 4, PaperLoad: 33, PaperMap: 0.3, PaperReduce: 72, PaperSpeedupLoad: 3.27, PaperSpeedupReduce: 5.42},
	{Executors: 2, Cores: 1, PaperLoad: 56, PaperMap: 0.3, PaperReduce: 156, PaperSpeedupLoad: 1.93, PaperSpeedupReduce: 2.5},
	{Executors: 2, Cores: 2, PaperLoad: 31, PaperMap: 0.3, PaperReduce: 84, PaperSpeedupLoad: 3.48, PaperSpeedupReduce: 4.64},
	{Executors: 2, Cores: 4, PaperLoad: 19, PaperMap: 0.3, PaperReduce: 41, PaperSpeedupLoad: 5.68, PaperSpeedupReduce: 9.51},
	{Executors: 4, Cores: 1, PaperLoad: 31, PaperMap: 0.2, PaperReduce: 78, PaperSpeedupLoad: 3.48, PaperSpeedupReduce: 5},
	{Executors: 4, Cores: 2, PaperLoad: 17, PaperMap: 0.2, PaperReduce: 39, PaperSpeedupLoad: 6.35, PaperSpeedupReduce: 10},
	{Executors: 4, Cores: 4, PaperLoad: 12, PaperMap: 0.3, PaperReduce: 24, PaperSpeedupLoad: 9, PaperSpeedupReduce: 16.25},
}

// RunTable2 reproduces Table II from the calibrated PySpark stage models
// for every executor×core configuration: the load stage (tiles read into
// the distributed dataset), the lazy map registering the auto-label UDF
// (a constant cost: no executor runs it yet), and the reduce/collect
// stage that executes it.
// Speedups are against the 1×1 row, as the paper's are. The models are
// closed forms of (executors, cores), so the table is the same on every
// host and needs no input.
func RunTable2() []Table2Row {
	load, reduce := perfmodel.PaperLoadStage(), perfmodel.PaperReduceStage()
	rows := make([]Table2Row, len(Table2Paper))
	copy(rows, Table2Paper)
	for i := range rows {
		e, c := rows[i].Executors, rows[i].Cores
		rows[i].SimLoad = load.Time(e, c)
		rows[i].SimMap = perfmodel.PaperMapTime
		rows[i].SimReduce = reduce.Time(e, c)
		rows[i].SimSpeedupLoad = load.Speedup(e, c)
		rows[i].SimSpeedupReduce = reduce.Speedup(e, c)
	}
	return rows
}

// ---------------------------------------------------------------------
// Table III / Fig 12 — Horovod distributed U-Net training
// ---------------------------------------------------------------------

// Table3Row is one row of Table III.
type Table3Row struct {
	GPUs            int
	PaperTotal      float64
	PaperPerEpoch   float64
	PaperThroughput float64
	PaperSpeedup    float64
	SimTotal        float64
	SimPerEpoch     float64
	SimThroughput   float64
	SimSpeedup      float64
	FinalLoss       float64
}

// Table3Paper holds the published Table III (50 epochs, batch 32/GPU,
// 3379 training tiles = 80% of 4224).
var Table3Paper = []Table3Row{
	{GPUs: 1, PaperTotal: 280.72, PaperPerEpoch: 5.5, PaperThroughput: 585.88, PaperSpeedup: 1.00},
	{GPUs: 2, PaperTotal: 142.98, PaperPerEpoch: 2.778, PaperThroughput: 1160.81, PaperSpeedup: 1.96},
	{GPUs: 4, PaperTotal: 74.09, PaperPerEpoch: 1.45, PaperThroughput: 2229.56, PaperSpeedup: 3.79},
	{GPUs: 6, PaperTotal: 51.56, PaperPerEpoch: 0.97, PaperThroughput: 3330.03, PaperSpeedup: 5.44},
	{GPUs: 8, PaperTotal: 38.91, PaperPerEpoch: 0.79, PaperThroughput: 4248.56, PaperSpeedup: 7.21},
}

// Table3Config scales the real training the harness runs per GPU count.
type Table3Config struct {
	Samples    []train.Sample
	Model      unet.Config
	Epochs     int // epochs the DGX model's totals cover (the paper's 50)
	RealEpochs int // epochs of real gradient work per configuration
	BatchPer   int
	LR         float64
	Seed       uint64
}

// RunTable3 reproduces Table III: per GPU count it runs real synchronous
// data-parallel training (goroutine GPUs + ring all-reduce) on the given
// sample set for RealEpochs, and reports the paper-scale timing from the
// calibrated DGX model (perfmodel.PaperDGX) for Epochs epochs with the
// paper's training-set size.
func RunTable3(cfg Table3Config) ([]Table3Row, error) {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 50
	}
	if cfg.RealEpochs <= 0 {
		cfg.RealEpochs = 1
	}
	dgx := perfmodel.PaperDGX()
	const paperTrainSize = 3379 // 80% of 4224 tiles

	rows := make([]Table3Row, len(Table3Paper))
	copy(rows, Table3Paper)
	for i := range rows {
		p := rows[i].GPUs
		tr, err := ddp.New[float64](cfg.Model, ddp.Config{
			Workers:        p,
			BatchPerWorker: cfg.BatchPer,
			Epochs:         cfg.RealEpochs,
			LR:             cfg.LR,
			Seed:           cfg.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("core: table3: %w", err)
		}
		res, err := tr.Fit(cfg.Samples)
		if err != nil {
			return nil, fmt.Errorf("core: table3 (%d GPUs): %w", p, err)
		}
		rows[i].FinalLoss = res.Epochs[len(res.Epochs)-1].Loss
		rows[i].SimPerEpoch = dgx.EpochTime(p)
		rows[i].SimTotal = dgx.TotalTime(p, cfg.Epochs)
		rows[i].SimThroughput = dgx.Throughput(p, paperTrainSize)
		rows[i].SimSpeedup = dgx.Speedup(p)
	}
	return rows, nil
}

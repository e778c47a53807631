package core

import (
	"fmt"
	"path/filepath"

	"seaice/internal/raster"
	"seaice/internal/report"
)

// Table1Report renders Table I (plus Fig 10's speedup series).
func Table1Report(rows []Table1Row) *report.Table {
	t := report.NewTable(
		"Table I — multiprocessing-based auto-labeling (paper vs SMT-machine model vs this host)",
		"processes", "paper time (s)", "paper speedup", "model time (s)", "model speedup", "host time (s)")
	for _, r := range rows {
		host := "-"
		if r.MeasuredTime > 0 {
			host = report.F(r.MeasuredTime)
		}
		t.AddRow(report.I(r.Processes), report.F(r.PaperTime), report.F1(r.PaperSpeedup),
			report.F(r.ModelTime), report.F(r.ModelSpeedup), host)
	}
	return t
}

// Table2Report renders Table II.
func Table2Report(rows []Table2Row) *report.Table {
	t := report.NewTable(
		"Table II — PySpark-style auto-labeling on the paper's Dataproc cluster (paper vs calibrated stage model)",
		"exec", "cores",
		"paper load", "sim load", "paper map", "sim map", "paper reduce", "sim reduce",
		"paper spd-load", "sim spd-load", "paper spd-reduce", "sim spd-reduce")
	for _, r := range rows {
		t.AddRow(report.I(r.Executors), report.I(r.Cores),
			report.F(r.PaperLoad), report.F(r.SimLoad),
			report.F(r.PaperMap), report.F(r.SimMap),
			report.F(r.PaperReduce), report.F(r.SimReduce),
			report.F(r.PaperSpeedupLoad), report.F(r.SimSpeedupLoad),
			report.F(r.PaperSpeedupReduce), report.F(r.SimSpeedupReduce))
	}
	return t
}

// Table3Report renders Table III (Fig 12's four series are its columns).
func Table3Report(rows []Table3Row) *report.Table {
	t := report.NewTable(
		"Table III — Horovod-style distributed U-Net training (paper vs simulated DGX; real ring all-reduce beneath)",
		"GPUs", "paper total (s)", "sim total (s)", "paper s/epoch", "sim s/epoch",
		"paper img/s", "sim img/s", "paper speedup", "sim speedup", "final loss")
	for _, r := range rows {
		t.AddRow(report.I(r.GPUs),
			report.F(r.PaperTotal), report.F(r.SimTotal),
			report.F(r.PaperPerEpoch), report.F(r.SimPerEpoch),
			report.F(r.PaperThroughput), report.F(r.SimThroughput),
			report.F(r.PaperSpeedup), report.F(r.SimSpeedup),
			fmt.Sprintf("%.4f", r.FinalLoss))
	}
	return t
}

// Table4Report renders Table IV: overall classification accuracy.
func Table4Report(r *AccuracyResult) *report.Table {
	t := report.NewTable(
		"Table IV — U-Net sea-ice classification accuracy (paper → reproduced)",
		"dataset", "U-Net-Man", "U-Net-Auto", "paper Man", "paper Auto")
	t.AddRow("original S2 images", report.Pct(r.ManOrig.Accuracy), report.Pct(r.AutoOrig.Accuracy), "91.39%", "90.18%")
	t.AddRow("thin cloud & shadow filtered", report.Pct(r.ManFilt.Accuracy), report.Pct(r.AutoFilt.Accuracy), "98.40%", "98.97%")
	return t
}

// Table5Report renders Table V: accuracy by cloud/shadow coverage.
func Table5Report(r *AccuracyResult) *report.Table {
	t := report.NewTable(
		"Table V — validation accuracy by cloud/shadow coverage (paper → reproduced)",
		"bucket", "images", "U-Net-Man", "U-Net-Auto", "paper Man", "paper Auto")
	t.AddRow(">10% cloud/shadow", "original", report.Pct(r.CloudyManOrig.Accuracy), report.Pct(r.CloudyAutoOrig.Accuracy), "88.74%", "79.91%")
	t.AddRow(">10% cloud/shadow", "filtered", report.Pct(r.CloudyManFilt.Accuracy), report.Pct(r.CloudyAutoFilt.Accuracy), "98.91%", "99.28%")
	t.AddRow("<10% cloud/shadow", "original", report.Pct(r.ClearManOrig.Accuracy), report.Pct(r.ClearAutoOrig.Accuracy), "92.27%", "93.60%")
	t.AddRow("<10% cloud/shadow", "filtered", report.Pct(r.ClearManFilt.Accuracy), report.Pct(r.ClearAutoFilt.Accuracy), "98.23%", "98.87%")
	return t
}

// Fig13Report renders the six confusion matrices of Fig 13 as text.
func Fig13Report(r *AccuracyResult) string {
	out := "Fig 13 — confusion matrices (rows = true class, diagonal = per-class accuracy)\n\n"
	panels := []struct {
		name string
		cell Cell
	}{
		{"U-Net-Man, >10% cloud, original", r.CloudyManOrig},
		{"U-Net-Auto, >10% cloud, original", r.CloudyAutoOrig},
		{"U-Net-Man, >10% cloud, filtered", r.CloudyManFilt},
		{"U-Net-Auto, >10% cloud, filtered", r.CloudyAutoFilt},
		{"U-Net-Man, <10% cloud, original", r.ClearManOrig},
		{"U-Net-Auto, <10% cloud, original", r.ClearAutoOrig},
	}
	for _, p := range panels {
		if p.cell.Confusion == nil {
			continue
		}
		out += p.name + ":\n" + p.cell.Confusion.String() + "\n"
	}
	return out
}

// SSIMReport renders the §IV-B2 auto-label validation numbers.
func SSIMReport(r *AccuracyResult) *report.Table {
	t := report.NewTable(
		"§IV-B2 — auto-label SSIM vs manual labels (paper → reproduced)",
		"imagery", "reproduced", "paper")
	t.AddRow("original S2", report.F(r.SSIMOriginal), "0.89")
	t.AddRow("cloud & shadow filtered", report.F(r.SSIMFiltered), "0.9964")
	return t
}

// WriteFig14Panels writes qualitative prediction panels (original / manual
// ground truth / U-Net-Man prediction / U-Net-Auto prediction) for the
// first n test tiles to dir, reproducing Fig 14.
func WriteFig14Panels(r *AccuracyResult, dir string, n int) ([]string, error) {
	if r.UNetMan == nil || r.UNetAuto == nil {
		return nil, fmt.Errorf("core: models not trained")
	}
	test := r.Test[:min(n, len(r.Test))]
	filtered := make([]*raster.RGB, len(test))
	for i, tile := range test {
		filtered[i] = tile.Filtered
	}
	manPred, err := NewSessionPredictor(r.UNetMan, 0).PredictTiles(filtered)
	if err != nil {
		return nil, err
	}
	autoPred, err := NewSessionPredictor(r.UNetAuto, 0).PredictTiles(filtered)
	if err != nil {
		return nil, err
	}
	var paths []string
	for i, tile := range test {
		panel, err := raster.SideBySide(tile.Original, tile.Manual.Render(), manPred[i].Render(), autoPred[i].Render())
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("fig14_tile%02d.png", i))
		if err := panel.WritePNG(path); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}

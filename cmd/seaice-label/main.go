// Command seaice-label runs the data-preparation half of the workflow:
// it generates (or loads) Sentinel-2-like scenes, applies the thin-cloud
// and shadow filter, auto-labels them with the selected labeling engine
// (HSV thresholds, mini-batch K-means, or a Gaussian mixture), writes
// the imagery and label maps as PNGs, and reports the auto-label SSIM
// against the manual (ground-truth) labels — §III-A/B of the paper.
//
// Usage:
//
//	seaice-label -scenes 4 -size 512 -seed 7 -out ./out
//	seaice-label -labeler kmeans -scenes 4 -out ./out
//	seaice-label -labeler hsv,kmeans,gmm -compare -out ./out
//	seaice-label -demo -out ./out    # one annotated sample scene
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"seaice/internal/autolabel"
	"seaice/internal/cloudfilter"
	"seaice/internal/labeler"
	"seaice/internal/metrics"
	"seaice/internal/pool"
	"seaice/internal/raster"
	"seaice/internal/scene"
)

// options carries the parsed flags.
type options struct {
	scenes  int
	size    int
	seed    uint64
	outDir  string
	compare bool
	demo    bool
	procs   int

	// engines holds the parsed -labeler list: one engine, or with
	// -compare at least two (a single non-hsv spec is compared against
	// the paper's HSV thresholder).
	engines []labeler.Labeler
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("seaice-label: ")

	o, err := parseFlags(os.Args[1:], flag.ExitOnError)
	if err != nil {
		log.Fatal(err)
	}
	pool.SetSharedWorkers(o.procs)

	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		log.Fatalf("creating %s: %v", o.outDir, err)
	}

	if o.demo {
		if err := runDemo(o.outDir, o.seed, o.size); err != nil {
			log.Fatal(err)
		}
		return
	}

	cc := scene.DefaultCollection(o.seed)
	cc.Scenes = o.scenes
	cc.W, cc.H = o.size, o.size
	scenes, err := scene.GenerateCollection(cc)
	if err != nil {
		log.Fatal(err)
	}

	if o.compare {
		if err := runCompare(scenes, o.engines, o.outDir); err != nil {
			log.Fatal(err)
		}
		return
	}

	eng := o.engines[0]
	var ssimOrig, ssimFilt float64
	for i, sc := range scenes {
		res := cloudfilter.FilterDefault(sc.Image)
		labOrig, err := eng.Label(sc.Image)
		if err != nil {
			log.Fatal(err)
		}
		labFilt, err := eng.Label(res.Image)
		if err != nil {
			log.Fatal(err)
		}

		manual := sc.Truth.Render()
		so, err := metrics.SSIMRGB(manual, labOrig.Render())
		if err != nil {
			log.Fatal(err)
		}
		sf, err := metrics.SSIMRGB(manual, labFilt.Render())
		if err != nil {
			log.Fatal(err)
		}
		ssimOrig += so
		ssimFilt += sf

		prefix := filepath.Join(o.outDir, fmt.Sprintf("scene%02d", i))
		for name, img := range map[string]*raster.RGB{
			"":          sc.Image,
			"_filtered": res.Image,
			"_manual":   manual,
			"_auto":     labFilt.Render(),
		} {
			if err := img.WritePNG(prefix + name + ".png"); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("scene %02d: cloud %5.1f%%  SSIM original %.4f  filtered %.4f\n",
			i, 100*sc.CloudFraction, so, sf)
	}
	n := float64(len(scenes))
	fmt.Printf("\n%s auto-label SSIM vs manual: original %.4f, filtered %.4f (paper, hsv: 0.89 / 0.9964)\n",
		eng.Name(), ssimOrig/n, ssimFilt/n)
	fmt.Printf("outputs in %s\n", o.outDir)
}

// parseFlags parses the command line and checks everything about it that
// can be checked before any work starts — the -labeler specs included —
// so a bad command line creates no output directory; main exits on its
// error.
func parseFlags(args []string, onError flag.ErrorHandling) (options, error) {
	var o options
	fs := flag.NewFlagSet("seaice-label", onError)
	fs.IntVar(&o.scenes, "scenes", 4, "number of scenes to generate")
	fs.IntVar(&o.size, "size", 512, "scene width and height in pixels")
	fs.Uint64Var(&o.seed, "seed", 2019, "campaign seed (November 2019 vibes)")
	fs.StringVar(&o.outDir, "out", "out", "output directory")
	spec := fs.String("labeler", "hsv", "labeling engine: hsv|kmeans|gmm[:k] (comma-separated list with -compare)")
	fs.BoolVar(&o.compare, "compare", false, "emit a labeler-agreement report instead of PNG products")
	fs.BoolVar(&o.demo, "demo", false, "write one fully annotated demo scene and exit")
	fs.IntVar(&o.procs, "procs", 0, "worker threads for the labeling kernels (0 = all cores); never changes outputs, only wall-clock")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.scenes < 1 {
		return o, fmt.Errorf("-scenes %d: want at least one scene", o.scenes)
	}
	if o.size <= 0 {
		return o, fmt.Errorf("-size %d: want a positive scene size", o.size)
	}
	specs := []string{*spec}
	if o.compare {
		specs = strings.Split(*spec, ",")
	}
	for _, s := range specs {
		eng, err := labeler.Parse(strings.TrimSpace(s), o.seed)
		if err != nil {
			return o, err
		}
		o.engines = append(o.engines, eng)
	}
	if o.compare && len(o.engines) == 1 {
		if o.engines[0].Name() == "hsv" {
			return o, errors.New("-compare needs at least two distinct engines (e.g. -labeler hsv,kmeans,gmm)")
		}
		o.engines = append([]labeler.Labeler{labeler.PaperHSV()}, o.engines...)
	}
	return o, nil
}

// runCompare filters every scene and runs the labeler-agreement report
// over the engines. The report is printed and written to
// <out>/agreement.txt; it is bit-reproducible for a fixed campaign seed.
func runCompare(scenes []*scene.Scene, engines []labeler.Labeler, outDir string) error {
	imgs := make([]*raster.RGB, len(scenes))
	for i, sc := range scenes {
		imgs[i] = cloudfilter.FilterDefault(sc.Image).Image
	}
	report, err := labeler.Compare(imgs, engines)
	if err != nil {
		return err
	}
	fmt.Print(report)
	path := filepath.Join(outDir, "agreement.txt")
	if err := os.WriteFile(path, []byte(report), 0o644); err != nil {
		return err
	}
	fmt.Printf("report written to %s\n", path)
	return nil
}

// runDemo writes one scene with every intermediate product, the material
// of the paper's Figs 3–6 and 11.
func runDemo(outDir string, seed uint64, size int) error {
	cfg := scene.DefaultConfig(seed)
	cfg.W, cfg.H = size, size
	sc, err := scene.Generate(cfg)
	if err != nil {
		return err
	}
	res := cloudfilter.FilterDefault(sc.Image)
	labOrig, err := autolabel.LabelPaper(sc.Image)
	if err != nil {
		return err
	}
	labFilt, err := autolabel.LabelPaper(res.Image)
	if err != nil {
		return err
	}

	outputs := map[string]*raster.RGB{
		"demo_observed.png":      sc.Image,
		"demo_clean.png":         sc.Clean,
		"demo_filtered.png":      res.Image,
		"demo_manual_labels.png": sc.Truth.Render(),
		"demo_auto_original.png": labOrig.Render(),
		"demo_auto_filtered.png": labFilt.Render(),
	}
	for name, img := range outputs {
		if err := img.WritePNG(filepath.Join(outDir, name)); err != nil {
			return err
		}
	}
	if err := res.CloudMask.WritePNG(filepath.Join(outDir, "demo_cloudmask_est.png")); err != nil {
		return err
	}
	if err := sc.CloudMask.WritePNG(filepath.Join(outDir, "demo_cloudmask_true.png")); err != nil {
		return err
	}
	panel, err := raster.SideBySide(sc.Image, res.Image, sc.Truth.Render(), labFilt.Render())
	if err != nil {
		return err
	}
	if err := panel.WritePNG(filepath.Join(outDir, "demo_panel.png")); err != nil {
		return err
	}
	fmt.Printf("demo scene: cloud fraction %.1f%%, outputs in %s\n", 100*sc.CloudFraction, outDir)
	return nil
}

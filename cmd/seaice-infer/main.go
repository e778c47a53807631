// Command seaice-infer reproduces the paper's inference workflow (Fig 9):
// it takes a big scene (a PNG, or a freshly generated synthetic scene),
// splits it into tiles, runs the thin-cloud/shadow filter, classifies
// every tile with a trained U-Net checkpoint, and stitches the prediction
// back into a scene-sized label map.
//
// Usage:
//
//	seaice-infer -ckpt unet.ckpt -seed 99 -out pred.png
//	seaice-infer -ckpt unet.ckpt -in scene.png -out pred.png
//	seaice-infer -ckpt unet.ckpt -precision f64       # float64 reference numerics
//	seaice-infer -ckpt unet.q.ckpt -precision int8    # quantized engine
//
// Inference runs in float32 by default (the serving hot path's
// precision); float checkpoints of either precision load into either,
// and a quantized checkpoint (seaice-train -quantize) serves all three
// rungs — its embedded float64 master backs f64/f32, its calibrated
// scale tables rebuild the int8 engine bit-deterministically.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"seaice/internal/core"
	"seaice/internal/dataset"
	"seaice/internal/metrics"
	"seaice/internal/raster"
	"seaice/internal/scene"
	"seaice/internal/serve"
)

// options carries the parsed flags.
type options struct {
	ckpt      string
	in        string
	size      int
	tile      int
	seed      uint64
	out       string
	precision string
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("seaice-infer: ")

	o, err := parseFlags(os.Args[1:], flag.ExitOnError)
	if err != nil {
		log.Fatal(err)
	}
	run(o)
}

// parseFlags parses the command line and checks everything about it that
// can be checked before the checkpoint loads or a scene is generated;
// main exits on its error. A -size that -tile does not divide is refused
// only for generated scenes: an -in PNG's size is known once it is read.
func parseFlags(args []string, onError flag.ErrorHandling) (options, error) {
	var o options
	fs := flag.NewFlagSet("seaice-infer", onError)
	fs.StringVar(&o.ckpt, "ckpt", "unet.ckpt", "U-Net checkpoint from seaice-train")
	fs.StringVar(&o.in, "in", "", "input scene PNG (empty: generate a synthetic scene)")
	fs.IntVar(&o.size, "size", 256, "generated scene size (when -in is empty)")
	fs.IntVar(&o.tile, "tile", 32, "inference tile size")
	fs.Uint64Var(&o.seed, "seed", 99, "generated scene seed")
	fs.StringVar(&o.out, "out", "prediction.png", "output label-map PNG")
	fs.StringVar(&o.precision, "precision", "f32", "inference precision: f32 | f64 | int8")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	var err error
	if o.precision, err = serve.ParsePrecision(o.precision); err != nil {
		return o, err
	}
	if o.tile <= 0 {
		return o, fmt.Errorf("-tile %d: want a positive tile size", o.tile)
	}
	if o.in == "" {
		if o.size <= 0 {
			return o, fmt.Errorf("-size %d: want a positive scene size", o.size)
		}
		if o.size%o.tile != 0 {
			return o, fmt.Errorf("-size %d is not a multiple of -tile %d", o.size, o.tile)
		}
	}
	return o, nil
}

// run loads the checkpoint and performs the Fig 9 workflow in the chosen
// compute precision.
func run(o options) {
	engine, err := serve.LoadEngine(o.ckpt, o.precision)
	if err != nil {
		log.Fatal(err)
	}
	if m, ok := engine.(interface {
		NumConvLayers() int
		NumParams() int
	}); ok {
		log.Printf("loaded %d-conv-layer U-Net (%d parameters, %s)",
			m.NumConvLayers(), m.NumParams(), engine.Precision())
	} else {
		log.Printf("loaded %d-conv-layer U-Net (%s engine)",
			engine.Config().NumConvLayers(), engine.Precision())
	}

	var img *raster.RGB
	var truth *raster.Labels
	if o.in != "" {
		img, err = raster.ReadPNG(o.in)
		if err != nil {
			log.Fatal(err)
		}
	} else {
		cfg := scene.DefaultConfig(o.seed)
		cfg.W, cfg.H = o.size, o.size
		sc, err := scene.Generate(cfg)
		if err != nil {
			log.Fatal(err)
		}
		img, truth = sc.Image, sc.Truth
		log.Printf("generated synthetic scene (cloud fraction %.1f%%)", 100*sc.CloudFraction)
	}

	pred, err := core.Inference(engine, img, o.tile, dataset.DefaultBuild())
	if err != nil {
		log.Fatal(err)
	}
	if err := pred.Render().WritePNG(o.out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("prediction written to %s\n", o.out)

	if truth != nil {
		acc, err := metrics.PixelAccuracy(truth, pred)
		if err != nil {
			log.Fatal(err)
		}
		counts := pred.Counts()
		fmt.Printf("accuracy vs ground truth: %.2f%%\n", 100*acc)
		fmt.Printf("class cover: water %.1f%%, thin %.1f%%, thick %.1f%%\n",
			100*float64(counts[raster.ClassWater])/float64(len(pred.Pix)),
			100*float64(counts[raster.ClassThinIce])/float64(len(pred.Pix)),
			100*float64(counts[raster.ClassThickIce])/float64(len(pred.Pix)))
	}
}

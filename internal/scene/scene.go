// Package scene synthesizes Sentinel-2-like RGB scenes of polar sea ice
// with per-pixel ground truth. It substitutes for the paper's Google Earth
// Engine imagery of the Ross Sea (66 scenes, November 2019), which is not
// available offline.
//
// The generator reproduces the optical structure the paper's pipeline
// depends on:
//
//   - An ice-concentration field (domain-warped fBm) partitions the scene
//     into thick/snow-covered ice, thin/young ice, and open water, with
//     ridged-noise leads (narrow linear cracks) carved through the pack —
//     the same three WMO-style classes the paper labels.
//   - Rendering keeps each class inside the paper's HSV bands: thick ice
//     value ≥ 205, thin ice value in [31,204], open water value ≤ 30
//     (OpenCV 8-bit convention), with natural in-class texture.
//   - Thin clouds are a smooth, low-frequency additive veil (surface is
//     alpha-blended toward a bright veil color), and every cloud casts a
//     displaced multiplicative shadow — exactly the two disturbances the
//     paper's thin-cloud/shadow filter removes. Clouds brighten dark
//     surfaces (water and thin ice read as ice) while shadows darken
//     thick ice (reads as thin ice), reproducing the confusion structure
//     of the paper's Fig 13.
//
// Everything is deterministic in Config.Seed, so the whole experiment
// suite is reproducible. Generation is a pure function of its config —
// no shared state — so the streaming pipeline's stage workers render
// scenes concurrently (GenerateAt) with results identical to the serial
// GenerateCollection loop: each Generate call builds its own four
// noise.Samplers (ice concentration, leads, texture, cloud veil), whose
// lattice-cell caches are not safe to share.
//
// The veil is evaluated once per point of the union of the scene and its
// sun-displaced copy: CloudOpacity is filled first, and the shadow at
// (x, y) reads the veil at (x+OffsetX, y+OffsetY) from it, or evaluates
// that point on the spot when it falls outside the scene. As in the
// noise package, products that feed a sum are rounded explicitly, so no
// target fuses them into a multiply-add.
package scene

import (
	"fmt"

	"seaice/internal/noise"
	"seaice/internal/raster"
)

// CloudSpec controls the synthetic atmosphere of one scene.
type CloudSpec struct {
	// Bias shifts the cloud fBm before gain; higher bias means less
	// cloud. Typical range [0.35, 0.75]; ≥ 1 disables clouds entirely.
	Bias float64
	// Gain scales the shifted field into opacity.
	Gain float64
	// MaxOpacity caps the veil alpha; thin clouds stay translucent.
	MaxOpacity float64
	// Freq is the base frequency of the cloud field in cycles/pixel;
	// clouds are much smoother than ice texture.
	Freq float64
	// OffsetX, OffsetY displace the cloud shadow on the ground (sun
	// geometry), in pixels.
	OffsetX, OffsetY int
	// ShadowStrength is the peak multiplicative darkening (0 disables
	// shadows). A value of 0.35 darkens fully shadowed pixels by 35%.
	ShadowStrength float64
}

// Config describes one synthetic scene.
type Config struct {
	W, H int
	Seed uint64

	// IceFreq is the base frequency of the ice-concentration field.
	IceFreq float64
	// LeadFreq is the base frequency of the ridged lead field.
	LeadFreq float64
	// ThickThreshold and ThinThreshold partition the concentration
	// field: c ≥ ThickThreshold → thick ice, c ≥ ThinThreshold → thin
	// ice, below → open water.
	ThickThreshold, ThinThreshold float64
	// LeadDepth controls how strongly leads cut concentration.
	LeadDepth float64
	// NoiseSigma is per-channel Gaussian sensor noise (8-bit units).
	NoiseSigma float64
	// Illumination scales surface brightness globally: 1 (the zero
	// value is promoted to 1) is polar summer, ~0.55 models the
	// Antarctic partial-night season the paper's §IV-B2 discusses —
	// where the published summer thresholds stop working and must be
	// recalibrated (see autolabel.Calibrate).
	Illumination float64

	Clouds CloudSpec
}

// DefaultConfig returns the experiment-scale configuration: a 512×512
// scene (the paper's 2048² at quarter scale, which cuts generation and
// filtering cost 16×; the experiments tile it at 64² instead of 256², so
// a scene still yields the paper's 64 tiles) with moderate ice cover.
func DefaultConfig(seed uint64) Config {
	return Config{
		W: 512, H: 512,
		Seed:           seed,
		IceFreq:        1.0 / 96.0,
		LeadFreq:       1.0 / 72.0,
		ThickThreshold: 0.58,
		ThinThreshold:  0.42,
		LeadDepth:      0.38,
		NoiseSigma:     1.6,
		Clouds:         DefaultClouds(),
	}
}

// DefaultClouds returns a moderate thin-cloud specification.
func DefaultClouds() CloudSpec {
	return CloudSpec{
		Bias:           0.52,
		Gain:           2.6,
		MaxOpacity:     0.48,
		Freq:           1.0 / 280.0,
		OffsetX:        96,
		OffsetY:        64,
		ShadowStrength: 0.38,
	}
}

// ClearClouds returns a specification with no clouds or shadows.
func ClearClouds() CloudSpec {
	return CloudSpec{Bias: 2, Gain: 0, MaxOpacity: 0, Freq: 1.0 / 280.0}
}

// Scene is one generated scene with full ground truth. Image is what the
// classification pipeline is allowed to see; the remaining fields exist
// for validation and tests (the paper's "manual labels" correspond to
// Truth).
type Scene struct {
	Config Config

	// Image is the observed RGB scene: surface + veil + shadow + noise.
	Image *raster.RGB
	// Clean is the surface as it would appear with no atmosphere.
	Clean *raster.RGB
	// Truth is the per-pixel ground-truth class map ("manual labels").
	Truth *raster.Labels
	// CloudOpacity is the true veil alpha in [0,1] per pixel.
	CloudOpacity *raster.Float
	// Shadow is the true multiplicative shadow strength in [0,1].
	Shadow *raster.Float
	// CloudMask marks pixels disturbed by veil or shadow (≥ 5% effect).
	CloudMask *raster.Gray
	// CloudFraction is the fraction of disturbed pixels in [0,1].
	CloudFraction float64
}

// The paper's HSV labeling bands (OpenCV convention). Rendering keeps
// clean surfaces inside these bands.
const (
	waterVMax = 30
	thinVMin  = 31
	thinVMax  = 204
	thickVMin = 205

	// VeilR, VeilG, VeilB is the thin-cloud veil color surfaces blend
	// toward; it is close to — but not exactly — thick-ice white, as
	// thin clouds look slightly blue-gray from above.
	VeilR = 232
	VeilG = 235
	VeilB = 242
)

// Generate renders one scene from the configuration.
func Generate(cfg Config) (*Scene, error) {
	if cfg.W <= 0 || cfg.H <= 0 {
		return nil, fmt.Errorf("scene: invalid size %dx%d", cfg.W, cfg.H)
	}
	if !(cfg.ThinThreshold < cfg.ThickThreshold) {
		return nil, fmt.Errorf("scene: ThinThreshold %.3f must be below ThickThreshold %.3f", cfg.ThinThreshold, cfg.ThickThreshold)
	}

	illum := cfg.Illumination
	if illum == 0 {
		illum = 1
	}
	if illum < 0.1 || illum > 1.5 {
		return nil, fmt.Errorf("scene: illumination %.2f outside [0.1,1.5]", illum)
	}

	w, h := cfg.W, cfg.H
	s := &Scene{
		Config:       cfg,
		Image:        raster.NewRGB(w, h),
		Clean:        raster.NewRGB(w, h),
		Truth:        raster.NewLabels(w, h),
		CloudOpacity: raster.NewFloat(w, h),
		Shadow:       raster.NewFloat(w, h),
		CloudMask:    raster.NewGray(w, h),
	}

	conc := noise.FBM{Seed: cfg.Seed ^ 0x1ce, Octaves: 5, Frequency: cfg.IceFreq, Lacunarity: 2, Persistence: 0.55}.WarpedSampler(28)
	lead := noise.FBM{Seed: cfg.Seed ^ 0x1ead, Octaves: 4, Frequency: cfg.LeadFreq, Lacunarity: 2.1, Persistence: 0.5}.RidgedSampler()
	texture := noise.FBM{Seed: cfg.Seed ^ 0x7e47, Octaves: 4, Frequency: 1.0 / 14.0, Lacunarity: 2, Persistence: 0.5}.Sampler()
	rng := noise.NewRNG(cfg.Seed, 0x5e15e)

	// The veil is evaluated once per point (see the package comment):
	// into CloudOpacity for the scene, on the spot for shadow pixels
	// whose sun-displaced point lies beyond it. float64(x)+OffsetX equals
	// float64(x+OffsetX), so both read the field at the same point.
	cloudAt := func(x, y int) float64 { return 0 }
	if cfg.Clouds.Gain > 0 {
		cloud := noise.FBM{Seed: cfg.Seed ^ 0xc10d, Octaves: 4, Frequency: cfg.Clouds.Freq, Lacunarity: 2.2, Persistence: 0.55}.WarpedSampler(40)
		cloudAt = func(x, y int) float64 {
			v := (cloud.At(float64(x), float64(y)) - cfg.Clouds.Bias) * cfg.Clouds.Gain
			if v < 0 {
				return 0
			}
			if v > cfg.Clouds.MaxOpacity {
				return cfg.Clouds.MaxOpacity
			}
			return v
		}
		for y := 0; y < h; y++ {
			row := s.CloudOpacity.Pix[y*w : (y+1)*w]
			for x := range row {
				row[x] = cloudAt(x, y)
			}
		}
	}
	veilAt := func(x, y int) float64 {
		if x >= 0 && x < w && y >= 0 && y < h {
			return s.CloudOpacity.Pix[y*w+x]
		}
		return cloudAt(x, y)
	}

	disturbed := 0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			fx, fy := float64(x), float64(y)

			// --- surface synthesis ---
			c := conc.At(fx, fy)
			// Leads: the ridged field spikes near 1 along crease
			// lines; subtract to carve open-water channels.
			l := lead.At(fx, fy)
			if l > 0.62 {
				c -= cfg.LeadDepth * (l - 0.62) / 0.38
			}
			t := texture.At(fx, fy) // in-class texture, [0,1)

			var class raster.Class
			var r, g, b float64
			switch {
			case c >= cfg.ThickThreshold:
				class = raster.ClassThickIce
				// Bright white with faint texture; V in [213,252].
				v := 216.0 + float64(36*t)
				if v < thickVMin+2 {
					v = thickVMin + 2
				}
				if v > 252 {
					v = 252
				}
				r, g, b = v-float64(4*t), v-float64(2*t), v
			case c >= cfg.ThinThreshold:
				class = raster.ClassThinIce
				// Blue-gray gradient tied to concentration: young
				// grease ice is dark, thicker gray-white ice is
				// brighter. V spans [45,190].
				u := (c - cfg.ThinThreshold) / (cfg.ThickThreshold - cfg.ThinThreshold)
				v := 45 + float64(145*u) + float64(18*(t-0.5))
				if v < thinVMin+6 {
					v = thinVMin + 6
				}
				if v > thinVMax-8 {
					v = thinVMax - 8
				}
				// Bluish: blue channel carries V, red is suppressed.
				// Keeping saturation ≥ ~0.2 matters: the cloud filter
				// relies on clean thin ice staying visibly blue while
				// a veil desaturates everything it covers.
				sat := 0.46 - float64(0.24*u) // young ice is more saturated blue
				r, g, b = v*(1-sat), v*(1-float64(0.35*sat)), v
			default:
				class = raster.ClassWater
				// Dark ocean, deep blue. V in [6,28].
				v := 8 + float64(18*t)
				if v > waterVMax-2 {
					v = waterVMax - 2
				}
				r, g, b = v*0.25, v*0.55, v
			}
			s.Truth.Set(x, y, class)
			// Season: partial-night sun angles dim every surface by
			// the same factor (the atmosphere above is unaffected).
			r, g, b = float64(r*illum), float64(g*illum), float64(b*illum)

			// --- atmosphere ---
			a := s.CloudOpacity.Pix[y*w+x]
			// The shadow tracks the cloud field displaced by the sun
			// geometry; its strength is normalized by MaxOpacity so
			// ShadowStrength is the true peak darkening.
			sh := 0.0
			if cfg.Clouds.MaxOpacity > 0 {
				sh = cfg.Clouds.ShadowStrength * veilAt(x+cfg.Clouds.OffsetX, y+cfg.Clouds.OffsetY) / cfg.Clouds.MaxOpacity
			}
			s.Shadow.Set(x, y, sh)

			cr, cg, cb := clamp8(r), clamp8(g), clamp8(b)
			s.Clean.Set(x, y, cr, cg, cb)

			// shadow first (sunlight attenuated at the surface), then
			// the veil blends toward cloud color above the shadow.
			or := float64((r*(1-sh))*(1-a)) + float64(VeilR*a)
			og := float64((g*(1-sh))*(1-a)) + float64(VeilG*a)
			ob := float64((b*(1-sh))*(1-a)) + float64(VeilB*a)

			if cfg.NoiseSigma > 0 {
				or += float64(rng.NormFloat64() * cfg.NoiseSigma)
				og += float64(rng.NormFloat64() * cfg.NoiseSigma)
				ob += float64(rng.NormFloat64() * cfg.NoiseSigma)
			}
			s.Image.Set(x, y, clamp8(or), clamp8(og), clamp8(ob))

			if a >= 0.05 || sh >= 0.05 {
				s.CloudMask.Set(x, y, 255)
				disturbed++
			}
		}
	}
	s.CloudFraction = float64(disturbed) / float64(w*h)
	return s, nil
}

func clamp8(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}

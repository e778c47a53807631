// Package cloudfilter implements the paper's thin-cloud and shadow filter
// (§III-A "Filtering Out the Thin Clouds and Shadows"). The paper builds
// the filter from classical OpenCV operations — RGB→HSV conversion, noise
// filtering, bitwise operations, absolute difference, Otsu / truncated /
// binary thresholding, and min-max normalization — and this package
// composes the same operator inventory (implemented in internal/imgproc)
// into a two-stage correction:
//
//  1. Thin-cloud (veil) removal. A thin cloud alpha-blends the surface
//     toward a bright veil color, so the darkest pixel in any
//     neighborhood bounds the veil opacity from below (over open water
//     the observed brightness is almost purely veil). The filter
//     estimates per-pixel opacity from a min-filtered value channel
//     (dark-object subtraction), smooths it to the cloud's spatial
//     scale, gates it where no dark evidence exists (a window of pure
//     bright ice carries no signal — and needs no correction, because a
//     white veil over white ice is invisible), and inverts the blend
//     per channel.
//
//  2. Cloud-shadow removal. A shadow multiplies all channels equally, so
//     it lowers brightness while leaving saturation unchanged. Pixels
//     that are mid-bright but nearly unsaturated can only be shadowed
//     thick ice (clean thin ice is always blue-tinted); each such pixel
//     votes for the local shadow strength, the votes are smoothed into
//     a field, and the attenuation is divided back out.
//
// The residual errors of this filter — faint veil over bright ice,
// shadows falling only on water — are exactly the failure modes the paper
// reports surviving its filter (Fig 13's remaining off-diagonal mass).
//
// Filter is a deterministic pure function of (image, config) with no
// shared state, so the pipeline's stage workers run it concurrently on
// different scenes with bit-identical results; it operates at full
// scene scale because its neighborhood statistics need more context
// than a single tile. Products that feed a sum are rounded explicitly
// (float64(a*b)), so no target fuses them into a multiply-add
// (scripts/nofma.sh checks this on arm64).
//
// Every full-size plane Filter allocates is read by a later step, and a
// scratch plane is reused once its last reader has run: about 34 bytes
// per pixel in all. The four outputs take 20 (the RGB image, which the
// veil inversion writes and the shadow division then rewrites in place;
// the 8-bit mask, which reuses the quantized-opacity plane; the opacity
// and the shadow field, which is its smoothed evidence plane). The rest
// is the float64 weight plane of the shadow field and seven 8-bit planes:
// the source's saturation and value, the denoised saturation, and the
// two passes each of the erosion and the dilation. The colorful-pixel
// window mean runs on integer column sums in O(width) memory, and the
// Gaussians run in place over one staged row or column, each line's run
// of left-border taps summed once into a prefix that every output near
// that border starts from.
package cloudfilter

import (
	"math"

	"seaice/internal/colorspace"
	"seaice/internal/imgproc"
	"seaice/internal/raster"
)

// Config tunes the filter. Defaults follow the scene geometry of the
// Ross Sea dataset (cloud fields ~an order of magnitude smoother than ice
// texture).
type Config struct {
	// VeilColor is the assumed thin-cloud color (R, G, B).
	VeilColor [3]float64
	// DarkRadius is the min-filter window radius for the dark-object
	// veil estimate; it must exceed the ice floe scale so most windows
	// see some dark surface.
	DarkRadius int
	// VeilSmoothSigma smooths the opacity estimate to cloud scale.
	VeilSmoothSigma float64
	// WaterCeil is the brightest value clean open water can take (the
	// paper's water band ends at V=30).
	WaterCeil float64
	// DarkFloor is the typical darkest surface value; the veil
	// estimate treats the window minimum as DarkFloor seen through the
	// veil. Setting it near the true water floor (rather than the band
	// ceiling) keeps the opacity estimate unbiased.
	DarkFloor float64
	// OpacityGate excludes veil-corrected pixels from the shadow
	// stage: residual veil looks exactly like shadowed thick ice
	// (mid-bright, desaturated) and must not feed the shadow field.
	OpacityGate float64
	// MaxOpacity caps the veil estimate; thin clouds are translucent.
	MaxOpacity float64
	// AmbiguousMin is the min-filter level above which a window holds
	// no dark evidence and veil correction is disabled.
	AmbiguousMin float64
	// AmbiguousLow is the min-filter level above which dark evidence
	// becomes ambiguous (a clear field of mid-bright thin ice and a
	// heavy veil over dark water produce the same window minimum); in
	// that band the saturation gate decides.
	AmbiguousLow float64
	// SatGate is the window-mean saturation above which an ambiguous
	// window is judged clear: a veil desaturates every surface below
	// it, while clean thin ice keeps a visible blue tint.
	SatGate uint8
	// SatShadowFloor: an ambiguous window whose mean saturation falls
	// BELOW this is pure (possibly shadowed) thick ice — a veil with
	// dark evidence always leaves moderate residual saturation, while
	// thick ice is nearly gray. Such windows get no veil correction;
	// the shadow stage owns them.
	SatShadowFloor uint8
	// SatGateLow disambiguates the low band (window min between water
	// ceiling and AmbiguousLow): clear dark young ice is strongly
	// saturated blue (S ≈ 107+) and clear water even more so, while a
	// light veil over water already drags the window mean below ~90.
	SatGateLow uint8
	// GrayVMax is the upper brightness bound of the per-pixel gray
	// exemption: a near-gray pixel up to this value is thick ice
	// (possibly shadowed or marginal) and is never veil-inverted.
	// Veiled thin ice bright enough to need inversion keeps S ≥ ~25,
	// so it is not exempted.
	GrayVMax float64
	// SatClearMin is the per-pixel saturation above which a pixel is
	// certainly clear (strongly blue young ice or open water): no
	// surface under a correctable veil keeps S ≥ ~93, so such pixels
	// are exempt from veil inversion even where the opacity field
	// spills past a cloud boundary.
	SatClearMin uint8
	// MinOpacity zeroes negligible veil estimates.
	MinOpacity float64

	// ShadowSatMax and ShadowVMin/ShadowVMax delimit the "shadowed
	// thick ice" evidence region: nearly unsaturated but too dark for
	// clean thick ice.
	ShadowSatMax  uint8
	ShadowVMin    float64
	ShadowVMax    float64
	ThickRefV     float64 // nominal clean thick-ice brightness
	ShadowSmooth  float64 // sigma of the shadow-field smoothing
	MaxShadow     float64 // cap on estimated shadow strength
	MinShadow     float64 // zero negligible shadow estimates
	MinEvidence   float64 // minimum local evidence density to trust the field
	ShadowDarkMin float64 // pixels darker than this are never lifted (water)
}

// DefaultConfig returns the tuning used by every experiment in this repo.
func DefaultConfig() Config {
	return Config{
		VeilColor:       [3]float64{232, 235, 242},
		DarkRadius:      28,
		VeilSmoothSigma: 6,
		WaterCeil:       30,
		DarkFloor:       4,
		OpacityGate:     0.03,
		MaxOpacity:      0.50,
		AmbiguousMin:    135,
		AmbiguousLow:    60,
		SatGate:         52,
		SatShadowFloor:  15,
		SatGateLow:      95,
		GrayVMax:        224,
		SatClearMin:     96,
		MinOpacity:      0.03,

		ShadowSatMax:  18,
		ShadowVMin:    60,
		ShadowVMax:    204,
		ThickRefV:     234,
		ShadowSmooth:  20,
		MaxShadow:     0.45,
		MinShadow:     0.04,
		MinEvidence:   0.02,
		ShadowDarkMin: 34,
	}
}

// Result carries the filtered image and the filter's internal estimates,
// which the tests validate against the generator's ground truth.
type Result struct {
	// Image is the cloud- and shadow-corrected scene.
	Image *raster.RGB
	// CloudMask marks pixels the filter judged veiled or shadowed
	// (255 = disturbed), via Otsu binarization of the combined
	// disturbance field.
	CloudMask *raster.Gray
	// Opacity is the estimated veil alpha per pixel.
	Opacity *raster.Float
	// Shadow is the estimated multiplicative shadow strength per pixel.
	Shadow *raster.Float
}

// Filter runs the two-stage thin-cloud and shadow correction.
func Filter(img *raster.RGB, cfg Config) *Result {
	w, h := img.W, img.H
	sat, val := colorspace.SatVal(img)
	// Per-pixel saturation decisions must not ride on sensor noise
	// (±1.6/channel moves S by ~±5 on mid-bright pixels); a 3×3 median
	// is the paper pipeline's "noise filtering" step.
	satDenoised := imgproc.MedianFilter(sat, 1)

	// ---- stage 1: thin-cloud veil ----
	// Dark-object veil estimate: min-filter the value channel, then
	// subtract the water ceiling (absolute difference against the
	// darkest legitimate surface) and rescale by the veil brightness.
	minV := imgproc.Erode(val, cfg.DarkRadius)
	// Cap implausible highs with a truncated threshold before the
	// division; windows of pure bright ice are handled by the gate.
	imgproc.Threshold(minV, minV, 250, 255, imgproc.ThreshTrunc)
	// The raw opacity of each pixel is quantized straight onto the 8-bit
	// grid the dilation below runs on, over minV: pixel i of minV is
	// read once, by pixel i of the estimate.
	q := minV
	veilV := (cfg.VeilColor[0] + cfg.VeilColor[1] + cfg.VeilColor[2]) / 3
	colorfulMeanRows(sat, cfg.SatShadowFloor, cfg.DarkRadius, func(y int, meanS []uint8) {
		row := q.Pix[y*w : (y+1)*w]
		for x, v := range row {
			row[x] = 0
			fv := float64(v)
			if fv > cfg.AmbiguousMin {
				continue // no dark evidence in window; veil invisible here
			}
			if fv > cfg.AmbiguousLow {
				if meanS[x] > cfg.SatGate {
					continue // window keeps saturated surfaces ⇒ no veil
				}
				if meanS[x] < cfg.SatShadowFloor {
					continue // near-gray window ⇒ (shadowed) thick ice
				}
			} else if fv > cfg.WaterCeil && (meanS[x] == 0 || meanS[x] > cfg.SatGateLow) {
				// Either the window is saturated blue dark ice (clear,
				// not a light veil) or it has no colorful pixels at all —
				// and a veil with dark evidence always leaves colorful
				// residue, so an all-gray window carries no veil.
				continue
			}
			a := (fv - cfg.DarkFloor) / (veilV - cfg.DarkFloor)
			if a < 0 {
				a = 0
			}
			if a > cfg.MaxOpacity {
				a = cfg.MaxOpacity
			}
			row[x] = quantOpacity(a)
		}
	})
	// The erosion sees the window's darkest pixel, so the raw estimate
	// collapses to zero within DarkRadius of every cloud boundary (the
	// window leaks onto clear ground). Dilating by the same radius
	// restores the estimate's support — an erode-then-dilate pair, the
	// morphological opening of the opacity field — and the Gaussian
	// then irons window artifacts to the cloud's spatial scale.
	opacity := raster.NewFloat(w, h)
	dilateOpacity(opacity, q, cfg.DarkRadius)
	// The Gaussians' border prefix and staging row or column.
	line := make([]float64, smoothLineLen(w, h, max(cfg.VeilSmoothSigma, cfg.ShadowSmooth)))
	smoothInPlace(opacity, cfg.VeilSmoothSigma, line)
	for i, a := range opacity.Pix {
		if a < cfg.MinOpacity {
			opacity.Pix[i] = 0
		} else if a > cfg.MaxOpacity {
			opacity.Pix[i] = cfg.MaxOpacity
		}
	}

	// isGrayMid flags pixels that can only be shadowed thick ice: a
	// gray (near-zero saturation) pixel at mid brightness. Every
	// veil-affected pixel with dark evidence keeps residual saturation
	// (water and thin ice are blue; the veil color itself is slightly
	// blue), so these pixels belong to the shadow stage and must not
	// be darkened by the veil inversion.
	isGrayMid := func(s, v uint8) bool {
		return s < cfg.SatShadowFloor && float64(v) >= cfg.AmbiguousLow && float64(v) <= cfg.GrayVMax
	}

	// Invert the blend per channel: observed = s·(1-a) + veil·a.
	corrected := raster.NewRGB(w, h)
	for i := 0; i < w*h; i++ {
		a := opacity.Pix[i]
		if a <= 0 || isGrayMid(satDenoised.Pix[i], val.Pix[i]) || satDenoised.Pix[i] >= cfg.SatClearMin {
			corrected.Pix[3*i] = img.Pix[3*i]
			corrected.Pix[3*i+1] = img.Pix[3*i+1]
			corrected.Pix[3*i+2] = img.Pix[3*i+2]
			continue
		}
		for ch := 0; ch < 3; ch++ {
			obs := float64(img.Pix[3*i+ch])
			s := (obs - float64(cfg.VeilColor[ch]*a)) / (1 - a)
			corrected.Pix[3*i+ch] = clamp8(s)
		}
	}

	// ---- stage 2: cloud shadow ----
	// The evidence plane is smoothed in place and becomes the shadow
	// field; only the weight plane is scratch.
	shadow := raster.NewFloat(w, h)
	weight := raster.NewFloat(w, h)
	for i := 0; i < w*h; i++ {
		if opacity.Pix[i] > cfg.OpacityGate && !isGrayMid(satDenoised.Pix[i], val.Pix[i]) {
			continue // veiled region: residue must not vote for shadow
		}
		v := float64(maxChannel(corrected.Pix[3*i : 3*i+3]))
		if satDenoised.Pix[i] <= cfg.ShadowSatMax && v >= cfg.ShadowVMin && v <= cfg.ShadowVMax {
			sh := 1 - v/cfg.ThickRefV
			if sh < 0 {
				sh = 0
			}
			if sh > cfg.MaxShadow {
				sh = cfg.MaxShadow
			}
			shadow.Pix[i] = sh
			weight.Pix[i] = 1
		}
	}
	smoothInPlace(shadow, cfg.ShadowSmooth, line)
	smoothInPlace(weight, cfg.ShadowSmooth, line)
	for i, ev := range shadow.Pix {
		shadow.Pix[i] = 0
		if weight.Pix[i] < cfg.MinEvidence {
			continue
		}
		if opacity.Pix[i] > cfg.OpacityGate && !isGrayMid(satDenoised.Pix[i], val.Pix[i]) {
			continue // veil correction already handled this pixel
		}
		sh := ev / weight.Pix[i]
		if sh < cfg.MinShadow {
			continue
		}
		if sh > cfg.MaxShadow {
			sh = cfg.MaxShadow
		}
		shadow.Pix[i] = sh
	}

	// Divide the shadow back out, in place: the corrected image becomes
	// the output.
	for i := 0; i < w*h; i++ {
		px := corrected.Pix[3*i : 3*i+3]
		sh := shadow.Pix[i]
		if sh <= 0 || float64(maxChannel(px)) < cfg.ShadowDarkMin {
			continue
		}
		k := 1 / (1 - sh)
		px[0] = clamp8(float64(px[0]) * k)
		px[1] = clamp8(float64(px[1]) * k)
		px[2] = clamp8(float64(px[2]) * k)
	}

	// ---- disturbance mask ----
	// Combine both disturbance fields into an 8-bit image and Otsu-
	// binarize it (the paper's Otsu + binary threshold step). Guard the
	// clear-sky case: if the field is essentially empty, Otsu on noise
	// would hallucinate a mask. The field reuses q, dead since the
	// dilation read it.
	dist := q
	for i := 0; i < w*h; i++ {
		d := opacity.Pix[i] + shadow.Pix[i]
		if d > 1 {
			d = 1
		}
		dist.Pix[i] = uint8(float64(d*255) + 0.5)
	}
	// Otsu adapts to each scene's disturbance distribution, but its
	// level is floored at 5% combined disturbance (the convention the
	// ground-truth masks use) so the dilation halo of barely-veiled
	// pixels does not leak into the mask, and so a clear scene's noise
	// cannot be split into a fake mask.
	level := imgproc.OtsuThreshold(dist)
	if level < 13 { // 5% of full disturbance
		level = 13
	}
	imgproc.Threshold(dist, dist, level, 255, imgproc.ThreshBinary)

	return &Result{Image: corrected, CloudMask: dist, Opacity: opacity, Shadow: shadow}
}

// FilterDefault runs the filter with DefaultConfig.
func FilterDefault(img *raster.RGB) *Result {
	return Filter(img, DefaultConfig())
}

// colorfulMeanRows walks the rows of sat from top to bottom and calls row
// with the window-mean saturation of the COLORFUL pixels (S ≥ floor) of
// each pixel of row y, over a (2r+1)² window clipped at the borders.
// Thick ice is near-gray; including it in the mean would let "shadowed
// thick + clean blue ice" masquerade as "veil over dark water". Excluding
// gray pixels, clean surfaces keep mean S ≥ ~95 (dark young ice) or
// ≥ ~56 (bright young ice), while anything under a veil drops to ≤ ~87
// (light veil over water) and ≤ ~47 (moderate veil). Windows that are
// almost entirely gray (< 5% colorful) report 0, which the gates read as
// "pure thick ice, no veil evidence".
//
// The window sums are exact integers, kept as running column sums, so
// memory is O(width); the saturation and colorful-fraction window means
// are each one quotient of exact integers, rounded once, and their ratio
// is rounded to the nearest byte.
func colorfulMeanRows(sat *raster.Gray, floor uint8, radius int, row func(y int, meanS []uint8)) {
	w, h := sat.W, sat.H
	colSum := make([]int, w) // Σ S of the colorful pixels of each column's window
	colCnt := make([]int, w) // number of colorful pixels of each column's window
	meanS := make([]uint8, w)
	addRow := func(y, sign int) {
		for x, s := range sat.Pix[y*w : (y+1)*w] {
			if s >= floor {
				colSum[x] += sign * int(s)
				colCnt[x] += sign
			}
		}
	}
	for y := 0; y < min(radius, h); y++ {
		addRow(y, 1)
	}
	for y := 0; y < h; y++ {
		if y+radius < h {
			addRow(y+radius, 1)
		}
		if y-radius-1 >= 0 {
			addRow(y-radius-1, -1)
		}
		rows := min(y+radius, h-1) - max(y-radius, 0) + 1
		sum, cnt := 0, 0
		for x := 0; x < min(radius, w); x++ {
			sum += colSum[x]
			cnt += colCnt[x]
		}
		for x := 0; x < w; x++ {
			if x+radius < w {
				sum += colSum[x+radius]
				cnt += colCnt[x+radius]
			}
			if x-radius-1 >= 0 {
				sum -= colSum[x-radius-1]
				cnt -= colCnt[x-radius-1]
			}
			n := float64((min(x+radius, w-1) - max(x-radius, 0) + 1) * rows)
			meanS[x] = 0
			if frac := float64(cnt) / n; frac >= 0.05 {
				m := (float64(sum) / n) / frac
				if m > 255 {
					m = 255
				}
				meanS[x] = uint8(m + 0.5)
			}
		}
		row(y, meanS)
	}
}

// quantOpacity puts an opacity in [0,1] on the 8-bit grid (1/500 steps)
// that the opacity dilation runs on.
func quantOpacity(a float64) uint8 {
	s := a * 500
	if s > 255 {
		s = 255
	}
	if s < 0 {
		s = 0
	}
	return uint8(s + 0.5)
}

// dilateOpacity writes into dst the sliding-window maximum of the
// quantized opacity q (see quantOpacity), back on the [0,1] scale.
func dilateOpacity(dst *raster.Float, q *raster.Gray, radius int) {
	for i, v := range imgproc.Dilate(q, radius).Pix {
		dst.Pix[i] = float64(v) / 500
	}
}

// smoothInPlace applies a separable Gaussian to f in place, staging one
// row or column at a time in line, which is smoothLineLen(W, H, sigma)
// long: the kernel's border prefix, then the staged line. The kernel
// radius follows the 3σ rule. Each output is the sum of the same taps in
// the same order as a two-plane convolution with border replication.
// The first radius−x taps of an output x < radius all read the line's
// first pixel, so every such output opens with the same running sums:
// they are summed once per line (borderPrefix), and output x starts from
// prefix[radius−x] and adds its remaining taps in order, rounding exactly
// as the full tap loop would.
func smoothInPlace(f *raster.Float, sigma float64, line []float64) {
	if sigma <= 0 {
		return
	}
	k := imgproc.GaussianKernel(sigma)
	radius := len(k) / 2
	w, h := f.W, f.H
	prefix, stage := line[:radius+1], line[radius+1:]

	src := stage[:w]
	for y := 0; y < h; y++ {
		row := f.Pix[y*w : (y+1)*w]
		copy(src, row)
		borderPrefix(prefix, k, src[0])
		for x := range row {
			start := max(radius-x, 0)
			sum := prefix[start]
			for i := start; i < len(k); i++ {
				xx := x + i - radius
				if xx >= w {
					xx = w - 1
				}
				sum += float64(k[i] * src[xx])
			}
			row[x] = sum
		}
	}
	src = stage[:h]
	for x := 0; x < w; x++ {
		for y := range src {
			src[y] = f.Pix[y*w+x]
		}
		borderPrefix(prefix, k, src[0])
		for y := 0; y < h; y++ {
			start := max(radius-y, 0)
			sum := prefix[start]
			for i := start; i < len(k); i++ {
				yy := y + i - radius
				if yy >= h {
					yy = h - 1
				}
				sum += float64(k[i] * src[yy])
			}
			f.Pix[y*w+x] = sum
		}
	}
}

// borderPrefix writes into prefix (radius+1 long) the running sums of
// the kernel's leading taps on the border pixel v: prefix[j] is the sum
// after j taps, each product rounded before it is added.
func borderPrefix(prefix, k []float64, v float64) {
	run := 0.0
	prefix[0] = run
	for j := 1; j < len(prefix); j++ {
		run += float64(k[j-1] * v)
		prefix[j] = run
	}
}

// smoothLineLen is the staging length smoothInPlace needs for a w×h
// plane at sigma: the longer side plus the border prefix, whose radius
// follows GaussianKernel's 3σ rule.
func smoothLineLen(w, h int, sigma float64) int {
	return max(w, h) + int(math.Ceil(3*max(sigma, 0))) + 1
}

// maxChannel is the HSV value (brightest channel) of one RGB pixel.
func maxChannel(px []uint8) uint8 {
	return max(px[0], px[1], px[2])
}

func clamp8(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(math.Round(v))
}

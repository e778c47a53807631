// Package metrics implements the evaluation measures the paper reports:
// overall classification accuracy, per-class and macro-averaged precision,
// recall and F1, the column-normalized confusion matrix of Fig 13, and the
// Structural Similarity Index (SSIM) used to validate auto-labels against
// manual labels (§IV-B2).
//
// All measures accumulate in a fixed, input-defined order — never over a
// map or a worker pool — so every reported number is bit-reproducible
// across runs and platforms.
package metrics

import (
	"fmt"
	"strings"

	"seaice/internal/raster"
)

// Confusion is a square confusion matrix: Count[a][b] is the number of
// pixels whose true class is a and predicted class is b.
type Confusion struct {
	N     int
	Count [][]int64
}

// NewConfusion returns an n-class confusion matrix.
func NewConfusion(n int) *Confusion {
	c := &Confusion{N: n, Count: make([][]int64, n)}
	for i := range c.Count {
		c.Count[i] = make([]int64, n)
	}
	return c
}

// ClassRangeError reports an observation whose class byte lies outside
// the matrix — a corrupt prediction or truth value. Evaluation surfaces
// it as a verdict instead of an index panic, matching the repo's
// silent-corruption posture: bad bytes are diagnosed, never trusted.
type ClassRangeError struct {
	Class raster.Class // the offending value
	N     int          // number of classes the matrix holds
}

func (e *ClassRangeError) Error() string {
	return fmt.Sprintf("metrics: class %d outside %d-class confusion matrix (corrupt label byte?)", int(e.Class), e.N)
}

// Add records one observation with true class t and predicted class p.
// Out-of-range classes return a *ClassRangeError and leave the matrix
// unchanged.
func (c *Confusion) Add(t, p raster.Class) error {
	if int(t) >= c.N {
		return &ClassRangeError{Class: t, N: c.N}
	}
	if int(p) >= c.N {
		return &ClassRangeError{Class: p, N: c.N}
	}
	c.Count[t][p]++
	return nil
}

// AddLabels accumulates every pixel of a predicted label map against the
// ground truth. The maps must be the same size; an out-of-range class
// byte in either map aborts with a *ClassRangeError, leaving the counts
// accumulated so far in place.
func (c *Confusion) AddLabels(truth, pred *raster.Labels) error {
	if truth.W != pred.W || truth.H != pred.H {
		return fmt.Errorf("metrics: label size mismatch %dx%d vs %dx%d", truth.W, truth.H, pred.W, pred.H)
	}
	n := raster.Class(c.N)
	for i := range truth.Pix {
		if truth.Pix[i] >= n || pred.Pix[i] >= n {
			if truth.Pix[i] >= n {
				return &ClassRangeError{Class: truth.Pix[i], N: c.N}
			}
			return &ClassRangeError{Class: pred.Pix[i], N: c.N}
		}
		c.Count[truth.Pix[i]][pred.Pix[i]]++
	}
	return nil
}

// Total returns the number of observations recorded.
func (c *Confusion) Total() int64 {
	var t int64
	for i := range c.Count {
		for j := range c.Count[i] {
			t += c.Count[i][j]
		}
	}
	return t
}

// Accuracy is the fraction of observations on the diagonal.
func (c *Confusion) Accuracy() float64 {
	t := c.Total()
	if t == 0 {
		return 0
	}
	var d int64
	for i := 0; i < c.N; i++ {
		d += c.Count[i][i]
	}
	return float64(d) / float64(t)
}

// Precision returns per-class precision: diag / column sum.
func (c *Confusion) Precision() []float64 {
	out := make([]float64, c.N)
	for j := 0; j < c.N; j++ {
		var col int64
		for i := 0; i < c.N; i++ {
			col += c.Count[i][j]
		}
		if col > 0 {
			out[j] = float64(c.Count[j][j]) / float64(col)
		}
	}
	return out
}

// Recall returns per-class recall: diag / row sum.
func (c *Confusion) Recall() []float64 {
	out := make([]float64, c.N)
	for i := 0; i < c.N; i++ {
		var row int64
		for j := 0; j < c.N; j++ {
			row += c.Count[i][j]
		}
		if row > 0 {
			out[i] = float64(c.Count[i][i]) / float64(row)
		}
	}
	return out
}

// F1 returns per-class F1 scores.
func (c *Confusion) F1() []float64 {
	p := c.Precision()
	r := c.Recall()
	out := make([]float64, c.N)
	for i := range out {
		if p[i]+r[i] > 0 {
			out[i] = 2 * p[i] * r[i] / (p[i] + r[i])
		}
	}
	return out
}

// macro averages a per-class vector over classes that actually occur.
func (c *Confusion) macro(v []float64) float64 {
	sum, n := 0.0, 0
	for i := 0; i < c.N; i++ {
		var row int64
		for j := 0; j < c.N; j++ {
			row += c.Count[i][j]
		}
		if row > 0 {
			sum += v[i]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MacroPrecision averages precision over present classes.
func (c *Confusion) MacroPrecision() float64 { return c.macro(c.Precision()) }

// MacroRecall averages recall over present classes.
func (c *Confusion) MacroRecall() float64 { return c.macro(c.Recall()) }

// MacroF1 averages F1 over present classes.
func (c *Confusion) MacroF1() float64 { return c.macro(c.F1()) }

// RowNormalized returns the matrix with each row scaled to percentages
// (each true class sums to 100%), the presentation of Fig 13 where the
// diagonal holds per-class accuracy.
func (c *Confusion) RowNormalized() [][]float64 {
	out := make([][]float64, c.N)
	for i := 0; i < c.N; i++ {
		out[i] = make([]float64, c.N)
		var row int64
		for j := 0; j < c.N; j++ {
			row += c.Count[i][j]
		}
		if row == 0 {
			continue
		}
		for j := 0; j < c.N; j++ {
			out[i][j] = 100 * float64(c.Count[i][j]) / float64(row)
		}
	}
	return out
}

// String renders the row-normalized matrix with class names, in the layout
// of Fig 13.
func (c *Confusion) String() string {
	names := make([]string, c.N)
	for i := range names {
		names[i] = raster.Class(i).String()
	}
	norm := c.RowNormalized()
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s", "true\\pred")
	for _, n := range names {
		fmt.Fprintf(&b, "%12s", n)
	}
	b.WriteByte('\n')
	for i := 0; i < c.N; i++ {
		fmt.Fprintf(&b, "%-12s", names[i])
		for j := 0; j < c.N; j++ {
			fmt.Fprintf(&b, "%11.2f%%", norm[i][j])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SSIM computes the mean Structural Similarity Index between two 8-bit
// rasters using the standard parameters (Wang et al.): an 8×8 sliding
// window (stride 4 for tractability on large scenes), K1=0.01, K2=0.03,
// L=255. Returns a value in [-1, 1]; identical images score 1.
func SSIM(a, b *raster.Gray) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("metrics: SSIM size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	const (
		win    = 8
		stride = 4
		c1     = (0.01 * 255) * (0.01 * 255)
		c2     = (0.03 * 255) * (0.03 * 255)
	)
	if a.W < win || a.H < win {
		return 0, fmt.Errorf("metrics: SSIM image %dx%d smaller than %d window", a.W, a.H, win)
	}
	var total float64
	var n int
	for y := 0; y+win <= a.H; y += stride {
		for x := 0; x+win <= a.W; x += stride {
			var sa, sb, saa, sbb, sab float64
			for dy := 0; dy < win; dy++ {
				off := (y+dy)*a.W + x
				for dx := 0; dx < win; dx++ {
					va := float64(a.Pix[off+dx])
					vb := float64(b.Pix[off+dx])
					sa += va
					sb += vb
					saa += float64(va * va)
					sbb += float64(vb * vb)
					sab += float64(va * vb)
				}
			}
			// Every product and quotient is rounded on its own
			// (float64(x*y)), so no target fuses it into a multiply-add
			// (x/64 compiles to a product): the score is the same bits on
			// every platform.
			np := float64(win * win)
			ma := float64(sa / np)
			mb := float64(sb / np)
			va := float64(saa/np) - float64(ma*ma)
			vb := float64(sbb/np) - float64(mb*mb)
			cab := float64(sab/np) - float64(ma*mb)
			s := ((float64(2*ma*mb) + c1) * (float64(2*cab) + c2)) / ((float64(ma*ma) + float64(mb*mb) + c1) * (va + vb + c2))
			total += s
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("metrics: SSIM produced no windows")
	}
	return total / float64(n), nil
}

// SSIMRGB averages SSIM over the three channels of two RGB rasters, the
// form used to compare rendered auto-label maps against manual ones.
func SSIMRGB(a, b *raster.RGB) (float64, error) {
	if a.W != b.W || a.H != b.H {
		return 0, fmt.Errorf("metrics: SSIMRGB size mismatch %dx%d vs %dx%d", a.W, a.H, b.W, b.H)
	}
	sum := 0.0
	for ch := 0; ch < 3; ch++ {
		ga := raster.NewGray(a.W, a.H)
		gb := raster.NewGray(b.W, b.H)
		for i := 0; i < a.W*a.H; i++ {
			ga.Pix[i] = a.Pix[3*i+ch]
			gb.Pix[i] = b.Pix[3*i+ch]
		}
		s, err := SSIM(ga, gb)
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum / 3, nil
}

// PixelAccuracy is a convenience wrapper returning the fraction of
// matching pixels between two label maps.
func PixelAccuracy(truth, pred *raster.Labels) (float64, error) {
	c := NewConfusion(int(raster.NumClasses))
	if err := c.AddLabels(truth, pred); err != nil {
		return 0, err
	}
	return c.Accuracy(), nil
}

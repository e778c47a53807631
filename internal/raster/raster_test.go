package raster

import (
	"testing"

	"seaice/internal/noise"
)

func randRGB(seed uint64, w, h int) *RGB {
	rng := noise.NewRNG(seed, 1)
	m := NewRGB(w, h)
	for i := range m.Pix {
		m.Pix[i] = uint8(rng.Intn(256))
	}
	return m
}

func randLabels(seed uint64, w, h int) *Labels {
	rng := noise.NewRNG(seed, 2)
	m := NewLabels(w, h)
	for i := range m.Pix {
		m.Pix[i] = Class(rng.Intn(int(NumClasses)))
	}
	return m
}

// px returns the pixel of m at (x, y).
func px(m *RGB, x, y int) [3]uint8 {
	i := 3 * (y*m.W + x)
	return [3]uint8(m.Pix[i : i+3])
}

func TestRGBSetAt(t *testing.T) {
	m := NewRGB(4, 3)
	m.Set(2, 1, 10, 20, 30)
	if got := px(m, 2, 1); got != [3]uint8{10, 20, 30} {
		t.Fatalf("got %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewGray(5, 5)
	c := m.Clone()
	c.Pix[0] = m.Pix[0] + 1
	if m.Pix[0] == c.Pix[0] {
		t.Fatal("clone shares storage")
	}
}

// TestSplitStitchLabelsIdentity mirrors the RGB round-trip for labels.
func TestSplitStitchLabelsIdentity(t *testing.T) {
	lab := randLabels(3, 24, 40)
	tiles, grid, err := SplitLabels(lab, 8, 8)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	back, err := StitchLabels(tiles, grid)
	if err != nil {
		t.Fatalf("stitch: %v", err)
	}
	for i := range lab.Pix {
		if lab.Pix[i] != back.Pix[i] {
			t.Fatalf("mismatch at %d", i)
		}
	}
}

func TestSplitRejectsIndivisible(t *testing.T) {
	if _, _, err := Split(randRGB(4, 30, 30), 7, 7); err == nil {
		t.Fatal("expected error for indivisible tiles")
	}
	if _, err := GridFor(30, 30, 0, 8); err == nil {
		t.Fatal("expected error for zero tile size")
	}
}

func TestStitchRejectsBadTiles(t *testing.T) {
	tiles, grid, _ := SplitLabels(randLabels(5, 16, 16), 8, 8)

	// wrong count
	if _, err := StitchLabels(tiles[:2], grid); err == nil {
		t.Fatal("expected count error")
	}
	// wrong size
	bad := append([]*Labels(nil), tiles...)
	bad[0] = NewLabels(4, 4)
	if _, err := StitchLabels(bad, grid); err == nil {
		t.Fatal("expected size error")
	}
}

// TestSplitStitchIdentity: splitting a scene into tiles and pasting
// every tile back at its grid cell must be the identity, for every
// divisor tile size, with each cell covered exactly once.
func TestSplitStitchIdentity(t *testing.T) {
	scene := randRGB(2, 48, 32)
	for _, ts := range []int{4, 8, 16} {
		tiles, grid, err := Split(scene, ts, ts)
		if err != nil {
			t.Fatalf("split %d: %v", ts, err)
		}
		if len(tiles) != grid.Cols*grid.Rows {
			t.Fatalf("tile size %d: %d tiles on a %dx%d grid", ts, len(tiles), grid.Cols, grid.Rows)
		}
		back := NewRGB(grid.Cols*grid.TileW, grid.Rows*grid.TileH)
		seen := make([]bool, len(tiles))
		for _, tile := range tiles {
			cell := tile.Row*grid.Cols + tile.Col
			if seen[cell] {
				t.Fatalf("tile size %d: cell (%d,%d) covered twice", ts, tile.Col, tile.Row)
			}
			seen[cell] = true
			for y := 0; y < grid.TileH; y++ {
				for x := 0; x < grid.TileW; x++ {
					p := px(tile.Image, x, y)
					back.Set(tile.Col*grid.TileW+x, tile.Row*grid.TileH+y, p[0], p[1], p[2])
				}
			}
		}
		if back.W != scene.W || back.H != scene.H {
			t.Fatalf("tile size %d: stitched %dx%d, want %dx%d", ts, back.W, back.H, scene.W, scene.H)
		}
		for i := range scene.Pix {
			if scene.Pix[i] != back.Pix[i] {
				t.Fatalf("tile size %d: mismatch at %d", ts, i)
			}
		}
	}
}

// TestSplitTilesPartitionScene: every pixel of the scene appears in
// exactly one tile at the expected offset, tiles in row-major order.
func TestSplitTilesPartitionScene(t *testing.T) {
	scene := randRGB(6, 32, 16)
	tiles, grid, err := Split(scene, 8, 8)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	for i, tile := range tiles {
		if tile.Col != i%grid.Cols || tile.Row != i/grid.Cols {
			t.Fatalf("tile %d at (%d,%d), want row-major order", i, tile.Col, tile.Row)
		}
		for y := 0; y < 8; y++ {
			for x := 0; x < 8; x++ {
				if px(tile.Image, x, y) != px(scene, tile.Col*8+x, tile.Row*8+y) {
					t.Fatalf("tile (%d,%d) pixel (%d,%d) mismatch", tile.Col, tile.Row, x, y)
				}
			}
		}
	}
}

func TestLabelsCountsAndRender(t *testing.T) {
	m := randLabels(7, 10, 10)
	counts := m.Counts()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 100 {
		t.Fatalf("counts sum to %d, want 100", total)
	}
	r := m.Render()
	// thick ice renders red-dominant, water green-dominant, thin blue
	for i, c := range m.Pix {
		pr, pg, pb := r.Pix[3*i], r.Pix[3*i+1], r.Pix[3*i+2]
		switch c {
		case ClassThickIce:
			if pr <= pg || pr <= pb {
				t.Fatalf("thick ice not red at %d", i)
			}
		case ClassWater:
			if pg <= pr || pg <= pb {
				t.Fatalf("water not green at %d", i)
			}
		case ClassThinIce:
			if pb <= pr || pb <= pg {
				t.Fatalf("thin ice not blue at %d", i)
			}
		}
	}
}

func TestClassString(t *testing.T) {
	if ClassWater.String() != "open-water" || ClassThinIce.String() != "thin-ice" || ClassThickIce.String() != "thick-ice" {
		t.Fatal("class names changed; reports depend on them")
	}
}

func TestSideBySide(t *testing.T) {
	a := randRGB(8, 4, 6)
	b := randRGB(9, 3, 6)
	p, err := SideBySide(a, b)
	if err != nil {
		t.Fatalf("panel: %v", err)
	}
	if p.W != 4+2+3 || p.H != 6 {
		t.Fatalf("panel size %dx%d", p.W, p.H)
	}
	if _, err := SideBySide(a, randRGB(10, 3, 5)); err == nil {
		t.Fatal("expected height-mismatch error")
	}
}

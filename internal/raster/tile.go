package raster

import "fmt"

// Tile is one fixed-size window of a larger scene together with its grid
// position, so predictions can be stitched back into scene coordinates.
type Tile struct {
	Col, Row int // grid position within the parent scene
	Image    *RGB
}

// Grid describes how a scene divides into tiles.
type Grid struct {
	TileW, TileH int
	Cols, Rows   int
}

// GridFor computes the tile grid for a scene of size (w, h) with the given
// tile size. The scene must divide evenly — the paper's 2048² scenes split
// exactly into 8×8 tiles of 256².
func GridFor(w, h, tileW, tileH int) (Grid, error) {
	if tileW <= 0 || tileH <= 0 {
		return Grid{}, fmt.Errorf("raster: invalid tile size %dx%d", tileW, tileH)
	}
	if w%tileW != 0 || h%tileH != 0 {
		return Grid{}, fmt.Errorf("raster: scene %dx%d does not divide into %dx%d tiles", w, h, tileW, tileH)
	}
	return Grid{TileW: tileW, TileH: tileH, Cols: w / tileW, Rows: h / tileH}, nil
}

// Split cuts the scene into tiles in row-major order.
func Split(scene *RGB, tileW, tileH int) ([]Tile, Grid, error) {
	g, err := GridFor(scene.W, scene.H, tileW, tileH)
	if err != nil {
		return nil, Grid{}, err
	}
	tiles := make([]Tile, 0, g.Cols*g.Rows)
	for row := 0; row < g.Rows; row++ {
		for col := 0; col < g.Cols; col++ {
			t := NewRGB(tileW, tileH)
			for y := 0; y < tileH; y++ {
				srcOff := 3 * ((row*tileH+y)*scene.W + col*tileW)
				dstOff := 3 * y * tileW
				copy(t.Pix[dstOff:dstOff+3*tileW], scene.Pix[srcOff:srcOff+3*tileW])
			}
			tiles = append(tiles, Tile{Col: col, Row: row, Image: t})
		}
	}
	return tiles, g, nil
}

// SplitLabels cuts a label map into tiles matching the grid produced by
// Split on the corresponding scene.
func SplitLabels(lab *Labels, tileW, tileH int) ([]*Labels, Grid, error) {
	g, err := GridFor(lab.W, lab.H, tileW, tileH)
	if err != nil {
		return nil, Grid{}, err
	}
	out := make([]*Labels, 0, g.Cols*g.Rows)
	for row := 0; row < g.Rows; row++ {
		for col := 0; col < g.Cols; col++ {
			t := NewLabels(tileW, tileH)
			for y := 0; y < tileH; y++ {
				srcOff := (row*tileH+y)*lab.W + col*tileW
				copy(t.Pix[y*tileW:(y+1)*tileW], lab.Pix[srcOff:srcOff+tileW])
			}
			out = append(out, t)
		}
	}
	return out, g, nil
}

// StitchLabels reassembles label tiles (row-major order) into a scene-sized
// label map.
func StitchLabels(tiles []*Labels, g Grid) (*Labels, error) {
	if len(tiles) != g.Cols*g.Rows {
		return nil, fmt.Errorf("raster: stitch got %d label tiles, grid needs %d", len(tiles), g.Cols*g.Rows)
	}
	out := NewLabels(g.Cols*g.TileW, g.Rows*g.TileH)
	for i, t := range tiles {
		if t.W != g.TileW || t.H != g.TileH {
			return nil, fmt.Errorf("raster: label tile %d is %dx%d, grid expects %dx%d", i, t.W, t.H, g.TileW, g.TileH)
		}
		row, col := i/g.Cols, i%g.Cols
		for y := 0; y < g.TileH; y++ {
			dstOff := (row*g.TileH+y)*out.W + col*g.TileW
			copy(out.Pix[dstOff:dstOff+g.TileW], t.Pix[y*g.TileW:(y+1)*g.TileW])
		}
	}
	return out, nil
}

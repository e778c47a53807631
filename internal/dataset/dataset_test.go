package dataset

import (
	"bytes"
	"testing"

	"seaice/internal/raster"
	"seaice/internal/scene"
)

func buildSmall(t *testing.T, seed uint64, scenes int) *Set {
	t.Helper()
	cc := scene.DefaultCollection(seed)
	cc.Scenes = scenes
	cc.W, cc.H = 128, 128
	scs, err := scene.GenerateCollection(cc)
	if err != nil {
		t.Fatalf("scenes: %v", err)
	}
	cfg := DefaultBuild()
	cfg.TileSize = 32
	set, err := Build(scs, cfg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return set
}

func TestBuildTileCount(t *testing.T) {
	set := buildSmall(t, 3, 4)
	want := 4 * (128 / 32) * (128 / 32)
	if len(set.Tiles) != want {
		t.Fatalf("built %d tiles, want %d", len(set.Tiles), want)
	}
	for i, tile := range set.Tiles {
		if tile.Original == nil || tile.Filtered == nil || tile.Manual == nil || tile.Auto == nil {
			t.Fatalf("tile %d missing views", i)
		}
		if tile.Original.W != 32 || tile.Manual.W != 32 {
			t.Fatalf("tile %d wrong size", i)
		}
		if tile.CloudFraction < 0 || tile.CloudFraction > 1 {
			t.Fatalf("tile %d cloud fraction %f", i, tile.CloudFraction)
		}
	}
}

func TestBuildRejectsBadTileSize(t *testing.T) {
	cfg := DefaultBuild()
	cfg.TileSize = 0
	if _, err := Build(nil, cfg); err == nil {
		t.Fatal("expected tile-size error")
	}
	// indivisible tile size
	cc := scene.DefaultCollection(1)
	cc.Scenes = 1
	cc.W, cc.H = 100, 100
	scs, _ := scene.GenerateCollection(cc)
	cfg = DefaultBuild()
	cfg.TileSize = 33
	if _, err := Build(scs, cfg); err == nil {
		t.Fatal("expected divisibility error")
	}
}

func TestSplitDisjointAndComplete(t *testing.T) {
	set := buildSmall(t, 5, 3)
	tr, te, err := set.Split(0.8, 42)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	if len(tr)+len(te) != len(set.Tiles) {
		t.Fatalf("split loses tiles: %d + %d != %d", len(tr), len(te), len(set.Tiles))
	}
	wantTrain := int(0.8 * float64(len(set.Tiles)))
	if len(tr) != wantTrain {
		t.Fatalf("train size %d, want %d", len(tr), wantTrain)
	}
	// determinism
	tr2, _, _ := set.Split(0.8, 42)
	for i := range tr {
		if tr[i].Scene != tr2[i].Scene || tr[i].CloudFraction != tr2[i].CloudFraction {
			t.Fatal("split not deterministic")
		}
	}
	if _, _, err := set.Split(1.5, 1); err == nil {
		t.Fatal("expected fraction error")
	}
}

func TestCloudBucketsPartition(t *testing.T) {
	set := buildSmall(t, 7, 4)
	cloudy, clear := CloudBuckets(set.Tiles, 0.10)
	if len(cloudy)+len(clear) != len(set.Tiles) {
		t.Fatal("buckets lose tiles")
	}
	for _, tile := range cloudy {
		if tile.CloudFraction <= 0.10 {
			t.Fatalf("cloudy bucket has %f", tile.CloudFraction)
		}
	}
	for _, tile := range clear {
		if tile.CloudFraction > 0.10 {
			t.Fatalf("clear bucket has %f", tile.CloudFraction)
		}
	}
	if len(cloudy) == 0 || len(clear) == 0 {
		t.Fatalf("degenerate buckets: %d cloudy, %d clear", len(cloudy), len(clear))
	}
}

func TestSamplesViews(t *testing.T) {
	set := buildSmall(t, 9, 2)
	tiles := set.Tiles[:4]

	so := Samples(tiles, OriginalImages, ManualLabels)
	sf := Samples(tiles, FilteredImages, AutoLabels)
	for i := range tiles {
		if so[i].Image != tiles[i].Original || so[i].Labels != tiles[i].Manual {
			t.Fatalf("original/manual view wrong at %d", i)
		}
		if sf[i].Image != tiles[i].Filtered || sf[i].Labels != tiles[i].Auto {
			t.Fatalf("filtered/auto view wrong at %d", i)
		}
	}
}

func TestSubsample(t *testing.T) {
	set := buildSmall(t, 11, 2)
	sub := Subsample(set.Tiles, 5, 1)
	if len(sub) != 5 {
		t.Fatalf("subsample size %d", len(sub))
	}
	all := Subsample(set.Tiles, 10000, 1)
	if len(all) != len(set.Tiles) {
		t.Fatal("oversized subsample should return everything")
	}
	if Subsample(set.Tiles, 0, 1) != nil {
		t.Fatal("zero subsample should be nil")
	}
}

// TestAutoLabelsTrackManualOnClearTiles: on tiles without clouds, the
// auto labels must agree with manual labels almost everywhere — the
// foundation of the paper's auto-labeling claim.
func TestAutoLabelsTrackManualOnClearTiles(t *testing.T) {
	set := buildSmall(t, 13, 4)
	_, clear := CloudBuckets(set.Tiles, 0.02)
	if len(clear) == 0 {
		t.Skip("no clear tiles in this campaign")
	}
	agree, total := 0, 0
	for _, tile := range clear {
		for i := range tile.Manual.Pix {
			if tile.Manual.Pix[i] == tile.Auto.Pix[i] {
				agree++
			}
			total++
		}
	}
	frac := float64(agree) / float64(total)
	if frac < 0.95 {
		t.Fatalf("clear-tile auto/manual agreement %.4f < 0.95", frac)
	}
}

// TestTileViewsShareScenePixels: a tile's original view must match the
// source scene's pixels at the tile offset.
func TestTileViewsShareScenePixels(t *testing.T) {
	cc := scene.DefaultCollection(15)
	cc.Scenes = 1
	cc.W, cc.H = 64, 64
	scs, _ := scene.GenerateCollection(cc)
	cfg := DefaultBuild()
	cfg.TileSize = 32
	set, err := Build(scs, cfg)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	// tile 3 = (col 1, row 1)
	tile := set.Tiles[3]
	for y := 0; y < 32; y++ {
		for x := 0; x < 32; x++ {
			ti, si := 3*(y*32+x), 3*((32+y)*scs[0].Image.W+32+x)
			if !bytes.Equal(tile.Original.Pix[ti:ti+3], scs[0].Image.Pix[si:si+3]) {
				t.Fatalf("tile pixel (%d,%d) differs from scene", x, y)
			}
			if tile.Manual.Pix[y*32+x] != scs[0].Truth.Pix[(32+y)*scs[0].Truth.W+32+x] {
				t.Fatalf("tile label (%d,%d) differs from truth", x, y)
			}
		}
	}
	_ = raster.ClassWater
}

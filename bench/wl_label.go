package main

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"time"

	"seaice/internal/cloudfilter"
	"seaice/internal/dataset"
	"seaice/internal/labeler"
	"seaice/internal/metrics"
	"seaice/internal/pipeline"
	"seaice/internal/raster"
	"seaice/internal/scene"
)

// Campaign-label job shape: two 256² scenes cut into 32² tiles, so a job
// labels 128 tiles in ≈0.19 s on the 2-vCPU reference host and both stage
// workers have a scene each.
const (
	labelScenesPerJob = 2
	labelSceneSize    = 256
	labelTile         = 32
	labelTilesPerJob  = labelScenesPerJob * (labelSceneSize / labelTile) * (labelSceneSize / labelTile)
	// labelJobsPerSecond sizes the fixed work from -seconds on the
	// reference host; it is a constant so that quality is a pure function
	// of (-seed, -seconds).
	labelJobsPerSecond = 5
	labelVerifyEvery   = 20 // every 20th job is compared with the serial path
	labelProbeEvery    = 10 // traced runs time filter and tiling directly on every 10th job
)

// labelWL is workload campaign-label: a closed sequential loop of small
// auto-labeling campaigns through the streaming pipeline. Every job is new
// content, so nothing can be cached from one job to the next.
type labelWL struct {
	p     params
	build dataset.BuildConfig
	next  int // next unused job index; warm-up and windows never repeat content
}

func newLabelWL(p params) *labelWL {
	build := dataset.DefaultBuild()
	build.TileSize = labelTile
	build.Workers = p.nproc
	return &labelWL{p: p, build: build}
}

func (w *labelWL) jobsFor(seconds float64) int {
	return max(1, int(seconds*labelJobsPerSecond+0.5))
}

func (w *labelWL) campaign(job int) scene.CollectionConfig {
	c := scene.DefaultCollection(w.p.seed*1_000_003 + uint64(job))
	c.Scenes, c.W, c.H = labelScenesPerJob, labelSceneSize, labelSceneSize
	return c
}

// tracedSource wraps the pipeline's scene seam: it times SceneAt and keeps
// the rendered scenes for the direct filter/tile probes.
type tracedSource struct {
	pipeline.Source
	tr     *tracer
	parent int
	job    int
	mu     sync.Mutex
	scenes map[int]*scene.Scene
}

func (s *tracedSource) SceneAt(i int) (*scene.Scene, error) {
	id := s.tr.begin("scene.generate", s.parent, s.job)
	sc, err := s.Source.SceneAt(i)
	s.tr.end(id)
	if err == nil {
		s.mu.Lock()
		s.scenes[i] = sc
		s.mu.Unlock()
	}
	return sc, err
}

// tracedLabeler wraps the labeling seam.
type tracedLabeler struct {
	labeler.Labeler
	tr     *tracer
	parent int
	job    int
}

func (l tracedLabeler) Label(img *raster.RGB) (*raster.Labels, error) {
	id := l.tr.begin("labeler."+l.Name(), l.parent, l.job)
	defer l.tr.end(id)
	return l.Labeler.Label(img)
}

// runJob builds job j's tile set. With a tracer the scene source and the
// labeler are wrapped; without one the pipeline runs exactly as shipped.
func (w *labelWL) runJob(tr *tracer, j int) (*dataset.Set, *tracedSource, time.Duration, error) {
	var src pipeline.Source = pipeline.CollectionSource{Cfg: w.campaign(j)}
	build := w.build
	var ts *tracedSource
	start := time.Now()
	root := tr.begin("job.campaign-label", noSpan, j)
	if tr != nil {
		ts = &tracedSource{Source: src, tr: tr, parent: root, job: j, scenes: map[int]*scene.Scene{}}
		src = ts
		build.Labeler = tracedLabeler{Labeler: build.ActiveLabeler(), tr: tr, parent: root, job: j}
	}
	set, err := pipeline.StreamBuilder{Config: pipeline.Config{Build: build, Workers: w.p.nproc}}.BuildSet(src)
	tr.end(root)
	return set, ts, time.Since(start), err
}

func (w *labelWL) setup(*tracer) error {
	warm := max(1, w.jobsFor(float64(w.p.seconds))/20)
	for i := 0; i < warm; i++ {
		if _, _, _, err := w.runJob(nil, w.next); err != nil {
			return fmt.Errorf("warm-up job %d: %w", w.next, err)
		}
		w.next++
	}
	return nil
}

func (w *labelWL) run(tr *tracer, seconds float64) (*outcome, error) {
	jobs := w.jobsFor(seconds)
	truth := metrics.NewConfusion(int(raster.NumClasses)) // ground truth × auto label, every pixel
	kept := map[int]*dataset.Set{}                        // sampled job → its tiles, verified after the window
	var overhead []float64
	out := openWindow()
	for n := 0; n < jobs; n++ {
		j := w.next
		w.next++
		set, ts, d, err := w.runJob(tr, j)
		if !out.verifyTileCount(j, err, tileCount(set), labelTilesPerJob) {
			continue
		}
		out.jobMs = append(out.jobMs, ms(d))
		out.tiles += len(set.Tiles)
		for _, t := range set.Tiles {
			if err := truth.AddLabels(t.Manual, t.Auto); err != nil {
				return nil, fmt.Errorf("job %d: %w", j, err)
			}
		}
		if n%labelVerifyEvery == 0 {
			kept[j] = set
		}
		if tr != nil && n%labelProbeEvery == 0 {
			share, err := w.probeJob(tr, j, ts, d)
			if err != nil {
				return nil, err
			}
			overhead = append(overhead, share)
		}
	}
	out.closeWindow()

	// Verification, after the window: every sampled job must equal the
	// serial batch path byte for byte.
	for j, set := range kept {
		if err := w.verifySerial(j, set); err != nil {
			out.fail("job %d: %v", j, err)
			out.tiles -= len(set.Tiles)
		}
	}
	out.quality = truth.Accuracy()
	if tr != nil {
		out.layers["pipeline.overhead_share"] = median(overhead)
	}
	return out, nil
}

func (w *labelWL) close() {}

func tileCount(s *dataset.Set) int {
	if s == nil {
		return 0
	}
	return len(s.Tiles)
}

// probeJob times the two stages the pipeline offers no seam for — the
// cloud filter and tiling — by calling them directly on the job's own
// scenes, off the job's clock, and returns the job's pipeline overhead
// share: 1 − (children's busy time ÷ stage workers ÷ job wall time).
func (w *labelWL) probeJob(tr *tracer, j int, ts *tracedSource, wall time.Duration) (float64, error) {
	busy := time.Duration(0)
	for _, s := range tr.closed() {
		if s.job == j && (s.name == "scene.generate" || s.name == "labeler.hsv") {
			busy += s.end - s.start
		}
	}
	for i := 0; i < labelScenesPerJob; i++ {
		sc := ts.scenes[i]
		f0 := time.Now()
		cloudfilter.Filter(sc.Image, w.build.Filter)
		f1 := time.Now()
		tr.add("cloudfilter.filter", f0, f1, noSpan, j)
		ls, err := dataset.LabelScene(sc, w.build)
		if err != nil {
			return 0, fmt.Errorf("probe job %d: %w", j, err)
		}
		t0 := time.Now()
		if _, err := dataset.TileScene(ls, i, w.build); err != nil {
			return 0, fmt.Errorf("probe job %d: %w", j, err)
		}
		t1 := time.Now()
		tr.add("dataset.tile", t0, t1, noSpan, j)
		busy += f1.Sub(f0) + t1.Sub(t0)
	}
	workers := min(w.p.nproc, labelScenesPerJob)
	return 1 - float64(busy)/float64(workers)/float64(wall), nil
}

// verifySerial rebuilds job j scene by scene with dataset.BuildScene and
// compares every raster of every tile.
func (w *labelWL) verifySerial(j int, got *dataset.Set) error {
	var want []dataset.Tile
	for i := 0; i < labelScenesPerJob; i++ {
		sc, err := scene.GenerateAt(w.campaign(j), i)
		if err != nil {
			return err
		}
		tiles, err := dataset.BuildScene(sc, i, w.build)
		if err != nil {
			return err
		}
		want = append(want, tiles...)
	}
	return equalTiles(got.Tiles, want)
}

func equalTiles(got, want []dataset.Tile) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d tiles, serial path has %d", len(got), len(want))
	}
	for i := range got {
		g, s := got[i], want[i]
		if g.Scene != s.Scene || !bytes.Equal(g.Original.Pix, s.Original.Pix) ||
			!bytes.Equal(g.Filtered.Pix, s.Filtered.Pix) ||
			!slices.Equal(g.Auto.Pix, s.Auto.Pix) || !slices.Equal(g.Manual.Pix, s.Manual.Pix) {
			return fmt.Errorf("tile %d differs from the serial path", i)
		}
	}
	return nil
}

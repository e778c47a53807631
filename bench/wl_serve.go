package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"seaice/internal/core"
	"seaice/internal/dataset"
	"seaice/internal/pool"
	"seaice/internal/raster"
	"seaice/internal/scene"
	"seaice/internal/serve"
	"seaice/internal/train"
	"seaice/internal/unet"
)

const (
	serveTile      = 32
	serveSceneSize = 256
	sceneTiles     = (serveSceneSize / serveTile) * (serveSceneSize / serveTile)

	// The served model is a fixed fixture, not a function of -seed:
	// FastConfig(modelSeed) trained for 48 steps (3 epochs over the 128
	// auto-labeled 16² tiles of two 128² scenes, batch 8). Trainings this
	// short are fragile — over model seeds 1–6 they end between 0.50 and
	// 0.98 held-out accuracy — so a seed-dependent model would make
	// quality measure training luck; with one fixture it measures the
	// serving path on the seed's scenes. The fully convolutional model is
	// trained on 16² tiles (a quarter of the step cost) and served on 32².
	modelSeed      = 5
	modelScenes    = 2
	modelSceneSize = 128
	modelTile      = 16
	modelBatch     = 8
	modelEpochs    = 3
	calibTiles     = 64

	scenePool = 24 // serve-scenes cycles through this many scenes

	tileScenes   = 12                      // serve-tiles draws from the tiles of this many scenes
	tilePool     = tileScenes * sceneTiles // 768
	tileCache    = 256                     // LRU entries: a third of the pool, so hits, misses and evictions all occur
	tileRate     = 120                     // requests per second, ≈40 % utilisation on the reference host
	tileZipfS    = 1.1
	lateAfter    = 50 * time.Millisecond // serve.late_share threshold
	warmRequests = 0.05                  // warm-up requests as a share of the window's
)

// serveFixture is what both serve workloads share: a trained model behind
// one serve.Server on a loopback listener, and a keep-alive HTTP client
// limited to nproc connections.
type serveFixture struct {
	p      params
	tr     atomic.Pointer[tracer] // the wrapped engine's current tracer; nil = off
	engine unet.Engine            // the engine the server runs, unwrapped
	build  dataset.BuildConfig
	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returned
	url    string
	client *http.Client
	items  []servedItem // what the clients post: scenes or tiles
}

// servedItem is one image the workload posts, with the scene generator's
// ground truth for it.
type servedItem struct {
	png   []byte
	img   *raster.RGB
	truth *raster.Labels
}

func (fx *serveFixture) addItem(img *raster.RGB, truth *raster.Labels) error {
	var buf bytes.Buffer
	if err := img.EncodePNG(&buf); err != nil {
		return err
	}
	fx.items = append(fx.items, servedItem{buf.Bytes(), img, truth})
	return nil
}

// tracedEngine wraps the unet.Engine seam so every forward pass of the
// server's workers is a span and every batch size a count.
type tracedEngine struct {
	unet.Engine
	fx *serveFixture
}

func (e *tracedEngine) NewPredictor() unet.Predictor {
	return tracedPredictor{Predictor: e.Engine.NewPredictor(), e: e}
}

type tracedPredictor struct {
	unet.Predictor
	e *tracedEngine
}

func (p tracedPredictor) PredictTiles(tiles []*raster.RGB) ([]*raster.Labels, error) {
	tr := p.e.fx.tr.Load()
	id := tr.begin("unet.predict."+p.e.Precision(), noSpan, -1)
	out, err := p.Predictor.PredictTiles(tiles)
	tr.end(id)
	tr.observe("unet.batch_tiles", float64(len(tiles)))
	return out, err
}

// collection is the seed-derived campaign of served scenes; salt keeps the
// two serve workloads' scenes apart.
func collection(seed, salt uint64, scenes int) scene.CollectionConfig {
	c := scene.DefaultCollection(seed*1_000_003 + salt)
	c.Scenes, c.W, c.H = scenes, serveSceneSize, serveSceneSize
	return c
}

// generateScenes renders the campaign's scenes on nproc workers.
func generateScenes(tr *tracer, c scene.CollectionConfig, nproc int) ([]*scene.Scene, error) {
	out := make([]*scene.Scene, c.Scenes)
	err := pool.New(nproc).Map(c.Scenes, func(i int) error {
		id := tr.begin("scene.generate", noSpan, -1)
		defer tr.end(id)
		var err error
		out[i], err = scene.GenerateAt(c, i)
		return err
	})
	return out, err
}

// trainServeModel builds the fixed model fixture and returns it with the
// filtered tiles the int8 rendering is calibrated on.
func trainServeModel(tr *tracer, nproc int) (*unet.Model[float32], []*raster.RGB, error) {
	c := scene.DefaultCollection(modelSeed * 77)
	c.Scenes, c.W, c.H = modelScenes, modelSceneSize, modelSceneSize
	scenes, err := generateScenes(tr, c, nproc)
	if err != nil {
		return nil, nil, err
	}
	build := dataset.DefaultBuild()
	build.TileSize = modelTile
	build.Workers = nproc
	var tiles []dataset.Tile
	for i, sc := range scenes {
		ts, err := dataset.BuildScene(sc, i, build)
		if err != nil {
			return nil, nil, err
		}
		tiles = append(tiles, ts...)
	}
	m, err := unet.New[float32](unet.FastConfig(modelSeed))
	if err != nil {
		return nil, nil, err
	}
	id := tr.begin("train.fit", noSpan, -1)
	_, err = train.Fit(m, dataset.Samples(tiles, dataset.FilteredImages, dataset.AutoLabels), train.Config{
		Epochs: modelEpochs, BatchSize: modelBatch, LR: 0.01, Seed: modelSeed, MasterWeights: true,
	})
	tr.end(id)
	if err != nil {
		return nil, nil, err
	}
	calib := make([]*raster.RGB, calibTiles)
	for i := range calib {
		calib[i] = tiles[i].Filtered
	}
	return m, calib, nil
}

// quantizeModel renders the trained model as the int8 engine.
func quantizeModel(tr *tracer, m *unet.Model[float32], calib []*raster.RGB) (*unet.QuantModel, error) {
	master, err := unet.New[float64](m.Config())
	if err != nil {
		return nil, err
	}
	if err := master.SetWeightsF64(m.WeightsF64()); err != nil {
		return nil, err
	}
	id := tr.begin("unet.calibrate", noSpan, -1)
	cal, err := unet.Calibrate(master, calib, core.DefaultInferenceBatch)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("unet.quantize", noSpan, -1)
	defer tr.end(id)
	return unet.Quantize(master, cal)
}

// start brings the server up on a loopback port. Traced runs register the
// engine behind the tracing wrapper; end-to-end runs register it bare.
func (fx *serveFixture) start(engine unet.Engine, cacheSize int) error {
	fx.engine = engine
	cfg := serve.DefaultConfig()
	cfg.TileSize = serveTile
	cfg.CacheSize = cacheSize
	cfg.Workers = fx.p.nproc
	fx.build = cfg.Build
	reg := serve.NewRegistry()
	registered := engine
	if fx.p.trace {
		registered = &tracedEngine{Engine: engine, fx: fx}
	}
	if err := reg.Add("bench", registered); err != nil {
		return err
	}
	srv, err := serve.NewServer(cfg, reg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	fx.srv = srv
	fx.hs = &http.Server{Handler: srv.Handler()}
	fx.served = make(chan struct{})
	go func() {
		defer close(fx.served)
		fx.hs.Serve(ln) // returns ErrServerClosed from close()
	}()
	fx.url = "http://" + ln.Addr().String()
	fx.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: fx.p.nproc, MaxConnsPerHost: fx.p.nproc,
	}}
	return nil
}

func (fx *serveFixture) close() {
	if fx.hs == nil {
		return
	}
	fx.client.CloseIdleConnections()
	fx.hs.Close()
	<-fx.served
	fx.srv.Close()
}

// classify POSTs one PNG and returns the raw label bytes and, on traced
// runs, the server's own elapsed time from the X-Seaice-Stats header.
func (fx *serveFixture) classify(png []byte, traced bool) (body []byte, serverMs float64, err error) {
	resp, err := fx.client.Post(fx.url+"/classify?format=raw", "image/png", bytes.NewReader(png))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("status %d: %.80s", resp.StatusCode, body)
	}
	if traced {
		var st struct {
			ElapsedMS float64 `json:"elapsed_ms"`
		}
		if err := json.Unmarshal([]byte(resp.Header.Get("X-Seaice-Stats")), &st); err != nil {
			return nil, 0, fmt.Errorf("X-Seaice-Stats: %w", err)
		}
		serverMs = st.ElapsedMS
	}
	return body, serverMs, nil
}

// statz reads the server's counters over HTTP, as an operator would.
func (fx *serveFixture) statz() (serve.Snapshot, error) {
	var snap serve.Snapshot
	resp, err := fx.client.Get(fx.url + "/statz")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	return snap, json.NewDecoder(resp.Body).Decode(&snap)
}

// watchStatz reads /statz at the start of a traced window and returns the
// function that reads it again at the end and files the deltas as the
// serve.* metrics. Untraced, both are no-ops.
func (fx *serveFixture) watchStatz(tr *tracer) (finish func(layers map[string]float64) error, err error) {
	if tr == nil {
		return func(map[string]float64) error { return nil }, nil
	}
	before, err := fx.statz()
	if err != nil {
		return nil, err
	}
	return func(layers map[string]float64) error {
		after, err := fx.statz()
		if err == nil {
			statzLayers(layers, before, after)
		}
		return err
	}, nil
}

// statzLayers turns two /statz snapshots into the serve.* window metrics.
func statzLayers(layers map[string]float64, a, b serve.Snapshot) {
	batches := float64(b.Batches - a.Batches)
	layers["serve.batches"] = batches
	if batches > 0 {
		layers["serve.avg_batch_size"] = (b.AvgBatchSize*float64(b.Batches) - a.AvgBatchSize*float64(a.Batches)) / batches
	}
	if lookups := float64(b.CacheHits + b.CacheMisses - a.CacheHits - a.CacheMisses); lookups > 0 {
		layers["serve.cache_hit_rate"] = float64(b.CacheHits-a.CacheHits) / lookups
	}
	layers["serve.rejected"] = float64(b.Rejected - a.Rejected)
	layers["serve.expired_dropped"] = float64(b.ExpiredDropped - a.ExpiredDropped)
}

// expected classifies img in-process with the same engine and filter the
// server uses — the reference every response must equal byte for byte.
func (fx *serveFixture) expected(img *raster.RGB) ([]byte, error) {
	labels, err := core.Inference(fx.engine, img, serveTile, fx.build)
	if err != nil {
		return nil, err
	}
	return classBytes(labels), nil
}

func classBytes(l *raster.Labels) []byte {
	out := make([]byte, len(l.Pix))
	for i, c := range l.Pix {
		out[i] = byte(c)
	}
	return out
}

// agreeBytes counts response bytes equal to the ground-truth classes.
func agreeBytes(body []byte, truth *raster.Labels) (agree int64) {
	for i, c := range truth.Pix {
		if i < len(body) && body[i] == byte(c) {
			agree++
		}
	}
	return agree
}

// ---------------------------------------------------------------------
// serve-scenes: closed loop, nproc clients, whole-scene requests, int8
// engine, cache off.

type scenesWL struct {
	serveFixture
	next atomic.Int64 // request counter; request n posts scene n % scenePool
}

func newScenesWL(p params) *scenesWL { return &scenesWL{serveFixture: serveFixture{p: p}} }

func (w *scenesWL) setup(tr *tracer) error {
	m, calib, err := trainServeModel(tr, w.p.nproc)
	if err != nil {
		return err
	}
	q, err := quantizeModel(tr, m, calib)
	if err != nil {
		return err
	}
	scenes, err := generateScenes(tr, collection(w.p.seed, 1, scenePool), w.p.nproc)
	if err != nil {
		return err
	}
	for _, sc := range scenes {
		if err := w.addItem(sc.Image, sc.Truth); err != nil {
			return err
		}
	}
	if err := w.start(q, 0); err != nil {
		return err
	}
	// Warm-up: 5 % of a window, so every client connection, worker session
	// and scratch buffer exists before the first measured job.
	warmUntil := time.Now().Add(time.Duration(warmRequests * float64(w.p.seconds) * float64(time.Second)))
	for _, r := range w.drive(nil, warmUntil) {
		if r.err != nil {
			return fmt.Errorf("warm-up request: %w", r.err)
		}
	}
	return nil
}

// sceneReply is one closed-loop request's record.
type sceneReply struct {
	scene    int
	body     []byte
	ms       float64
	serverMs float64
	err      error
}

// drive runs the closed loop: nproc clients, each posting its next scene as
// soon as the previous reply arrived, until the deadline.
func (w *scenesWL) drive(tr *tracer, deadline time.Time) []sceneReply {
	var mu sync.Mutex
	var replies []sceneReply
	var wg sync.WaitGroup
	for c := 0; c < w.p.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				n := int(w.next.Add(1) - 1)
				id := tr.begin("serve.http", noSpan, n)
				start := time.Now()
				body, serverMs, err := w.classify(w.items[n%scenePool].png, tr != nil)
				d := time.Since(start)
				tr.end(id)
				mu.Lock()
				replies = append(replies, sceneReply{n % scenePool, body, ms(d), serverMs, err})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return replies
}

func (w *scenesWL) run(tr *tracer, seconds float64) (*outcome, error) {
	w.tr.Store(tr)
	defer w.tr.Store(nil)
	finishStatz, err := w.watchStatz(tr)
	if err != nil {
		return nil, err
	}
	out := openWindow()
	replies := w.drive(tr, out.start.Add(time.Duration(seconds*float64(time.Second))))
	out.closeWindow()
	if err := finishStatz(out.layers); err != nil {
		return nil, err
	}
	if tr != nil {
		// The server filters each scene inside the request; time the same
		// call directly on a few of the pool's scenes, off the window.
		for _, it := range w.items[:4] {
			id := tr.begin("cloudfilter.filter", noSpan, -1)
			core.FilterScene(it.img, w.build)
			tr.end(id)
		}
	}

	// Verification, after the window: every response must equal the
	// in-process classification of its scene.
	want := make([][]byte, scenePool)
	if err := pool.New(w.p.nproc).Map(scenePool, func(i int) (err error) {
		want[i], err = w.expected(w.items[i].img)
		return err
	}); err != nil {
		return nil, fmt.Errorf("in-process reference: %w", err)
	}
	var agree, pixels int64
	seen := make([]bool, scenePool)
	var serverMs, overheadMs []float64
	for _, r := range replies {
		if !out.verifyBody(fmt.Sprintf("scene %d", r.scene), r.err, r.body, want[r.scene]) {
			continue
		}
		out.jobMs = append(out.jobMs, r.ms)
		out.tiles += sceneTiles
		serverMs, overheadMs = append(serverMs, r.serverMs), append(overheadMs, r.ms-r.serverMs)
		if !seen[r.scene] { // quality over the first pass through the pool
			seen[r.scene] = true
			agree += agreeBytes(r.body, w.items[r.scene].truth)
			pixels += int64(len(w.items[r.scene].truth.Pix))
		}
	}
	out.quality = float64(agree) / float64(max(pixels, 1))
	if tr != nil {
		out.layers["serve.server_ms"] = median(serverMs)
		out.layers["serve.http_overhead_ms"] = median(overheadMs)
	}
	return out, nil
}

// ---------------------------------------------------------------------
// serve-tiles: open loop at a fixed rate, single-tile requests, f32
// engine, a cache smaller than the tile pool, Zipf popularity.

type tilesWL struct {
	serveFixture
	sent int // requests issued so far; the schedule continues across windows
}

func newTilesWL(p params) *tilesWL { return &tilesWL{serveFixture: serveFixture{p: p}} }

// tilePlan is the seed's request schedule: request i asks for tile
// draws[i], a Zipf-distributed popularity rank mapped through a seeded
// permutation of the pool. It is a pure function of the seed, and a longer
// plan extends a shorter one.
func tilePlan(seed uint64, n int) (draws []int) {
	rng := rand.New(rand.NewSource(int64(seed)))
	order := rng.Perm(tilePool)
	zipf := rand.NewZipf(rng, tileZipfS, 1, tilePool-1)
	draws = make([]int, n)
	for i := range draws {
		draws[i] = order[zipf.Uint64()]
	}
	return draws
}

func (w *tilesWL) setup(tr *tracer) error {
	m, _, err := trainServeModel(tr, w.p.nproc)
	if err != nil {
		return err
	}
	scenes, err := generateScenes(tr, collection(w.p.seed, 2, tileScenes), w.p.nproc)
	if err != nil {
		return err
	}
	for _, sc := range scenes {
		tiles, _, err := raster.Split(sc.Image, serveTile, serveTile)
		if err != nil {
			return err
		}
		truths, _, err := raster.SplitLabels(sc.Truth, serveTile, serveTile)
		if err != nil {
			return err
		}
		for i, t := range tiles {
			if err := w.addItem(t.Image, truths[i]); err != nil {
				return err
			}
		}
	}
	if err := w.start(m, tileCache); err != nil {
		return err
	}
	warm := int(warmRequests * float64(w.p.seconds) * tileRate)
	_, err = w.fire(nil, warm)
	return err
}

// tileReply is one open-loop request's record.
type tileReply struct {
	tile     int
	body     []byte
	ms       float64 // completion − due time
	lagMs    float64 // send − due time
	serverMs float64
	err      error
}

// fire issues n requests of the seed's schedule at tileRate on nproc
// keep-alive connections. Request i is due at start + i/tileRate; a sender
// that is still busy at that moment sends late, and the latency is still
// counted from the due time, so a stall charges every request it delays.
func (w *tilesWL) fire(tr *tracer, n int) ([]tileReply, error) {
	draws := tilePlan(w.p.seed, w.sent+n)[w.sent:]
	w.sent += n
	replies := make([]tileReply, n)
	sched := newSchedule(time.Now(), tileRate, n)
	var wg sync.WaitGroup
	for c := 0; c < w.p.nproc; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, due, ok := sched.next()
				if !ok {
					return
				}
				id := tr.begin("serve.http", noSpan, i)
				sendAt := time.Now()
				body, serverMs, err := w.classify(w.items[draws[i]].png, tr != nil)
				doneAt := time.Now()
				tr.end(id)
				replies[i] = tileReply{draws[i], body, ms(doneAt.Sub(due)), ms(sendAt.Sub(due)), serverMs, err}
			}
		}()
	}
	wg.Wait()
	for _, r := range replies {
		if r.err != nil {
			return replies, r.err
		}
	}
	return replies, nil
}

func (w *tilesWL) run(tr *tracer, seconds float64) (*outcome, error) {
	w.tr.Store(tr)
	defer w.tr.Store(nil)
	finishStatz, err := w.watchStatz(tr)
	if err != nil {
		return nil, err
	}
	out := openWindow()
	out.offeredRate = true
	replies, _ := w.fire(tr, int(seconds*tileRate)) // failed requests are counted per reply below
	out.closeWindow()
	if err := finishStatz(out.layers); err != nil {
		return nil, err
	}

	// Verification, after the window: the in-process result of every
	// distinct tile requested, then each response against it.
	var distinct []int
	want := map[int][]byte{}
	for _, r := range replies {
		if _, ok := want[r.tile]; !ok {
			want[r.tile] = nil
			distinct = append(distinct, r.tile)
		}
	}
	results := make([][]byte, len(distinct))
	if err := pool.New(w.p.nproc).Map(len(distinct), func(i int) (err error) {
		results[i], err = w.expected(w.items[distinct[i]].img)
		return err
	}); err != nil {
		return nil, fmt.Errorf("in-process reference: %w", err)
	}
	for i, t := range distinct {
		want[t] = results[i]
	}
	var agree, pixels int64
	var lag, serverMs, overheadMs []float64
	late := 0
	scored := map[int]bool{}
	for _, r := range replies {
		if !out.verifyBody(fmt.Sprintf("tile %d", r.tile), r.err, r.body, want[r.tile]) {
			continue
		}
		out.jobMs = append(out.jobMs, r.ms)
		out.tiles++
		lag = append(lag, r.lagMs)
		serverMs, overheadMs = append(serverMs, r.serverMs), append(overheadMs, r.ms-r.lagMs-r.serverMs)
		if r.ms > ms(lateAfter) {
			late++
		}
		if !scored[r.tile] { // quality over the distinct tiles, not weighted by popularity
			scored[r.tile] = true
			agree += agreeBytes(r.body, w.items[r.tile].truth)
			pixels += int64(len(w.items[r.tile].truth.Pix))
		}
	}
	out.quality = float64(agree) / float64(max(pixels, 1))
	if tr != nil {
		out.layers["serve.server_ms"] = median(serverMs)
		out.layers["serve.http_overhead_ms"] = median(overheadMs)
		out.layers["serve.late_share"] = float64(late) / float64(max(len(replies), 1))
		if p90, err := tailPercentile(lag, 0.9); err == nil {
			out.layers["gen.lag_ms_p90"] = p90
		}
	}
	return out, nil
}

// schedule hands out the slots of a fixed-rate open-loop schedule to the
// sender goroutines: slot i is due at start + i/rate.
type schedule struct {
	start    time.Time
	interval time.Duration
	n        int
	taken    atomic.Int64
	sleep    func(time.Duration) // time.Sleep; the unit tests stub it
	now      func() time.Time
}

func newSchedule(start time.Time, rate float64, n int) *schedule {
	return &schedule{start: start, interval: time.Duration(float64(time.Second) / rate), n: n, sleep: time.Sleep, now: time.Now}
}

// next claims the next slot and waits until it is due. A caller that
// arrives after the due time gets the slot at once: the slot keeps its due
// time, so the caller's lateness is measurable.
func (s *schedule) next() (i int, due time.Time, ok bool) {
	i = int(s.taken.Add(1) - 1)
	if i >= s.n {
		return 0, time.Time{}, false
	}
	due = s.start.Add(time.Duration(i) * s.interval)
	if wait := due.Sub(s.now()); wait > 0 {
		s.sleep(wait)
	}
	return i, due, true
}

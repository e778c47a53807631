package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"image/png"
	"io"
	"net/http"
	"time"

	"seaice/internal/core"
	"seaice/internal/raster"
	"seaice/internal/unet"
)

// maxBodyBytes bounds /classify uploads (a 2048² RGBA PNG is well under
// this).
const maxBodyBytes = 64 << 20

// Server is the HTTP front end: it owns the scheduler, cache, and stats
// and exposes the classification service over stdlib net/http.
//
// The cache is looked up before any work, under the key space that
// matches what the answer depends on (see CacheKey): an unfiltered
// request under its scene key — the scene-scale filter makes every
// tile's label a function of the whole input image — and a filtered=1
// request under per-tile keys. One LRU holds both, bounded to
// CacheSize × TileSize² label pixels, so a whole-scene entry costs as
// much capacity as its tiles would. Cached label maps are handed to
// every hit as-is: handlers only read them.
type Server struct {
	cfg   Config
	reg   *Registry
	sched *Scheduler
	cache *Cache
	stats *Stats
	mux   *http.ServeMux
	// fanout caps how many tiles one request submits to the scheduler
	// at once, so a single large scene cannot fill the queue by itself.
	fanout int
}

// NewServer validates cfg, warms every registered model, and starts the
// inference worker pool. Callers must Close the server to stop the pool.
func NewServer(cfg Config, reg *Registry) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(reg.Names()) == 0 {
		return nil, fmt.Errorf("serve: registry has no models")
	}
	if err := reg.Warm(cfg.TileSize); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:   cfg,
		reg:   reg,
		cache: NewCache(cfg.CacheSize, cfg.TileSize),
		stats: NewStats(),
		// Leave at least half the queue for other requests, but submit
		// enough tiles at once to fill micro-batches.
		fanout: max(1, min(cfg.QueueSize/2, 4*cfg.MaxBatch)),
	}
	s.sched = NewScheduler(cfg, s.stats)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/classify", s.handleClassify)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/statz", s.handleStatz)
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the inference pool, draining in-flight requests.
func (s *Server) Close() { s.sched.Close() }

// Stats exposes the server's recorder (for tests and the load
// generator).
func (s *Server) Stats() Snapshot {
	hits, misses := s.cache.Counters()
	snap := s.stats.Snapshot(s.sched.QueueDepth(), s.sched.LiveWorkers(), hits, misses)
	snap.PredictedWaitMS = float64(s.sched.Model().PredictWait(s.sched.QueueDepth(), s.cfg.Workers)) /
		float64(time.Millisecond)
	return snap
}

// classifyStats is the per-request summary returned in the
// X-Seaice-Stats response header.
type classifyStats struct {
	Model      string  `json:"model"`
	Tiles      int     `json:"tiles"`
	CacheHits  int     `json:"cache_hits"`
	Water      float64 `json:"water"`
	ThinIce    float64 `json:"thin_ice"`
	ThickIce   float64 `json:"thick_ice"`
	ElapsedMS  float64 `json:"elapsed_ms"`
	TileSize   int     `json:"tile_size"`
	FilterUsed bool    `json:"filter"`
}

// handleClassify implements POST /classify: PNG scene (or single tile)
// in, label-map PNG plus class statistics out. Unknown models 404, bad
// inputs 400, backpressure 429. Body and deadline header are validated
// before the cache is consulted, so a malformed request is a 400 even
// when its pixels would hit.
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a PNG to /classify", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	modelName := r.URL.Query().Get("model")
	engine, err := s.reg.Get(modelName)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if modelName == "" {
		modelName = s.reg.Default()
	}

	img, errStatus, err := decodeSceneBody(r, s.cfg.TileSize)
	if err != nil {
		http.Error(w, err.Error(), errStatus)
		return
	}
	deadline, err := parseDeadline(r, start)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// filtered=1 marks imagery already passed through the thin-cloud
	// filter (the coordinator filters once at scene scale before
	// sharding tiles, so worker nodes must not filter again).
	preFiltered := r.URL.Query().Get("filtered") == "1"

	pred := &servingPredictor{srv: s, engine: engine, modelName: modelName, deadline: deadline}
	var labels *raster.Labels
	if preFiltered {
		pred.tileCache = s.cache.Enabled()
		labels, err = core.InferFilteredScene(pred, img, s.cfg.TileSize)
	} else {
		labels, err = s.classifyScene(pred, img)
	}
	elapsed := time.Since(start)
	if err != nil {
		s.stats.RecordRequest(elapsed, pred.tiles, true)
		var infeasible *InfeasibleError
		switch {
		case errors.As(err, &infeasible):
			s.writeInfeasible(w, infeasible)
		case errors.Is(err, ErrOverloaded):
			s.writeOverloaded(w)
		case errors.Is(err, ErrDeadlineExpired):
			http.Error(w, err.Error(), http.StatusGatewayTimeout)
		case errors.Is(err, ErrClosed):
			http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		case errors.Is(err, unet.ErrNonFinite):
			// Corrupted weights or activations produced non-finite
			// logits; the result never reached the cache, and the client
			// learns the output is unusable rather than receiving a
			// laundered class map.
			http.Error(w, err.Error(), http.StatusBadRequest)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	s.stats.RecordRequest(elapsed, pred.tiles, false)

	counts := labels.Counts()
	total := float64(len(labels.Pix))
	stats := classifyStats{
		Model:      modelName,
		Tiles:      pred.tiles,
		CacheHits:  pred.cacheHits,
		Water:      float64(counts[raster.ClassWater]) / total,
		ThinIce:    float64(counts[raster.ClassThinIce]) / total,
		ThickIce:   float64(counts[raster.ClassThickIce]) / total,
		ElapsedMS:  float64(elapsed) / float64(time.Millisecond),
		TileSize:   s.cfg.TileSize,
		FilterUsed: !preFiltered,
	}
	hdr, _ := json.Marshal(stats)

	// format=raw returns the label map as one Class byte per pixel
	// (row-major) instead of a rendered PNG — the machine-to-machine
	// format the coordinator slices per tile without a decode step.
	if r.URL.Query().Get("format") == "raw" {
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("X-Seaice-Stats", string(hdr))
		w.Header().Set("X-Seaice-Dims", fmt.Sprintf("%dx%d", labels.W, labels.H))
		w.WriteHeader(http.StatusOK)
		pix := make([]byte, len(labels.Pix))
		for i, c := range labels.Pix {
			pix[i] = byte(c)
		}
		w.Write(pix)
		return
	}

	var buf bytes.Buffer
	if err := labels.Render().EncodePNG(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "image/png")
	w.Header().Set("X-Seaice-Stats", string(hdr))
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

// classifyScene answers an unfiltered request: look the input image up
// under its scene key first, and only on a miss run the Fig 9 workflow
// (filter → split → schedule → stitch) and store the stitched result. A
// hit costs one hash of the decoded pixels; failed requests store
// nothing. No per-tile entries are written on this path — a tile key
// taken after the scene-scale filter could only hit when the whole
// scene repeats, which the scene key already catches.
func (s *Server) classifyScene(pred *servingPredictor, img *raster.RGB) (*raster.Labels, error) {
	if !s.cache.Enabled() {
		return core.InferScene(pred, img, s.cfg.TileSize, s.cfg.Build)
	}
	tiles := (img.W / s.cfg.TileSize) * (img.H / s.cfg.TileSize)
	key := SceneKey(pred.modelName, img)
	if labels, ok := s.cache.Get(key, tiles); ok {
		pred.tiles, pred.cacheHits = tiles, tiles
		return labels, nil
	}
	labels, err := core.InferScene(pred, img, s.cfg.TileSize, s.cfg.Build)
	if err != nil {
		return nil, err
	}
	s.cache.Put(key, labels)
	return labels, nil
}

// overloadBody is the JSON payload of a 429 response: the client sees
// how deep the queue is against its bound, and Retry-After tells it when
// a retry is worth attempting.
type overloadBody struct {
	Error      string `json:"error"`
	QueueDepth int    `json:"queue_depth"`
	QueueSize  int    `json:"queue_size"`
	// PredictedWaitMS is the service-time model's completion estimate
	// behind the Retry-After value (0 until the model has observations).
	PredictedWaitMS float64 `json:"predicted_wait_ms,omitempty"`
}

// writeOverloaded answers a backpressure rejection: 429 with a
// model-derived Retry-After (the EWMA service-time model's estimate of
// how long the current backlog takes to drain, not a hardcoded guess)
// and a JSON body carrying the current queue depth.
func (s *Server) writeOverloaded(w http.ResponseWriter) {
	depth := s.sched.QueueDepth()
	wait := s.sched.Model().PredictWait(depth, s.cfg.Workers)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", retryAfterSeconds(wait))
	w.WriteHeader(http.StatusTooManyRequests)
	json.NewEncoder(w).Encode(overloadBody{
		Error:           "inference queue full, retry later",
		QueueDepth:      depth,
		QueueSize:       s.cfg.QueueSize,
		PredictedWaitMS: float64(wait) / float64(time.Millisecond),
	})
}

// writeInfeasible answers a predictive admission rejection: the model
// says this deadline cannot be met, so the client is told immediately —
// and told when retrying becomes worthwhile — instead of queueing work
// destined to time out.
func (s *Server) writeInfeasible(w http.ResponseWriter, e *InfeasibleError) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Retry-After", retryAfterSeconds(e.RetryAfter))
	w.WriteHeader(http.StatusTooManyRequests)
	json.NewEncoder(w).Encode(overloadBody{
		Error:           e.Error(),
		QueueDepth:      s.sched.QueueDepth(),
		QueueSize:       s.cfg.QueueSize,
		PredictedWaitMS: float64(e.Predicted) / float64(time.Millisecond),
	})
}

// maxSceneDim caps accepted scene dimensions; the paper's largest
// scenes are 2048². Checked before the full PNG decode so a tiny
// crafted header cannot force a huge allocation.
const maxSceneDim = 8192

// decodeSceneBody reads and validates the uploaded PNG.
func decodeSceneBody(r *http.Request, tileSize int) (*raster.RGB, int, error) {
	body := http.MaxBytesReader(nil, r.Body, maxBodyBytes)
	defer body.Close()
	raw, err := io.ReadAll(body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Errorf("serve: request body exceeds %d bytes", tooLarge.Limit)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("serve: read body: %w", err)
	}
	cfg, err := png.DecodeConfig(bytes.NewReader(raw))
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("serve: decode PNG: %w", err)
	}
	if cfg.Width < 1 || cfg.Height < 1 || cfg.Width > maxSceneDim || cfg.Height > maxSceneDim {
		return nil, http.StatusBadRequest,
			fmt.Errorf("serve: image %dx%d outside supported range (max %d per side)", cfg.Width, cfg.Height, maxSceneDim)
	}
	if cfg.Width%tileSize != 0 || cfg.Height%tileSize != 0 {
		return nil, http.StatusBadRequest,
			fmt.Errorf("serve: image %dx%d does not divide into %d×%d tiles", cfg.Width, cfg.Height, tileSize, tileSize)
	}
	decoded, err := png.Decode(bytes.NewReader(raw))
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("serve: decode PNG: %w", err)
	}
	return raster.FromImage(decoded), 0, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// The worker pool self-heals, so health degrades only if restarts
	// outpace respawns and the pool is actually empty right now — and
	// status-code probes (k8s, load balancers) must see that too.
	status := "ok"
	live := s.sched.LiveWorkers()
	w.Header().Set("Content-Type", "application/json")
	if live == 0 {
		status = "degraded"
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(map[string]any{
		"status":          status,
		"models":          s.reg.Names(),
		"default":         s.reg.Default(),
		"workers":         s.cfg.Workers,
		"live_workers":    live,
		"worker_restarts": s.stats.WorkerRestarts(),
	})
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.Stats())
}

// servingPredictor is the core.TilePredictor the HTTP path plugs into
// the shared inference workflow: a request's tiles enter the scheduler
// together, so idle workers find whole micro-batches queued. With
// tileCache set (pre-filtered requests on a caching server) cached tiles
// are answered from the LRU under their tile keys and fresh results
// written back; unfiltered requests are cached one level up, by
// classifyScene.
type servingPredictor struct {
	srv       *Server
	engine    unet.Engine
	modelName string
	deadline  time.Time // request deadline, propagated into every submit
	tileCache bool
	tiles     int
	cacheHits int
}

// PredictTiles implements core.TilePredictor.
func (p *servingPredictor) PredictTiles(tiles []*raster.RGB) ([]*raster.Labels, error) {
	p.tiles += len(tiles)
	out := make([]*raster.Labels, len(tiles))
	// miss lists the tiles to compute; at[j] is where miss[j]'s answer
	// goes, nil when miss is tiles itself.
	miss, at := tiles, []int(nil)
	var keys []CacheKey
	if p.tileCache {
		miss, keys = nil, make([]CacheKey, len(tiles))
		for i, t := range tiles {
			keys[i] = TileKey(p.modelName, t)
			if labels, ok := p.srv.cache.Get(keys[i], 1); ok {
				out[i] = labels
				p.cacheHits++
			} else {
				miss, at = append(miss, t), append(at, i)
			}
		}
	}
	// fanout tiles at a time, so that one large scene cannot fill the
	// bounded queue by itself: it must stay available to signal true
	// cross-request overload.
	for lo := 0; lo < len(miss); lo += p.srv.fanout {
		labels, err := p.srv.sched.SubmitTiles(p.engine, miss[lo:min(lo+p.srv.fanout, len(miss))], p.deadline)
		if err != nil {
			return nil, err
		}
		for j, l := range labels {
			i := lo + j
			if at != nil {
				i = at[i]
				p.srv.cache.Put(keys[i], l)
			}
			out[i] = l
		}
	}
	return out, nil
}

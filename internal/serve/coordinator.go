package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"seaice/internal/core"
	"seaice/internal/dataset"
	"seaice/internal/raster"
)

// CoordConfig sizes the cluster coordinator.
type CoordConfig struct {
	// TileSize is the cluster tile edge; every worker node must serve the
	// same size.
	TileSize int
	// Nodes lists worker addresses (host:port); node index is the hash
	// ring identity.
	Nodes []string
	// Build supplies the thin-cloud/shadow filter; the coordinator
	// filters once at scene scale, so workers classify pre-filtered
	// imagery.
	Build dataset.BuildConfig
	// HealthEvery is the health-probe period; 0 selects a 1s default.
	HealthEvery time.Duration
	// Timeout bounds each worker HTTP call; 0 selects 30s.
	Timeout time.Duration
	// ProbeTimeout bounds each health probe; 0 selects HealthEvery
	// capped at 2s. Probes deliberately do NOT share the request
	// timeout: a hung node must be detected within a probe period, not
	// after a full 30s request timeout.
	ProbeTimeout time.Duration
	// BreakerCooldown is how long an open circuit breaker waits before
	// admitting its single half-open trial; 0 selects 2×HealthEvery.
	BreakerCooldown time.Duration
	// HedgeAfter tunes tail-latency hedging of strip requests: 0 derives
	// the hedge delay from the observed p99 strip latency (hedging stays
	// off until enough samples accumulate), > 0 fixes the delay, < 0
	// disables hedging.
	HedgeAfter time.Duration
	// RetryBurst and RetryPerSec size the token-bucket retry budget
	// shared by reroutes and hedges; 0 selects 32 tokens refilled at
	// 8/s.
	RetryBurst  float64
	RetryPerSec float64
	// FallbackCache is the coordinator's stale-tile LRU capacity used
	// for degraded-mode serving; 0 selects 4096, < 0 disables.
	FallbackCache int
	// Logf receives routing events (breaker transitions, reroutes,
	// hedges); nil discards them.
	Logf func(format string, args ...any)
}

// CoordStats is the coordinator's /statz payload.
type CoordStats struct {
	Requests  int   `json:"requests"`
	Tiles     int   `json:"tiles"`
	Rerouted  int   `json:"rerouted_tiles"`
	NodesUp   int   `json:"nodes_up"`
	NodesDown []int `json:"nodes_down"`
	// Hedged counts strip requests that launched a hedge to the next
	// ring owner; HedgeWins counts hedges whose response arrived first.
	Hedged    int `json:"hedged_strips"`
	HedgeWins int `json:"hedge_wins"`
	// StaleTiles counts tiles answered from the coordinator's fallback
	// cache while their owners were down; PartialResponses counts
	// degraded 200s carrying the X-Seaice-Partial marker.
	StaleTiles       int `json:"stale_tiles"`
	PartialResponses int `json:"partial_responses"`
	// Breakers is the per-node circuit state ("closed" / "open" /
	// "half-open"), index-aligned with the node list; RetryTokens is the
	// remaining shared retry/hedge budget.
	Breakers    []string `json:"breakers"`
	RetryTokens float64  `json:"retry_tokens"`
}

// Coordinator fronts a cluster of worker serve nodes: it decodes and
// filters each scene once, shards its tiles across the nodes by
// consistent-hashing their content SHA-256 (so each distinct tile is
// classified — and cached — by exactly one node), ships each node's
// share as a single strip image, and stitches the returned label bytes
// back to scene size.
//
// Resilience layer: each node sits behind a circuit breaker fed by an
// EWMA failure detector (health probes and live request outcomes both
// count), so a sick node is routed around after its failures trip the
// breaker and re-admitted through a single half-open trial after a
// cooldown. Slow strips are hedged to the next consistent-hash owner
// after a p99-derived delay — first response wins, the loser's request
// is cancelled — with reroutes and hedges sharing one token-bucket retry
// budget so recovery can never amplify into a retry storm. Client
// deadlines (X-Seaice-Deadline-Ms) are honored: expired work is not
// dispatched, and each strip request forwards only the remaining budget.
// When tiles cannot be classified by any live node, the coordinator
// degrades instead of failing: stale results from its fallback tile
// cache, blank (water) tiles for the remainder, and an X-Seaice-Partial
// marker — a 503 only when it can produce nothing at all. Worker 429
// backpressure still propagates to the client verbatim.
type Coordinator struct {
	cfg         CoordConfig
	ring        *HashRing
	transport   *http.Transport // shared by client and probeClient
	client      *http.Client
	probeClient *http.Client
	breakers    []*Breaker
	retry       *TokenBucket
	fallback    *Cache
	mux         *http.ServeMux

	mu        sync.Mutex
	requests  int
	tiles     int
	rerouted  int
	hedged    int
	hedgeWins int
	stale     int
	partials  int
	stripLat  []time.Duration // sliding window of strip round-trip latencies

	stop chan struct{}
	wg   sync.WaitGroup
}

// stripLatWindow bounds the hedge-delay latency sample window, and
// hedgeMinSamples is how many samples must accumulate before auto
// hedging arms (a cold coordinator must not hedge off a garbage
// estimate).
const (
	stripLatWindow  = 256
	hedgeMinSamples = 16
	hedgeFloor      = 25 * time.Millisecond
)

// maxRejectBytes caps the body of a worker's 4xx reply that the
// coordinator passes on to its client: an error message, not data.
// maxProbeBytes caps how much of a /healthz reply a probe reads.
const (
	maxRejectBytes = 4 << 10
	maxProbeBytes  = 4 << 10
)

// NewCoordinator validates cfg and starts the health loop.
func NewCoordinator(cfg CoordConfig) (*Coordinator, error) {
	if cfg.TileSize < 1 {
		return nil, fmt.Errorf("serve: coordinator tile size must be ≥1, got %d", cfg.TileSize)
	}
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("serve: coordinator needs ≥1 worker node")
	}
	if cfg.HealthEvery <= 0 {
		cfg.HealthEvery = time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = cfg.HealthEvery
		if cfg.ProbeTimeout > 2*time.Second {
			cfg.ProbeTimeout = 2 * time.Second
		}
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * cfg.HealthEvery
	}
	if cfg.RetryBurst <= 0 {
		cfg.RetryBurst = 32
	}
	if cfg.RetryPerSec <= 0 {
		cfg.RetryPerSec = 8
	}
	if cfg.FallbackCache == 0 {
		cfg.FallbackCache = 4096
	}
	ring, err := NewHashRing(len(cfg.Nodes))
	if err != nil {
		return nil, err
	}
	// The coordinator owns its transport, so Close can drop the
	// keep-alive connections it holds to the nodes.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	c := &Coordinator{
		cfg:         cfg,
		ring:        ring,
		transport:   transport,
		client:      &http.Client{Timeout: cfg.Timeout, Transport: transport},
		probeClient: &http.Client{Timeout: cfg.ProbeTimeout, Transport: transport},
		breakers:    make([]*Breaker, len(cfg.Nodes)),
		retry:       NewTokenBucket(cfg.RetryBurst, cfg.RetryPerSec, nil),
		fallback:    NewCache(cfg.FallbackCache, cfg.TileSize),
		stop:        make(chan struct{}),
	}
	for i := range c.breakers {
		c.breakers[i] = NewBreaker(cfg.BreakerCooldown, nil)
	}
	c.mux = http.NewServeMux()
	c.mux.HandleFunc("/classify", c.handleClassify)
	c.mux.HandleFunc("/healthz", c.handleHealthz)
	c.mux.HandleFunc("/statz", c.handleStatz)
	c.wg.Add(1)
	go c.healthLoop()
	return c, nil
}

// Handler returns the coordinator's HTTP handler tree.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Close stops the health loop and closes the coordinator's idle
// connections to its nodes (and any that fall idle later).
func (c *Coordinator) Close() {
	close(c.stop)
	c.wg.Wait()
	c.transport.CloseIdleConnections()
}

// Stats snapshots the coordinator's counters.
func (c *Coordinator) Stats() CoordStats {
	c.mu.Lock()
	s := CoordStats{
		Requests: c.requests, Tiles: c.tiles, Rerouted: c.rerouted,
		Hedged: c.hedged, HedgeWins: c.hedgeWins,
		StaleTiles: c.stale, PartialResponses: c.partials,
		NodesDown: []int{},
	}
	c.mu.Unlock()
	s.RetryTokens = c.retry.Tokens()
	s.Breakers = make([]string, len(c.breakers))
	for node, b := range c.breakers {
		st := b.State()
		s.Breakers[node] = st.String()
		if st == BreakerClosed {
			s.NodesUp++
		} else {
			s.NodesDown = append(s.NodesDown, node)
		}
	}
	return s
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// available is the routing view: nodes whose breaker admits traffic
// right now (closed, or probe-able).
func (c *Coordinator) available(node int) bool {
	return c.breakers[node].Available()
}

// record feeds one observed outcome into a node's breaker, logging state
// transitions.
func (c *Coordinator) record(node int, ok bool) {
	before := c.breakers[node].State()
	c.breakers[node].Record(ok)
	after := c.breakers[node].State()
	if before != after {
		c.logf("serve: node %d (%s) breaker %s → %s", node, c.cfg.Nodes[node], before, after)
	}
}

func (c *Coordinator) allUnavailable() bool {
	for node := range c.breakers {
		if c.available(node) {
			return false
		}
	}
	return true
}

// healthLoop probes every node's /healthz each period and feeds the
// outcome into its breaker: probe failures accumulate in the EWMA
// detector exactly like request failures, and a probe success closes the
// breaker, bringing the node back into rotation on the next request.
func (c *Coordinator) healthLoop() {
	defer c.wg.Done()
	tick := time.NewTicker(c.cfg.HealthEvery)
	defer tick.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-tick.C:
			for node := range c.cfg.Nodes {
				c.record(node, c.probe(node))
			}
		}
	}
}

// probe reports whether a node answers its health check in full: a 200
// whose body (read up to maxProbeBytes) arrives within the probe
// timeout. Probes use their own short-timeout client: sharing the
// request client's 30s timeout would let one hung node stay "up" for
// 30s per probe.
func (c *Coordinator) probe(node int) bool {
	resp, err := c.probeClient.Get("http://" + c.cfg.Nodes[node] + "/healthz")
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, io.LimitReader(resp.Body, maxProbeBytes)); err != nil {
		return false
	}
	return resp.StatusCode == http.StatusOK
}

// workerReject is a worker response the coordinator propagates to the
// client unchanged (backpressure and input errors), as opposed to a node
// failure it reroutes around.
type workerReject struct {
	status     int
	retryAfter string
	body       []byte
	contentTyp string
}

// partialInfo summarizes a degraded-mode response for the
// X-Seaice-Partial header.
type partialInfo struct {
	Missing int `json:"missing"`
	Stale   int `json:"stale"`
	Total   int `json:"total"`
}

// handleClassify implements the sharded POST /classify: decode, filter
// once, split, route tile groups to their hash-ring owners, stitch.
func (c *Coordinator) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a PNG to /classify", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	model := r.URL.Query().Get("model")
	img, errStatus, err := decodeSceneBody(r, c.cfg.TileSize)
	if err != nil {
		http.Error(w, err.Error(), errStatus)
		return
	}
	deadline, err := parseDeadline(r, start)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	filtered := core.FilterScene(img, c.cfg.Build)
	tiles, grid, err := raster.Split(filtered, c.cfg.TileSize, c.cfg.TileSize)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	preds, reject, partial, err := c.classifyTiles(model, tiles, deadline)
	if reject != nil {
		if reject.retryAfter != "" {
			w.Header().Set("Retry-After", reject.retryAfter)
		}
		if reject.contentTyp != "" {
			w.Header().Set("Content-Type", reject.contentTyp)
		}
		w.WriteHeader(reject.status)
		w.Write(reject.body)
		return
	}
	if err != nil {
		status := http.StatusServiceUnavailable
		if errors.Is(err, ErrDeadlineExpired) {
			status = http.StatusGatewayTimeout
		}
		http.Error(w, err.Error(), status)
		return
	}
	labels, err := raster.StitchLabels(preds, grid)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	c.mu.Lock()
	c.requests++
	c.tiles += len(tiles)
	if partial != nil {
		c.partials++
		c.stale += partial.Stale
	}
	c.mu.Unlock()

	counts := labels.Counts()
	total := float64(len(labels.Pix))
	stats := classifyStats{
		Model:      model,
		Tiles:      len(tiles),
		Water:      float64(counts[raster.ClassWater]) / total,
		ThinIce:    float64(counts[raster.ClassThinIce]) / total,
		ThickIce:   float64(counts[raster.ClassThickIce]) / total,
		ElapsedMS:  float64(time.Since(start)) / float64(time.Millisecond),
		TileSize:   c.cfg.TileSize,
		FilterUsed: true,
	}
	hdr, _ := json.Marshal(stats)
	var buf bytes.Buffer
	if err := labels.Render().EncodePNG(&buf); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "image/png")
	w.Header().Set("X-Seaice-Stats", string(hdr))
	if partial != nil {
		ph, _ := json.Marshal(partial)
		w.Header().Set(PartialHeader, string(ph))
	}
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

// classifyTiles routes every tile to its consistent-hash owner and
// collects predictions index-aligned with tiles. Node failures feed the
// breakers and the failed tiles reroute clockwise to the next available
// node — each reroute round spending one retry-budget token — and tiles
// that exhaust nodes, budget, or deadline degrade: stale fallback-cache
// answers where available, blank tiles otherwise, summarized in the
// returned partialInfo (nil for a complete response). The error return
// is non-nil only when not a single tile could be answered.
func (c *Coordinator) classifyTiles(model string, tiles []raster.Tile, deadline time.Time) ([]*raster.Labels, *workerReject, *partialInfo, error) {
	preds := make([]*raster.Labels, len(tiles))
	pending := make([]int, len(tiles))
	for i := range pending {
		pending[i] = i
	}
	var lost []int // tiles past rerouting: resolved by the degraded path
	deadlineHit := false
	for round := 0; round <= len(c.cfg.Nodes); round++ {
		if len(pending) == 0 {
			break
		}
		if c.allUnavailable() {
			lost = append(lost, pending...)
			pending = nil
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			// The client's budget is gone: dispatching more strips would
			// compute work nobody is waiting for.
			deadlineHit = true
			lost = append(lost, pending...)
			pending = nil
			break
		}
		if round > 0 {
			// Rerouting is a retry: it spends budget. An empty bucket
			// degrades the leftover tiles instead of amplifying load.
			if !c.retry.Take() {
				c.logf("serve: retry budget exhausted, degrading %d tiles", len(pending))
				lost = append(lost, pending...)
				pending = nil
				break
			}
		}
		// Group the pending tiles by their current available owner.
		groups := map[int][]int{}
		for _, i := range pending {
			key := TileKey(model, tiles[i].Image)
			node := c.ring.OwnerAvoiding(key, func(n int) bool { return !c.available(n) })
			if round > 0 {
				c.mu.Lock()
				c.rerouted++
				c.mu.Unlock()
			}
			groups[node] = append(groups[node], i)
		}
		type result struct {
			node   int
			idxs   []int
			labels []*raster.Labels
			reject *workerReject
			err    error
		}
		results := make(chan result, len(groups))
		for node, idxs := range groups {
			go func(node int, idxs []int) {
				labels, reject, err := c.classifyOnNode(node, model, tiles, idxs, deadline)
				results <- result{node, idxs, labels, reject, err}
			}(node, idxs)
		}
		pending = pending[:0]
		var reject *workerReject
		for range groups {
			res := <-results
			switch {
			case res.reject != nil:
				reject = res.reject
			case res.err != nil:
				// Node failure (the strip layer already fed the breaker):
				// retry these tiles on the next available owner.
				c.logf("serve: node %d (%s) failed, rerouting %d tiles: %v",
					res.node, c.cfg.Nodes[res.node], len(res.idxs), res.err)
				pending = append(pending, res.idxs...)
			default:
				for j, i := range res.idxs {
					preds[i] = res.labels[j]
				}
			}
		}
		if reject != nil {
			return nil, reject, nil, nil
		}
	}
	lost = append(lost, pending...)
	if len(lost) == 0 {
		return preds, nil, nil, nil
	}

	// Degraded mode: answer what we can from the fallback cache (stale
	// is better than nothing), blank the rest, and mark the response
	// partial — a blanket 503 only when nothing at all was answerable.
	sort.Ints(lost)
	info := &partialInfo{Total: len(tiles)}
	for _, i := range lost {
		key := TileKey(model, tiles[i].Image)
		if labels, ok := c.fallback.Get(key, 1); ok {
			preds[i] = labels
			info.Stale++
		} else {
			preds[i] = raster.NewLabels(c.cfg.TileSize, c.cfg.TileSize)
			info.Missing++
		}
	}
	if info.Missing == len(tiles) {
		if deadlineHit {
			return nil, nil, nil, fmt.Errorf("serve: nothing servable before the deadline: %w", ErrDeadlineExpired)
		}
		return nil, nil, nil, fmt.Errorf("serve: no live worker nodes and no cached fallback")
	}
	c.logf("serve: degraded response: %d stale, %d missing of %d tiles", info.Stale, info.Missing, info.Total)
	return preds, nil, info, nil
}

// classifyOnNode ships one node's tile share as vertical strip images
// (tileSize wide, k·tileSize tall — raster.Split on a strip yields
// exactly those k tiles in order) and slices the returned raw label
// bytes back into per-tile label maps. Strips are capped so their height
// stays inside the worker's accepted scene dimensions.
func (c *Coordinator) classifyOnNode(node int, model string, tiles []raster.Tile, idxs []int, deadline time.Time) ([]*raster.Labels, *workerReject, error) {
	stripMax := maxSceneDim / c.cfg.TileSize
	out := make([]*raster.Labels, 0, len(idxs))
	for lo := 0; lo < len(idxs); lo += stripMax {
		hi := lo + stripMax
		if hi > len(idxs) {
			hi = len(idxs)
		}
		labels, reject, err := c.classifyStripHedged(node, model, tiles, idxs[lo:hi], deadline)
		if reject != nil || err != nil {
			return nil, reject, err
		}
		out = append(out, labels...)
	}
	return out, nil, nil
}

// errNodeBusy reports a node whose half-open breaker already has its
// trial request in flight — not a failure, but this strip must go
// elsewhere.
var errNodeBusy = errors.New("serve: node half-open, trial already in flight")

// stripResult is one strip attempt's outcome, tagged with the node that
// served it.
type stripResult struct {
	node   int
	labels []*raster.Labels
	reject *workerReject
	err    error
}

// classifyStripHedged runs one strip against its owner with tail-latency
// hedging: if the primary has not answered within the hedge delay (p99
// of recent strip latencies, or CoordConfig.HedgeAfter), the same strip
// is raced against the next available consistent-hash owner — spending
// one retry-budget token — and the first response wins while the loser's
// HTTP request is cancelled. Every attempt's outcome feeds its node's
// breaker; a cancelled loser feeds nothing (no verdict).
func (c *Coordinator) classifyStripHedged(node int, model string, tiles []raster.Tile, idxs []int, deadline time.Time) ([]*raster.Labels, *workerReject, error) {
	if !c.breakers[node].TryProbe() {
		return nil, nil, errNodeBusy
	}
	ctx := context.Background()
	if !deadline.IsZero() {
		var cancel context.CancelFunc
		ctx, cancel = context.WithDeadline(ctx, deadline)
		defer cancel()
	}
	primaryCtx, cancelPrimary := context.WithCancel(ctx)
	defer cancelPrimary()
	results := make(chan stripResult, 2)
	go func() {
		labels, reject, err := c.classifyStrip(primaryCtx, node, model, tiles, idxs, deadline)
		results <- stripResult{node, labels, reject, err}
	}()

	var hedgeC <-chan time.Time
	if d, ok := c.hedgeDelay(); ok {
		t := time.NewTimer(d)
		defer t.Stop()
		hedgeC = t.C
	}

	// settle records or releases the attempt's breaker claim: a
	// cancelled loser is no verdict on the node's health.
	settle := func(r stripResult) {
		if r.err != nil && errors.Is(r.err, context.Canceled) {
			c.breakers[r.node].Release()
			return
		}
		c.record(r.node, r.err == nil)
	}

	inflight := 1
	hedgedTo := -1
	// At most one hedge ever fires (hedgeC is nilled after), so its
	// context can be created up front and cancelled unconditionally.
	hedgeCtx, cancelHedge := context.WithCancel(ctx)
	defer cancelHedge()
	var firstErr error
	for {
		select {
		case r := <-results:
			inflight--
			settle(r)
			if r.err == nil {
				// First response wins (a worker reject is a response: the
				// node is alive and its verdict propagates).
				if hedgedTo >= 0 && r.node == hedgedTo {
					c.mu.Lock()
					c.hedgeWins++
					c.mu.Unlock()
				}
				if inflight > 0 {
					// Cancel the loser and settle it off-path so its
					// breaker slot cannot leak.
					cancelPrimary()
					cancelHedge()
					go func() { settle(<-results) }()
				}
				return r.labels, r.reject, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if inflight == 0 {
				return nil, nil, firstErr
			}
		case <-hedgeC:
			hedgeC = nil
			alt := c.hedgeTarget(node, model, tiles, idxs)
			if alt < 0 || !c.retry.Take() || !c.breakers[alt].TryProbe() {
				continue
			}
			c.mu.Lock()
			c.hedged++
			c.mu.Unlock()
			c.logf("serve: hedging strip of %d tiles from node %d to node %d", len(idxs), node, alt)
			hedgedTo = alt
			inflight++
			go func(alt int) {
				labels, reject, err := c.classifyStrip(hedgeCtx, alt, model, tiles, idxs, deadline)
				results <- stripResult{alt, labels, reject, err}
			}(alt)
		}
	}
}

// hedgeTarget picks the next available ring owner after the primary for
// this strip, or -1 when no distinct node qualifies.
func (c *Coordinator) hedgeTarget(primary int, model string, tiles []raster.Tile, idxs []int) int {
	if len(c.cfg.Nodes) < 2 || len(idxs) == 0 {
		return -1
	}
	key := TileKey(model, tiles[idxs[0]].Image)
	alt := c.ring.OwnerAvoiding(key, func(n int) bool {
		return n == primary || !c.available(n)
	})
	if alt == primary || !c.available(alt) {
		return -1
	}
	return alt
}

// hedgeDelay reports the current hedge trigger delay and whether hedging
// is armed.
func (c *Coordinator) hedgeDelay() (time.Duration, bool) {
	if c.cfg.HedgeAfter < 0 {
		return 0, false
	}
	if c.cfg.HedgeAfter > 0 {
		return c.cfg.HedgeAfter, true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.stripLat) < hedgeMinSamples {
		return 0, false
	}
	window := make([]time.Duration, len(c.stripLat))
	copy(window, c.stripLat)
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	d := 2 * window[percentileIndex(len(window), 0.99)]
	if d < hedgeFloor {
		d = hedgeFloor
	}
	return d, true
}

// observeStripLatency slides one successful strip round trip into the
// hedge-delay window.
func (c *Coordinator) observeStripLatency(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stripLat = append(c.stripLat, d)
	if len(c.stripLat) > stripLatWindow {
		c.stripLat = c.stripLat[len(c.stripLat)-stripLatWindow:]
	}
}

// classifyStrip runs one strip-sized HTTP round trip against a node,
// forwarding the request's remaining deadline budget, and writes each
// returned tile into the fallback cache for degraded-mode serving.
func (c *Coordinator) classifyStrip(ctx context.Context, node int, model string, tiles []raster.Tile, idxs []int, deadline time.Time) ([]*raster.Labels, *workerReject, error) {
	ts := c.cfg.TileSize
	strip := raster.NewRGB(ts, ts*len(idxs))
	tilePix := 3 * ts * ts
	for j, i := range idxs {
		copy(strip.Pix[j*tilePix:(j+1)*tilePix], tiles[i].Image.Pix)
	}
	var body bytes.Buffer
	if err := strip.EncodePNG(&body); err != nil {
		return nil, nil, err
	}
	url := "http://" + c.cfg.Nodes[node] + "/classify?filtered=1&format=raw"
	if model != "" {
		url += "&model=" + model
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, &body)
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "image/png")
	setDeadlineHeader(req.Header, deadline, time.Now())
	start := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode >= 500:
		// Treat server-side failure like a dead node: reroute.
		return nil, nil, fmt.Errorf("serve: node %d returned %s", node, resp.Status)
	default:
		// 4xx (backpressure, bad model, …) propagates to the client.
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxRejectBytes))
		if err != nil {
			return nil, nil, err
		}
		return nil, &workerReject{
			status:     resp.StatusCode,
			retryAfter: resp.Header.Get("Retry-After"),
			body:       body,
			contentTyp: resp.Header.Get("Content-Type"),
		}, nil
	}
	// A reply holds exactly one byte per label pixel. Reading one byte
	// past that bounds what a faulty node can make the coordinator
	// buffer, and any other length is a node failure that reroutes.
	want := ts * ts * len(idxs)
	payload, err := io.ReadAll(io.LimitReader(resp.Body, int64(want)+1))
	if err != nil {
		return nil, nil, err
	}
	if len(payload) > want {
		return nil, nil, fmt.Errorf("serve: node %d returned more than %d label bytes", node, want)
	}
	if len(payload) < want {
		return nil, nil, fmt.Errorf("serve: node %d returned %d label bytes, want %d", node, len(payload), want)
	}
	c.observeStripLatency(time.Since(start))
	labels := make([]*raster.Labels, len(idxs))
	for j := range idxs {
		l := raster.NewLabels(ts, ts)
		for k, b := range payload[j*ts*ts : (j+1)*ts*ts] {
			if b >= raster.NumClasses {
				return nil, nil, fmt.Errorf("serve: node %d returned invalid class %d", node, b)
			}
			l.Pix[k] = raster.Class(b)
		}
		labels[j] = l
		c.fallback.Put(TileKey(model, tiles[idxs[j]].Image), l)
	}
	return labels, nil, nil
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s := c.Stats()
	status := "ok"
	w.Header().Set("Content-Type", "application/json")
	if s.NodesUp == 0 {
		status = "degraded"
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(map[string]any{
		"status":     status,
		"role":       "coordinator",
		"nodes":      c.cfg.Nodes,
		"nodes_up":   s.NodesUp,
		"nodes_down": s.NodesDown,
		"breakers":   s.Breakers,
	})
}

func (c *Coordinator) handleStatz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(c.Stats())
}

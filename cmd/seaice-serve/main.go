// Command seaice-serve exposes trained U-Net checkpoints as an online
// sea-ice classification service: POST a PNG to /classify and get the
// stitched label map back, with micro-batched inference, a content-hash
// result cache, and backpressure under overload (HTTP 429).
//
// Serve one or more checkpoints (the first is the default model):
//
//	seaice-serve -ckpt unet.ckpt
//	seaice-serve -ckpt man=unet-man.ckpt,auto=unet-auto.ckpt -addr :8080
//
// Inference runs in pure float32 by default — the bandwidth-saving hot
// path; pass -precision f64 for the float64 reference numerics.
// Checkpoints from either precision load into either (the versioned
// header converts on load).
//
// The inference worker pool is self-healing: a worker panic restarts the
// worker and requeues its batch without dropping queued requests (429s
// only past the existing queue bound). -chaos injects seeded worker
// faults to demonstrate it; /healthz reports live_workers and
// worker_restarts.
//
// Load-generator mode fires concurrent tile requests at a running
// server and reports throughput and latency percentiles; with no
// -target it spins up an in-process server (using -ckpt if given, else
// a freshly initialized demo model) first:
//
//	seaice-serve -loadgen -n 512 -c 32
//	seaice-serve -loadgen -target http://localhost:8080 -n 1000 -c 64
//
// Coordinator mode fronts a cluster of worker servers: each scene's
// tiles are sharded across the nodes by consistent-hashing their
// content, so every distinct tile is classified — and cached — by
// exactly one node. Sick nodes sit behind per-node circuit breakers
// (EWMA failure detector, half-open trial re-admission), slow strips are
// hedged to the next ring owner after a p99-derived delay, reroutes and
// hedges share a token-bucket retry budget, and when tiles cannot be
// classified anywhere the coordinator serves a degraded partial response
// (stale cache + X-Seaice-Partial marker) instead of a blanket 503:
//
//	seaice-serve -nodes 127.0.0.1:8081,127.0.0.1:8082 -addr :8080
//
// Clients may bound each request with an X-Seaice-Deadline-Ms header:
// requests the service-time model predicts cannot finish in budget are
// rejected up front (429 with a model-derived Retry-After), queued
// requests whose budget expires are dropped before compute (504), and
// the coordinator forwards only the remaining budget to workers. The
// load generator sets the header via -deadline.
//
// Both serving modes shut down gracefully on SIGINT/SIGTERM: stop
// accepting, drain in-flight work, then log the final stats snapshot.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"seaice/internal/chaos"
	"seaice/internal/raster"
	"seaice/internal/scene"
	"seaice/internal/serve"
	"seaice/internal/unet"
)

// options carries the parsed command line.
type options struct {
	cfg       serve.Config
	addr      string
	ckpt      string
	precision string
	chaosSpec string
	nodes     string

	hedgeAfter   time.Duration
	probeTimeout time.Duration
	retryBurst   float64

	loadgen  bool
	target   string
	n, c     int
	seed     uint64
	deadline time.Duration
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("seaice-serve: ")

	o, err := parseFlags(os.Args[1:], flag.ExitOnError)
	if err != nil {
		log.Fatal(err)
	}
	if o.cfg.Chaos != nil {
		log.Printf("chaos: %d seeded worker faults armed (%s); watch worker_restarts on /healthz",
			o.cfg.Chaos.Remaining(), o.chaosSpec)
	}
	if o.nodes != "" {
		runCoordinator(o)
		return
	}
	runMain(o)
}

// parseFlags parses the command line and checks everything about it that
// can be checked before any model is loaded; main exits on its error.
func parseFlags(args []string, onError flag.ErrorHandling) (options, error) {
	o := options{cfg: serve.DefaultConfig()}
	fs := flag.NewFlagSet("seaice-serve", onError)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.ckpt, "ckpt", "", "checkpoint(s): path, or comma-separated name=path pairs")
	fs.IntVar(&o.cfg.TileSize, "tile", 32, "served tile size")
	fs.IntVar(&o.cfg.MaxBatch, "batch", 16, "max tiles per forward-pass micro-batch")
	workers := fs.Int("workers", 0, "inference workers (0 = GOMAXPROCS)")
	fs.IntVar(&o.cfg.QueueSize, "queue", 256, "bounded request queue size")
	fs.IntVar(&o.cfg.CacheSize, "cache", 4096, "result cache capacity in tiles (an entry is one tile or one whole scene; 0 disables)")

	fs.StringVar(&o.precision, "precision", "f32", "inference precision: f32 | f64 | int8")
	fs.StringVar(&o.chaosSpec, "chaos", "", `inject seeded worker faults, e.g. "7:serve@5,slownode@40:30ms" (see internal/chaos)`)
	fs.StringVar(&o.nodes, "nodes", "", "comma-separated worker host:port list — run as cluster coordinator instead of serving models")

	fs.DurationVar(&o.hedgeAfter, "hedge-after", 0, "coordinator: fixed strip hedge delay (0 = auto from p99, negative disables)")
	fs.DurationVar(&o.probeTimeout, "probe-timeout", 0, "coordinator: health probe timeout (0 = health period capped at 2s)")
	fs.Float64Var(&o.retryBurst, "retry-burst", 0, "coordinator: retry/hedge token bucket size (0 = default 32)")

	fs.BoolVar(&o.loadgen, "loadgen", false, "run the load generator instead of serving")
	fs.StringVar(&o.target, "target", "", "loadgen: base URL of a running server (empty = in-process)")
	fs.IntVar(&o.n, "n", 256, "loadgen: total requests")
	fs.IntVar(&o.c, "c", 16, "loadgen: concurrent clients")
	fs.Uint64Var(&o.seed, "seed", 1, "loadgen: synthetic tile seed")
	fs.DurationVar(&o.deadline, "deadline", 0, "loadgen: per-request deadline sent as X-Seaice-Deadline-Ms (0 = none)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if *workers != 0 {
		o.cfg.Workers = *workers
	}
	if err := o.cfg.Validate(); err != nil {
		return o, err
	}
	var err error
	if o.precision, err = serve.ParsePrecision(o.precision); err != nil {
		return o, err
	}
	if o.chaosSpec != "" {
		sched, err := chaos.Parse(o.chaosSpec)
		if err != nil {
			return o, err
		}
		o.cfg.Chaos = chaos.New(sched, 0)
	}
	if o.nodes != "" && o.loadgen {
		return o, errors.New("-nodes and -loadgen are mutually exclusive")
	}
	return o, nil
}

// runCoordinator fronts the listed worker nodes with the consistent-hash
// sharding coordinator until a shutdown signal arrives.
func runCoordinator(o options) {
	var nodeList []string
	for _, n := range strings.Split(o.nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodeList = append(nodeList, n)
		}
	}
	coord, err := serve.NewCoordinator(serve.CoordConfig{
		TileSize:     o.cfg.TileSize,
		Nodes:        nodeList,
		Build:        o.cfg.Build,
		HedgeAfter:   o.hedgeAfter,
		ProbeTimeout: o.probeTimeout,
		RetryBurst:   o.retryBurst,
		Logf:         log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("coordinating %d worker nodes on %s (tile %d): %v", len(nodeList), o.addr, o.cfg.TileSize, nodeList)
	serveUntilSignal(o.addr, coord.Handler(), func() {
		coord.Close()
		s := coord.Stats()
		log.Printf("final stats: %d requests, %d tiles, %d rerouted, %d hedged (%d wins), %d stale, %d partial, %d/%d nodes up",
			s.Requests, s.Tiles, s.Rerouted, s.Hedged, s.HedgeWins,
			s.StaleTiles, s.PartialResponses, s.NodesUp, len(nodeList))
	})
}

// serveUntilSignal runs the HTTP server until SIGINT/SIGTERM, then shuts
// down gracefully: the listener stops accepting, in-flight requests get
// a drain window, and drain runs last for subsystem teardown and the
// final stats flush.
func serveUntilSignal(addr string, handler http.Handler, drain func()) {
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer cancel()
	httpSrv := &http.Server{Addr: addr, Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("shutdown signal received — draining in-flight requests")
	shutdownCtx, done := context.WithTimeout(context.Background(), 30*time.Second)
	defer done()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		log.Printf("shutdown: %v", err)
	}
	drain()
	log.Printf("shutdown complete")
}

// runMain dispatches serving or load generation in the chosen precision.
func runMain(o options) {
	if o.loadgen {
		if err := runLoadgen(o); err != nil {
			log.Fatal(err)
		}
		return
	}

	if o.ckpt == "" {
		log.Fatal("serving requires -ckpt (train one with seaice-train)")
	}
	cfg := o.cfg
	reg := serve.NewRegistry()
	if err := loadCheckpoints(reg, o.ckpt, o.precision); err != nil {
		log.Fatal(err)
	}
	srv, err := serve.NewServer(cfg, reg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving models %v on %s (tile %d, batch ≤%d, %d workers, queue %d, cache %d)",
		reg.Names(), o.addr, cfg.TileSize, cfg.MaxBatch, cfg.Workers, cfg.QueueSize, cfg.CacheSize)
	serveUntilSignal(o.addr, srv.Handler(), func() {
		srv.Close() // stops the inference pool after draining its queue
		s := srv.Stats()
		log.Printf("final stats: %d requests, %d tiles, %.1f%% cache hit rate, %d worker restarts",
			s.Requests, s.Tiles, 100*s.CacheHitRate, s.WorkerRestarts)
	})
}

// loadCheckpoints parses "path" or "name=path,name=path" into the
// registry at the requested precision; an unnamed single checkpoint
// registers as "default".
func loadCheckpoints(reg *serve.Registry, spec, precision string) error {
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, path := "default", part
		if i := strings.IndexByte(part, '='); i >= 0 {
			name, path = part[:i], part[i+1:]
		}
		if err := reg.Load(name, path, precision); err != nil {
			return err
		}
		log.Printf("loaded %s model %q from %s", precision, name, path)
	}
	return nil
}

// demoEngine builds a freshly initialized (untrained) engine for load
// generation without a checkpoint. The int8 demo calibrates the random
// master on synthetic scene tiles before quantizing — the same
// calibrate→quantize path seaice-train -quantize runs on real data.
func demoEngine(precision string, seed uint64, tileSize int) (unet.Engine, error) {
	switch precision {
	case "f32":
		return unet.New[float32](unet.FastConfig(seed))
	case "f64":
		return unet.New[float64](unet.FastConfig(seed))
	}
	m, err := unet.New[float64](unet.FastConfig(seed))
	if err != nil {
		return nil, err
	}
	sceneCfg := scene.DefaultConfig(seed)
	sceneCfg.W, sceneCfg.H = 4*tileSize, 4*tileSize
	sc, err := scene.Generate(sceneCfg)
	if err != nil {
		return nil, err
	}
	tiles, _, err := raster.Split(sc.Image, tileSize, tileSize)
	if err != nil {
		return nil, err
	}
	imgs := make([]*raster.RGB, len(tiles))
	for i, t := range tiles {
		imgs[i] = t.Image
	}
	cal, err := unet.Calibrate(m, imgs, 8)
	if err != nil {
		return nil, err
	}
	return unet.Quantize(m, cal)
}

// runLoadgen drives the /classify endpoint with concurrent synthetic
// tiles and reports achieved throughput and latency percentiles.
func runLoadgen(o options) error {
	cfg, target, n, c, seed, deadline := o.cfg, o.target, o.n, o.c, o.seed, o.deadline
	if target == "" {
		reg := serve.NewRegistry()
		if o.ckpt != "" {
			if err := loadCheckpoints(reg, o.ckpt, o.precision); err != nil {
				return err
			}
		} else {
			log.Printf("no -ckpt: load-testing a freshly initialized (untrained) %s demo model", o.precision)
			e, err := demoEngine(o.precision, seed, cfg.TileSize)
			if err != nil {
				return err
			}
			if err := reg.Add("demo", e); err != nil {
				return err
			}
		}
		srv, err := serve.NewServer(cfg, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		target = ts.URL
		log.Printf("in-process server on %s", target)
	}

	// Pre-render a pool of distinct tile PNGs from a synthetic scene.
	sceneCfg := scene.DefaultConfig(seed)
	sceneCfg.W, sceneCfg.H = 8*cfg.TileSize, 8*cfg.TileSize
	sc, err := scene.Generate(sceneCfg)
	if err != nil {
		return err
	}
	tiles, _, err := raster.Split(sc.Image, cfg.TileSize, cfg.TileSize)
	if err != nil {
		return err
	}
	bodies := make([][]byte, len(tiles))
	for i, t := range tiles {
		var buf bytes.Buffer
		if err := t.Image.EncodePNG(&buf); err != nil {
			return err
		}
		bodies[i] = buf.Bytes()
	}

	if deadline > 0 {
		log.Printf("firing %d requests from %d clients at %s/classify (deadline %v)", n, c, target, deadline)
	} else {
		log.Printf("firing %d requests from %d clients at %s/classify", n, c, target)
	}
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		latencies []time.Duration
		rejected  int
		expired   int
		failed    int
	)
	start := time.Now()
	perClient := (n + c - 1) / c
	for cl := 0; cl < c; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed) + int64(cl)))
			client := &http.Client{Timeout: 60 * time.Second}
			for i := 0; i < perClient && cl*perClient+i < n; i++ {
				body := bodies[rng.Intn(len(bodies))]
				req, err := http.NewRequest(http.MethodPost, target+"/classify", bytes.NewReader(body))
				if err != nil {
					mu.Lock()
					failed++
					mu.Unlock()
					continue
				}
				req.Header.Set("Content-Type", "image/png")
				if deadline > 0 {
					req.Header.Set(serve.DeadlineHeader, fmt.Sprintf("%d", deadline.Milliseconds()))
				}
				t0 := time.Now()
				resp, err := client.Do(req)
				lat := time.Since(t0)
				mu.Lock()
				switch {
				case err != nil:
					failed++
				case resp.StatusCode == http.StatusTooManyRequests:
					rejected++
				case resp.StatusCode == http.StatusGatewayTimeout:
					expired++
				case resp.StatusCode != http.StatusOK:
					failed++
				default:
					latencies = append(latencies, lat)
				}
				mu.Unlock()
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}(cl)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) time.Duration {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)))
		if i >= len(latencies) {
			i = len(latencies) - 1
		}
		return latencies[i]
	}
	fmt.Printf("requests:   %d ok, %d rejected (429), %d expired (504), %d failed\n", len(latencies), rejected, expired, failed)
	fmt.Printf("elapsed:    %.2fs (%.1f req/s achieved)\n", elapsed.Seconds(), float64(len(latencies))/elapsed.Seconds())
	fmt.Printf("latency:    p50 %v  p90 %v  p99 %v\n", pct(0.50), pct(0.90), pct(0.99))

	// Pull the server-side view when available.
	if resp, err := http.Get(target + "/statz"); err == nil {
		defer resp.Body.Close()
		var snap serve.Snapshot
		if json.NewDecoder(resp.Body).Decode(&snap) == nil {
			fmt.Printf("server:     %.1f tiles/s, avg batch %.2f, cache hit rate %.1f%%, queue depth %d\n",
				snap.TilesPerS, snap.AvgBatchSize, 100*snap.CacheHitRate, snap.QueueDepth)
		}
	}
	return nil
}

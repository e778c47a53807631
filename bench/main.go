// Command bench is the repository benchmark: four workloads that drive the
// shipped public APIs of every layer with real compute, seven end-to-end
// metrics per workload, and per-layer metrics from a separate traced run.
// README.md in this directory defines every name; BENCHMARK.json at the
// repository root is the machine-readable contract.
//
//	go run ./bench --workload campaign-label --seed 1 --seconds 24 --trace 0
//	go run ./bench --workload serve-tiles   --seed 1 --seconds 24 --trace 1
//	go run ./bench --selfcheck --runs 10
//	go run ./bench --probecheck
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the full
// report (host fingerprint, per-phase job counts, sample counts).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"seaice/internal/pool"
)

// processStart is where setup_s starts counting.
var processStart = time.Now()

// outDir receives the traced runs' trace files; bench/.gitignore covers it.
const outDir = "bench/out"

type params struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	nproc    int
}

// workload is one of the four benchmark workloads.
type workload interface {
	// setup builds the fixtures (scenes, models, servers) and runs the
	// untimed warm-up jobs.
	setup(tr *tracer) error
	// run executes one measured window sized to the given seconds on the
	// reference host, verifies its outputs, and reports what it saw.
	run(tr *tracer, seconds float64) (*outcome, error)
	// close stops every goroutine, listener and server the workload started.
	close()
}

var workloads = map[string]func(params) workload{
	"campaign-label": func(p params) workload { return newLabelWL(p) },
	"campaign-train": func(p params) workload { return newTrainWL(p) },
	"serve-scenes":   func(p params) workload { return newScenesWL(p) },
	"serve-tiles":    func(p params) workload { return newTilesWL(p) },
}

// outcome is what one window produced.
type outcome struct {
	start, end time.Time // the measured window, verification excluded
	windowS    float64   // end − start, seconds
	tiles      int       // tiles labeled / trained / classified and verified
	jobMs      []float64 // one entry per successful job
	quality    float64   // pixel accuracy against ground truth
	attempted  int       // jobs attempted
	failed     int       // jobs that failed or did not verify
	vmHWMMB    float64   // the kernel's high-water mark at the window's end, a diagnostic
	peakRSSMB  float64   // p99 of the resident set over the window
	// offeredRate says the window's throughput is the rate the open-loop
	// generator offered, not a speed: it is reported as measured, while
	// every time is host-normalised.
	offeredRate bool
	failures    []string // first few failure descriptions
	layers      map[string]float64
}

// openWindow starts the measured window.
func openWindow() *outcome {
	return &outcome{layers: map[string]float64{}, start: time.Now()}
}

// closeWindow ends it; workloads call it before their verification work
// allocates.
func (o *outcome) closeWindow() {
	o.end = time.Now()
	o.windowS = o.end.Sub(o.start).Seconds()
	o.vmHWMMB = vmHWM()
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 5 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// verifyBody counts one served response: the job fails when the request
// failed or the body is not byte-equal to the in-process reference.
func (o *outcome) verifyBody(what string, err error, got, want []byte) bool {
	o.attempted++
	switch {
	case err != nil:
		o.fail("%s: %v", what, err)
	case !bytes.Equal(got, want):
		o.fail("%s: response differs from in-process inference", what)
	default:
		return true
	}
	return false
}

// verifyTileCount counts one labeling job: the job fails when the pipeline
// failed or did not return exactly want tiles.
func (o *outcome) verifyTileCount(job int, err error, got, want int) bool {
	o.attempted++
	if err != nil || got != want {
		o.fail("job %d: %d tiles, want %d, err %v", job, got, want, err)
		return false
	}
	return true
}

// tilesPerBusyS is throughput over the jobs' own time, the figure the
// traced and untraced phases of a traced run are compared on (the traced
// phase does probe work between jobs that the window would include).
func (o *outcome) tilesPerBusyS() float64 {
	var busy float64
	for _, m := range o.jobMs {
		busy += m / 1e3
	}
	if busy == 0 {
		return 0
	}
	return float64(o.tiles) / busy
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type phaseCount struct {
	Attempted int `json:"attempted"`
	Succeeded int `json:"succeeded"`
	Failed    int `json:"failed"`
}

// report is the full description of a run, printed on the line before the
// result line.
type report struct {
	Workload      string                `json:"workload"`
	Seed          uint64                `json:"seed"`
	Seconds       int                   `json:"seconds"`
	Traced        bool                  `json:"traced"`
	Host          hostInfo              `json:"host"`
	WindowSeconds float64               `json:"window_seconds"`
	TotalSeconds  float64               `json:"total_seconds"`
	Phases        map[string]phaseCount `json:"phases"`
	SampleCounts  map[string]int        `json:"sample_counts"`
	Failures      []string              `json:"failures,omitempty"`
	TraceFile     string                `json:"trace_file,omitempty"`
	SelfTimeMs    map[string]float64    `json:"self_time_ms,omitempty"`
	HostProbeMs   float64               `json:"host_probe_ms,omitempty"`
	HostFactor    float64               `json:"host_factor,omitempty"`
	Raw           map[string]float64    `json:"raw,omitempty"`
	Moves         map[string][]string   `json:"moves,omitempty"`
}

func main() {
	var p params
	var traceFlag, runs int
	var selfcheck, probecheck bool
	flag.StringVar(&p.workload, "workload", "", "campaign-label | campaign-train | serve-scenes | serve-tiles")
	flag.Uint64Var(&p.seed, "seed", 1, "every input derives from this seed")
	flag.IntVar(&p.seconds, "seconds", 24, "measured window, in seconds on the 2-vCPU reference host")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload in two sets and hold them to BENCHMARK.json's bounds, as the acceptance check does")
	flag.IntVar(&runs, "runs", 10, "runs per set and workload for -selfcheck")
	flag.BoolVar(&probecheck, "probecheck", false, "measure whether each workload moves the host probe (PROBECHECK.txt)")
	flag.Parse()

	if selfcheck {
		os.Exit(runSelfcheck(runs))
	}
	if probecheck {
		os.Exit(runProbecheck())
	}
	mk, ok := workloads[p.workload]
	if !ok || p.seconds < 1 || traceFlag < 0 || traceFlag > 1 {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q, or -seconds/-trace out of range\n", p.workload)
		flag.Usage()
		os.Exit(2)
	}
	p.trace = traceFlag == 1
	p.nproc = runtime.NumCPU()
	pool.SetSharedWorkers(p.nproc)

	var res *resultLine
	var rep *report
	var err error
	if p.trace {
		res, rep, err = tracedRun(p, mk)
	} else {
		res, rep, err = endToEndRun(p, mk)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", p.workload, err)
		os.Exit(1)
	}
	rep.TotalSeconds = time.Since(processStart).Seconds()
	printJSON(rep)
	printJSON(res)
	if !res.Correct {
		os.Exit(1)
	}
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: encode output: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}

// endToEndRun measures the seven end-to-end metrics with tracing off: one
// set-up, one collection, one window.
func endToEndRun(p params, mk func(params) workload) (*resultLine, *report, error) {
	probe := startHostProbe()
	defer probe.finish()
	w := mk(p)
	defer w.close()
	if err := w.setup(nil); err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	runtime.GC()
	setupEnd := time.Now()
	out, err := w.run(nil, float64(p.seconds))
	if err != nil {
		return nil, nil, err
	}
	setupProbeMs, _ := probe.meanBetween(processStart, setupEnd)
	probeMs, probeN := probe.meanBetween(out.start, out.end)
	var rssN int
	if out.peakRSSMB, rssN, err = probe.peakRSSBetween(out.start, out.end); err != nil {
		return nil, nil, fmt.Errorf("peak_rss_mb: %w", err)
	}
	setupS := setupEnd.Sub(processStart).Seconds()
	metrics, raw, err := endToEndMetrics(out, setupS, hostFactor(setupProbeMs), hostFactor(probeMs))
	if err != nil {
		return nil, nil, err
	}
	rep := newReport(p, out)
	raw["vm_hwm_mb"] = out.vmHWMMB
	rep.SampleCounts = map[string]int{"job_p50_ms": len(out.jobMs), "job_p90_ms": len(out.jobMs), "peak_rss_mb": rssN, "host_probe": probeN}
	rep.HostProbeMs = probeMs
	rep.HostFactor = hostFactor(probeMs)
	rep.Raw = raw
	return &resultLine{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}, rep, nil
}

// Host normalisation is one rule for every workload and every time metric:
// a time measured while the host probe averaged probeMs is divided by
// (probeMs ÷ nominalProbeMs)^hostExponent.
//
// nominalProbeMs only fixes the unit — any constant gives the same ratio
// between two commits — and is the probe's kernel time on the 2-vCPU
// reference host with quiet neighbours, so normalised values read like that
// host's. hostExponent is below 1 because no job is purely issue-bound (the
// rest is memory stalls, syscalls, wake-ups, which a busy neighbour does not
// slow): 0.75 is the pooled log-log slope of the as-measured time metrics
// against the probe over 80 runs of all four workloads (HOSTFIT.txt), rounded
// to the nearest 0.05, and SELFCHECK.txt shows how it holds on runs made
// after it was frozen. It is not fitted per workload: a later change moves
// a workload's own slope and cannot edit this file.
const (
	nominalProbeMs = 0.75
	hostExponent   = 0.75
)

// hostFactor is how much slower than on the nominal host the code under
// test ran while the probe averaged probeMs: >1 is a contended host. No
// samples (probeMs 0) is no correction.
func hostFactor(probeMs float64) float64 {
	if probeMs <= 0 {
		return 1
	}
	return math.Pow(probeMs/nominalProbeMs, hostExponent)
}

// endToEndMetrics derives the end-to-end metrics from a window. The four
// time metrics are host-normalised, each by the factor of the interval it
// was measured over; raw holds them as measured.
func endToEndMetrics(out *outcome, setupS, setupFactor, factor float64) (metrics map[string]metricValue, raw map[string]float64, err error) {
	if len(out.jobMs) == 0 {
		return nil, nil, fmt.Errorf("no job succeeded (%d attempted): %v", out.attempted, out.failures)
	}
	p90, err := tailPercentile(out.jobMs, 0.9)
	if err != nil {
		return nil, nil, fmt.Errorf("job_p90_ms: %w", err)
	}
	raw = map[string]float64{
		"setup_s":     setupS,
		"tiles_per_s": float64(out.tiles) / out.windowS,
		"job_p50_ms":  median(out.jobMs),
		"job_p90_ms":  p90,
	}
	throughputFactor := factor
	if out.offeredRate {
		throughputFactor = 1
	}
	metrics = map[string]metricValue{
		"setup_s":     {setupS / setupFactor, "s"},
		"tiles_per_s": {raw["tiles_per_s"] * throughputFactor, "tiles/s"},
		"job_p50_ms":  {raw["job_p50_ms"] / factor, "ms"},
		"job_p90_ms":  {raw["job_p90_ms"] / factor, "ms"},
		"quality":     {out.quality, "fraction"},
		"ok_share":    {float64(out.attempted-out.failed) / float64(out.attempted), "fraction"},
		"peak_rss_mb": {out.peakRSSMB, "MB"},
	}
	return metrics, raw, nil
}

func newReport(p params, out *outcome) *report {
	return &report{
		Workload: p.workload, Seed: p.seed, Seconds: p.seconds, Traced: p.trace,
		Host:          fingerprint(),
		WindowSeconds: out.windowS,
		Phases: map[string]phaseCount{
			"window": {Attempted: out.attempted, Succeeded: out.attempted - out.failed, Failed: out.failed},
		},
		Failures: out.failures,
	}
}

// traceFile is where a traced run of the workload writes its spans.
func traceFile(workload string) string {
	return filepath.Join(outDir, "trace-"+workload+".json")
}

package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"seaice/internal/unet"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	got, err := tailPercentile(xs, 0.9)
	if err != nil || got != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with exactly ten samples beyond", got, err)
	}
	if _, err := tailPercentile(xs[:99], 0.9); err == nil {
		t.Error("p90 of 99 samples has nine beyond it and was reported")
	}
	if _, err := tailPercentile(xs, 0.99); err == nil {
		t.Error("p99 of 100 samples has one beyond it and was reported")
	}
	if _, err := tailPercentile(xs, 0.5); err == nil {
		t.Error("a median was accepted as a tail percentile")
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([2,4,4,5,7,9,10,12,15,20], n=4) == [4.0, 8.0, 12.75]
	q1, q3 := quartiles([]float64{20, 2, 4, 15, 4, 5, 12, 7, 10, 9})
	if q1 != 4 || q3 != 12.75 {
		t.Errorf("quartiles = %v, %v; want 4, 12.75", q1, q3)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// The open-loop schedule keeps every slot's due time fixed, so a stalled
// sender sees its lateness and the latency of the requests it delayed.
func TestScheduleTimesFromDueTimeAndReportsLag(t *testing.T) {
	start := time.Unix(1000, 0)
	clock := start
	s := newSchedule(start, 100, 5) // one slot every 10 ms
	s.now = func() time.Time { return clock }
	s.sleep = func(d time.Duration) { clock = clock.Add(d) }

	var lags, latencies []time.Duration
	for {
		i, due, ok := s.next()
		if !ok {
			break
		}
		if want := start.Add(time.Duration(i) * 10 * time.Millisecond); !due.Equal(want) {
			t.Fatalf("slot %d due %v, want %v", i, due, want)
		}
		lags = append(lags, clock.Sub(due))
		service := 2 * time.Millisecond
		if i == 1 {
			service = 35 * time.Millisecond // the sender stalls on request 1
		}
		clock = clock.Add(service)
		latencies = append(latencies, clock.Sub(due))
	}
	wantLags := []time.Duration{0, 0, 25 * time.Millisecond, 17 * time.Millisecond, 9 * time.Millisecond}
	if !reflect.DeepEqual(lags, wantLags) {
		t.Errorf("send lag %v, want %v", lags, wantLags)
	}
	// Requests 2–4 took 2 ms each to serve but pay for the stall.
	wantLat := []time.Duration{2 * time.Millisecond, 35 * time.Millisecond, 27 * time.Millisecond, 19 * time.Millisecond, 11 * time.Millisecond}
	if !reflect.DeepEqual(latencies, wantLat) {
		t.Errorf("latency from due time %v, want %v", latencies, wantLat)
	}
}

func TestInputsArePureFunctionsOfSeed(t *testing.T) {
	drawsA := tilePlan(7, 500)
	if !reflect.DeepEqual(drawsA, tilePlan(7, 500)) {
		t.Error("tilePlan differs between two calls with the same seed")
	}
	if !reflect.DeepEqual(tilePlan(7, 800)[:500], drawsA) {
		t.Error("a longer schedule does not extend the shorter one")
	}
	if other := tilePlan(8, 500); reflect.DeepEqual(other, drawsA) {
		t.Error("seeds 7 and 8 draw the same tiles")
	}
	seen := map[int]bool{}
	for _, d := range drawsA {
		if d < 0 || d >= tilePool {
			t.Fatalf("draw %d outside the pool of %d", d, tilePool)
		}
		seen[d] = true
	}
	if len(seen) <= tileCache/2 {
		t.Errorf("%d distinct tiles in 500 draws: the schedule would never evict from a %d-entry cache", len(seen), tileCache)
	}

	if a, b := collection(3, 1, scenePool), collection(3, 1, scenePool); a != b {
		t.Error("scene pool config differs for one seed")
	}
	if collection(3, 1, scenePool) == collection(4, 1, scenePool) || collection(3, 1, scenePool) == collection(3, 2, scenePool) {
		t.Error("scene pool config does not depend on seed and salt")
	}
	w := newLabelWL(params{seed: 3, nproc: 2})
	if w.campaign(5) != w.campaign(5) || w.campaign(5) == w.campaign(6) {
		t.Error("label campaign is not a function of (seed, job)")
	}
}

func TestBadOutputsCountAgainstOkShare(t *testing.T) {
	out := openWindow()
	out.closeWindow()
	want := []byte{0, 1, 2, 2, 1, 0}
	if !out.verifyBody("scene 0", nil, []byte{0, 1, 2, 2, 1, 0}, want) {
		t.Error("an identical body was rejected")
	}
	if out.verifyBody("scene 1", nil, []byte{0, 1, 2, 0, 1, 0}, want) {
		t.Error("a corrupted body was accepted")
	}
	if out.verifyBody("scene 2", errors.New("status 500"), nil, want) {
		t.Error("a failed request was accepted")
	}
	if !out.verifyTileCount(3, nil, labelTilesPerJob, labelTilesPerJob) {
		t.Error("a full tile set was rejected")
	}
	if out.verifyTileCount(4, nil, labelTilesPerJob-1, labelTilesPerJob) {
		t.Error("a short tile set was accepted")
	}
	if out.attempted != 5 || out.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 5 and 3", out.attempted, out.failed)
	}
	for i := 0; i < 120; i++ { // enough good jobs for the percentiles
		out.attempted++
		out.jobMs = append(out.jobMs, 10+float64(i%7))
	}
	out.windowS, out.tiles = 1, 100
	metrics, _, err := endToEndMetrics(out, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := metrics["ok_share"].Value, 122.0/125.0; got != want {
		t.Errorf("ok_share = %v, want %v", got, want)
	}
}

func TestEndToEndMetricsAreHostNormalised(t *testing.T) {
	out := &outcome{windowS: 10, tiles: 1000, attempted: 100}
	for i := 0; i < 100; i++ {
		out.jobMs = append(out.jobMs, 100)
	}
	// Set-up on a host at nominal speed, the window on one 25 % slower.
	metrics, raw, err := endToEndMetrics(out, 2, 1, 1.25)
	if err != nil {
		t.Fatal(err)
	}
	if metrics["job_p50_ms"].Value != 80 || metrics["job_p90_ms"].Value != 80 || metrics["tiles_per_s"].Value != 125 || metrics["setup_s"].Value != 2 {
		t.Errorf("normalised p50 %v p90 %v tiles/s %v setup %v, want 80 80 125 2", metrics["job_p50_ms"].Value, metrics["job_p90_ms"].Value, metrics["tiles_per_s"].Value, metrics["setup_s"].Value)
	}
	if raw["job_p50_ms"] != 100 || raw["tiles_per_s"] != 100 || raw["setup_s"] != 2 {
		t.Errorf("raw p50 %v tiles/s %v setup %v, want 100 100 2", raw["job_p50_ms"], raw["tiles_per_s"], raw["setup_s"])
	}
	out.offeredRate = true // an open loop's throughput is the offered rate, not a speed
	if metrics, _, _ = endToEndMetrics(out, 2, 1, 1.25); metrics["tiles_per_s"].Value != 100 || metrics["job_p50_ms"].Value != 80 {
		t.Errorf("offered rate: tiles/s %v p50 %v, want 100 as measured and 80", metrics["tiles_per_s"].Value, metrics["job_p50_ms"].Value)
	}
	if hostFactor(0) != 1 || hostFactor(nominalProbeMs) != 1 {
		t.Error("hostFactor: no samples and the nominal kernel time must both mean 1")
	}
	if got, want := hostFactor(nominalProbeMs*2), math.Pow(2, hostExponent); got != want {
		t.Errorf("hostFactor at twice the nominal kernel time = %v, want 2^%v = %v", got, hostExponent, want)
	}
	if _, _, err := endToEndMetrics(&outcome{windowS: 1, attempted: 50, jobMs: make([]float64, 50)}, 1, 1, 1); err == nil {
		t.Error("50 jobs cannot carry a p90 with ten samples beyond it, but were reported")
	}
}

func TestProbeMeanCoversOnlyItsInterval(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	p := &hostProbe{samples: []probeSample{{at(1), 1}, {at(2), 2}, {at(3), 4}, {at(9), 100}}}
	if m, n := p.meanBetween(at(2), at(5)); m != 3 || n != 2 {
		t.Errorf("mean over [2 s, 5 s] = %v of %d samples, want 3 of 2", m, n)
	}
	if m, n := p.meanBetween(at(4), at(8)); m != 0 || n != 0 {
		t.Errorf("an interval without samples gave %v of %d", m, n)
	}
	for i := 0; i < 2000; i++ { // 20 s of resident-set samples, 50 MB with a 100 ms spike to 80
		mb := 50.0
		if i >= 1000 && i < 1010 {
			mb = 80
		}
		p.rss = append(p.rss, probeSample{at(10).Add(time.Duration(i) * rssEvery), mb})
	}
	if mb, n, err := p.peakRSSBetween(at(10), at(40)); err != nil || mb != 50 || n != 2000 {
		t.Errorf("p99 of the resident set = %v of %d samples, %v; want 50 of 2000 (a spike under 1 %% of the window is not the peak)", mb, n, err)
	}
	if _, _, err := p.peakRSSBetween(at(10), at(11)); err == nil {
		t.Error("a p99 of 100 samples, one beyond it, was reported")
	}
	if s := logSlope([]float64{1, 2, 4, 8}, []float64{3, 6, 12, 24}); math.Abs(s-1) > 1e-12 {
		t.Errorf("logSlope of y = 3x is %v, want 1", s)
	}
	if s := logSlope([]float64{1, 4, 16}, []float64{5, 10, 20}); math.Abs(s-0.5) > 1e-12 {
		t.Errorf("logSlope of y = 5·sqrt(x) is %v, want 0.5", s)
	}
}

func TestSelfTimeIsSpanMinusCoveredChildTime(t *testing.T) {
	tr := newTracer()
	at := func(msec int) time.Time { return tr.t0.Add(time.Duration(msec) * time.Millisecond) }
	tr.add("job", at(0), at(100), noSpan, 0)   // id 0
	tr.add("child", at(10), at(40), 0, 0)      // 30 ms
	tr.add("child", at(30), at(60), 0, 0)      // overlaps the first: union 10–60 = 50 ms
	tr.add("child", at(90), at(120), 0, 0)     // clipped to the parent: 10 ms
	tr.add("grandchild", at(15), at(20), 1, 0) // 5 ms inside the first child
	tr.begin("never-ended", noSpan, 1)         // dropped by the readers
	self := tr.selfTimes()
	if got := self["job"]; got != 40*time.Millisecond {
		t.Errorf("job self time %v, want 40ms (100 − 50 − 10)", got)
	}
	if got := self["child"]; got != 85*time.Millisecond {
		t.Errorf("child self time %v, want 85ms (30+30+30 − 5)", got)
	}
	if _, ok := self["never-ended"]; ok {
		t.Error("an open span has a self time")
	}
	if d := tr.durationsMs("child"); len(d) != 3 {
		t.Errorf("%d child spans, want 3", len(d))
	}

	path := filepath.Join(t.TempDir(), "trace.json")
	if err := tr.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]int `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("%d trace events, want the 5 finished spans", len(doc.TraceEvents))
	}
	gc := doc.TraceEvents[4]
	if gc.Name != "grandchild" || gc.Ph != "X" || gc.Ts != 15000 || gc.Dur != 5000 || gc.Args["parent"] != 1 {
		t.Errorf("grandchild event %+v", gc)
	}

	var off *tracer // tracing off: every call is a no-op
	off.end(off.begin("x", noSpan, 0))
	off.add("x", at(0), at(1), noSpan, 0)
	off.observe("x", 1)
	if len(off.closed()) != 0 {
		t.Error("a nil tracer recorded spans")
	}
}

func TestCheckMetricAppliesTheAcceptanceRule(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	slower := []float64{112, 113, 111, 112, 114, 110, 112, 113, 111, 112}
	noisy := []float64{80, 120, 100, 70, 130, 100, 85, 115, 100, 100}
	if v := checkMetric(steady, slower, false, 0.10, true); v.ok || v.text != "GAP" || math.Abs(v.gap-0.12) > 1e-9 {
		t.Errorf("12 %% slower at a 10 %% bound: %+v", v)
	}
	if v := checkMetric(slower, steady, false, 0.10, true); !v.ok {
		t.Errorf("a faster second set failed: %+v", v)
	}
	if v := checkMetric(steady, slower, true, 0.10, true); !v.ok {
		t.Errorf("a higher-is-better metric that rose failed: %+v", v)
	}
	if v := checkMetric(steady, noisy, false, 0.10, true); v.ok || v.text != "SPREAD" {
		t.Errorf("a 30 %% spread passed a 10 %% bound: %+v", v)
	}
	if v := checkMetric(steady, noisy, false, 0.10, false); !v.ok {
		t.Errorf("setup_s is exempt from the spread rule but failed: %+v", v)
	}
}

// BENCHMARK.json is the contract the driver reads; the program must emit
// exactly the metrics it lists and know exactly the workloads it names.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	spec, err := readBenchmarkSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		if _, ok := workloads[wl.Name]; !ok {
			t.Errorf("workload %q is not implemented", wl.Name)
		}
	}
	out := &outcome{windowS: 1, tiles: 1, attempted: 100, jobMs: make([]float64, 100)}
	e2e, _, err := endToEndMetrics(out, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program emits %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %q [%s]: program emits %+v", m.Name, m.Unit, got)
		}
	}
	if len(spec.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program emits %d", len(spec.PerLayer), len(perLayer))
	}
	emitted := map[string]string{}
	named := map[string]bool{}
	for _, wl := range spec.Workloads {
		named[wl.Name] = true
	}
	for _, m := range perLayer {
		emitted[m.name] = m.unit
		// Every prediction names an end-to-end metric and a workload of the contract.
		for _, mv := range m.moves {
			if _, ok := e2e[mv.metric]; !ok || !named[mv.workload] {
				t.Errorf("per-layer metric %q predicts a move of %s@%s, which BENCHMARK.json does not define", m.name, mv.metric, mv.workload)
			}
		}
	}
	if spec.RunSeconds*labelJobsPerSecond < 100 || float64(spec.RunSeconds)*trainEpochsPerSecond < 100 {
		t.Errorf("run_seconds %d gives a campaign fewer than 100 jobs", spec.RunSeconds)
	}
	for _, m := range spec.PerLayer {
		if unit, ok := emitted[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per-layer metric %q [%s]: program emits unit %q", m.Name, m.Unit, unit)
		}
	}
	for _, metric := range spanMetrics {
		if _, ok := emitted[metric]; !ok {
			t.Errorf("span metric %q is not in the per-layer table", metric)
		}
	}
}

func TestFlopsPerTileCountsEveryConvolution(t *testing.T) {
	// Depth 1, base 2, 3→2 classes on a 4² tile, by hand:
	// enc0 3→2, 2→2 at 4²; bottleneck 2→4, 4→4 at 2²; up 4→2 (2×2 per
	// input pixel at 2²); dec0 4→2, 2→2 at 4²; head 2→2 1×1 at 4².
	cfg := unet.Config{Depth: 1, BaseChannels: 2, InChannels: 3, Classes: 2}
	mac := 9*3*2*16 + 9*2*2*16 + 9*2*4*4 + 9*4*4*4 + 4*4*2*4 + 9*4*2*16 + 9*2*2*16 + 2*2*16
	got := flopsPerTile(cfg, 4)
	if got != float64(2*mac) {
		t.Errorf("flopsPerTile = %v, want %v", got, 2*mac)
	}
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkSpec is the part of BENCHMARK.json the self-check needs.
type benchmarkSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// runSelfcheck applies the benchmark's acceptance rule to the code as it
// stands: two sets of runs per workload, each run with another seed. The
// sets are interleaved — seed by seed, one run of each, alternating which
// goes first — so both see the same drift of the host and what is left is
// the benchmark's own repeatability. For every end-to-end metric it prints
// both sets' median and quartiles, each set's spread (interquartile range ÷
// median) and the gap between the medians in the metric's worse direction,
// and fails when a spread (setup_s excepted) or a gap exceeds the metric's
// bound in BENCHMARK.json, or when quality or ok_share differ at all
// between the two runs of one seed. Each run is a fresh process, as a
// driver's would be. It returns the exit code.
func runSelfcheck(runs int) int {
	spec, err := readBenchmarkSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: selfcheck: %v (run from the repository root)\n", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: selfcheck: %v\n", err)
		return 2
	}
	host := fingerprint()
	fmt.Printf("selfcheck: %d runs × 2 interleaved sets × %d workloads at %d s; host nproc=%d %q %s commit %s\n",
		runs, len(spec.Workloads), spec.RunSeconds, host.NProc, host.CPUModel, host.GoVersion, host.Commit)

	// values[set][workload][metric] lists one value per seed; raw holds the
	// time metrics as measured, before host normalisation, with the run's
	// probe time under "host_probe_ms".
	var values, raw [2]map[string]map[string][]float64
	for set := range values {
		values[set], raw[set] = map[string]map[string][]float64{}, map[string]map[string][]float64{}
		for _, wl := range spec.Workloads {
			values[set][wl.Name], raw[set][wl.Name] = map[string][]float64{}, map[string][]float64{}
		}
	}
	failures := 0
	for _, wl := range spec.Workloads {
		for seed := 1; seed <= runs; seed++ {
			for turn := 0; turn < 2; turn++ {
				set := (seed + turn) % 2 // odd seeds run set 2 first
				res, rep, err := runChild(exe, wl.Name, seed, spec.RunSeconds)
				if err != nil {
					fmt.Printf("FAIL set %d %s seed %d: %v\n", set+1, wl.Name, seed, err)
					return 1
				}
				for name, m := range res.Metrics {
					values[set][wl.Name][name] = append(values[set][wl.Name][name], m.Value)
				}
				for name, v := range rep.Raw {
					raw[set][wl.Name][name] = append(raw[set][wl.Name][name], v)
				}
				raw[set][wl.Name]["host_probe_ms"] = append(raw[set][wl.Name]["host_probe_ms"], rep.HostProbeMs)
				fmt.Printf("set %d %-15s seed %2d ok: %d jobs, %d failed, %.1f s; probe %.4f ms, as measured setup %.4g s, %.5g tiles/s, p50 %.5g ms, p90 %.5g ms; quality %.6f, peak rss %.1f MB\n",
					set+1, wl.Name, seed, res.Attempted, res.Failed, rep.TotalSeconds, rep.HostProbeMs,
					rep.Raw["setup_s"], rep.Raw["tiles_per_s"], rep.Raw["job_p50_ms"], rep.Raw["job_p90_ms"],
					res.Metrics["quality"].Value, res.Metrics["peak_rss_mb"].Value)
			}
			for _, name := range []string{"quality", "ok_share"} {
				a, b := values[0][wl.Name][name], values[1][wl.Name][name]
				if a[len(a)-1] != b[len(b)-1] {
					fmt.Printf("FAIL %s seed %d: %s differs between two runs of one seed: %v, %v\n", wl.Name, seed, name, a[len(a)-1], b[len(b)-1])
					failures++
				}
			}
		}
	}

	fmt.Printf("\n%-15s %-12s %6s | %12s %12s %12s %7s | %12s %12s %12s %7s | %8s  %s\n",
		"workload", "metric", "bound", "q1", "median", "q3", "spread", "q1", "median", "q3", "spread", "gap", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			a, b := values[0][wl.Name][m.Name], values[1][wl.Name][m.Name]
			verdict := checkMetric(a, b, m.Better == "higher", m.Bound, m.Name != "setup_s")
			if !verdict.ok {
				failures++
			}
			fmt.Printf("%-15s %-12s %6.4f | %12.5g %12.5g %12.5g %7.4f | %12.5g %12.5g %12.5g %7.4f | %+8.4f  %s\n",
				wl.Name, m.Name, m.Bound,
				verdict.q1[0], verdict.median[0], verdict.q3[0], verdict.spread[0],
				verdict.q1[1], verdict.median[1], verdict.q3[1], verdict.spread[1],
				verdict.gap, verdict.text)
		}
	}
	fmt.Printf("\nas measured, before host normalisation (information only). slope: how the runs' own as-measured values followed the probe,\nlog-log over both sets, to hold against the one exponent the benchmark applies to every workload (%.2f):\n", hostExponent)
	for _, wl := range spec.Workloads {
		probe := append(append([]float64(nil), raw[0][wl.Name]["host_probe_ms"]...), raw[1][wl.Name]["host_probe_ms"]...)
		for _, name := range []string{"host_probe_ms", "setup_s", "tiles_per_s", "job_p50_ms", "job_p90_ms", "vm_hwm_mb"} {
			v := checkMetric(raw[0][wl.Name][name], raw[1][wl.Name][name], name == "tiles_per_s", 1, false)
			both := append(append([]float64(nil), raw[0][wl.Name][name]...), raw[1][wl.Name][name]...)
			fmt.Printf("%-15s %-13s       | %12.5g %12.5g %12.5g %7.4f | %12.5g %12.5g %12.5g %7.4f | %+8.4f  slope %+.2f\n",
				wl.Name, name, v.q1[0], v.median[0], v.q3[0], v.spread[0], v.q1[1], v.median[1], v.q3[1], v.spread[1], v.gap, logSlope(probe, both))
		}
	}
	if failures > 0 {
		fmt.Printf("\nselfcheck FAILED: %d checks failed\n", failures)
		return 1
	}
	fmt.Printf("\nselfcheck passed: every spread and every gap between the sets is within its bound, and quality and ok_share are identical on equal seeds\n")
	return 0
}

// setVerdict is the comparison of one metric on one workload.
type setVerdict struct {
	q1, median, q3, spread [2]float64
	gap                    float64 // how much worse the second median is, as a share of the first
	ok                     bool
	text                   string
}

// checkMetric applies the acceptance rule to two sets of values.
func checkMetric(a, b []float64, higherIsBetter bool, bound float64, checkSpread bool) setVerdict {
	var v setVerdict
	for i, xs := range [2][]float64{a, b} {
		v.median[i] = median(xs)
		if len(xs) >= 2 {
			v.q1[i], v.q3[i] = quartiles(xs)
		}
		if v.median[i] != 0 {
			v.spread[i] = (v.q3[i] - v.q1[i]) / v.median[i]
		}
	}
	if v.median[0] != 0 {
		v.gap = (v.median[1] - v.median[0]) / v.median[0]
		if higherIsBetter {
			v.gap = -v.gap
		}
	}
	v.ok, v.text = true, "ok"
	if v.gap > bound {
		v.ok, v.text = false, "GAP"
	}
	if checkSpread && (v.spread[0] > bound || v.spread[1] > bound) {
		v.ok, v.text = false, "SPREAD"
	}
	return v
}

// runChild runs one end-to-end benchmark run in a fresh process and parses
// its report and result lines.
func runChild(exe, workload string, seed, seconds int) (*resultLine, *report, error) {
	cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("%v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return nil, nil, fmt.Errorf("expected a report and a result line, got %d lines", len(lines))
	}
	var res resultLine
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, nil, fmt.Errorf("result line: %w", err)
	}
	if err := json.Unmarshal(lines[len(lines)-2], &rep); err != nil {
		return nil, nil, fmt.Errorf("report line: %w", err)
	}
	if !res.Correct {
		return nil, nil, fmt.Errorf("run reported incorrect output (%d of %d jobs failed)", res.Failed, res.Attempted)
	}
	return &res, &rep, nil
}

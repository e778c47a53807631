package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// hostInfo is the fingerprint every report carries, so numbers from
// different machines or commits are never compared by accident.
type hostInfo struct {
	NProc     int    `json:"nproc"`
	CPUModel  string `json:"cpu_model"`
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit"`
}

func fingerprint() hostInfo {
	h := hostInfo{NProc: runtime.NumCPU(), CPUModel: "unknown", GoVersion: runtime.Version(), Commit: "unknown"}
	if v, ok := procField("/proc/cpuinfo", "model name"); ok {
		h.CPUModel = v
	}
	// The driver's checkout is not a git repository, so the commit is only
	// known when the toolchain stamped it into the binary.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// procField returns the value of the first "key : value" (or "key:\tvalue")
// line of a /proc text file.
func procField(path, key string) (string, bool) {
	f, err := os.Open(path)
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v), true
		}
	}
	return "", false
}

// vmHWM reads the kernel's high-water mark of the process's resident set,
// in MB, from /proc/self/status; 0 where there is none.
func vmHWM() float64 {
	v, _ := procField("/proc/self/status", "VmHWM")
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	return kb / 1024
}

// residentMB reads the resident set size from /proc/self/statm.
func residentMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	fields := strings.Fields(string(data))
	if len(fields) < 2 {
		return 0, fmt.Errorf("short /proc/self/statm: %q", data)
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0, fmt.Errorf("parse /proc/self/statm: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}

// cpuTicks returns the aggregate (total, steal) jiffies of /proc/stat.
func cpuTicks() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(strings.TrimPrefix(line, "cpu")) {
		n, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		// user nice system idle iowait irq softirq steal; guest time is
		// already inside user, so stop before it.
		if i < 8 {
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// goCounters is a snapshot of the runtime's allocation and GC totals.
type goCounters struct {
	allocBytes float64
	gcCycles   float64
	gcPauseS   float64
}

func readGoCounters() goCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goCounters{
		allocBytes: float64(m.TotalAlloc),
		gcCycles:   float64(m.NumGC),
		gcPauseS:   float64(m.PauseTotalNs) / 1e9,
	}
}

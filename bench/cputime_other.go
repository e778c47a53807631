//go:build !linux

package main

import "time"

var processEpoch = time.Now()

// threadCPU falls back to wall time where the per-thread CPU clock is not
// available; the probe then also counts time it spent descheduled.
func threadCPU() time.Duration { return time.Since(processEpoch) }

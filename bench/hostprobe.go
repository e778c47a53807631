package main

import (
	"runtime"
	"sync"
	"time"
)

// hostProbe samples the host while a run is in progress, from one OS
// thread of its own.
//
// Speed: on the shared 2-vCPU hosts this benchmark is run on, a busy
// neighbour slows high-IPC code by up to 2× for seconds to minutes at a
// time (a dependent-chain integer kernel never notices). Every probeEvery
// the thread runs a fixed, self-contained, cache-resident floating-point
// kernel and records the thread CPU time it took: fixed work, so the time
// moves only with the host.
//
// Memory: every rssEvery it reads the process's resident set, for
// peak_rss_mb.
type hostProbe struct {
	finish  func() // stops the thread and waits for it
	mu      sync.Mutex
	samples []probeSample // ms of thread CPU time per kernel run
	rss     []probeSample // MB resident
}

// probeSample is one reading and when it was taken.
type probeSample struct {
	at time.Time
	v  float64
}

const (
	rssEvery   = 10 * time.Millisecond
	probeEvery = 5 * rssEvery
)

func startHostProbe() *hostProbe {
	p := &hostProbe{}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread() // threadCPU reads this thread's clock
		defer runtime.UnlockOSThread()
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for tick := 0; ; tick++ {
			select {
			case <-quit:
				return
			case <-t.C:
			}
			mb, err := residentMB()
			var kernelMs float64
			if tick%int(probeEvery/rssEvery) == 0 {
				probeKernel(probeWarmReps) // wake the core up, untimed
				start := threadCPU()
				probeKernel(probeReps)
				kernelMs = ms(threadCPU() - start)
			}
			now := time.Now()
			p.mu.Lock()
			if err == nil {
				p.rss = append(p.rss, probeSample{now, mb})
			}
			if kernelMs > 0 {
				p.samples = append(p.samples, probeSample{now, kernelMs})
			}
			p.mu.Unlock()
		}
	}()
	p.finish = func() {
		close(quit)
		<-done
	}
	return p
}

// between returns the readings of one series taken in [from, to].
func (p *hostProbe) between(series *[]probeSample, from, to time.Time) []float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []float64
	for _, s := range *series {
		if !s.at.Before(from) && !s.at.After(to) {
			out = append(out, s.v)
		}
	}
	return out
}

// meanBetween returns the mean kernel time of the samples taken in
// [from, to] and how many there were (0, 0 for none). The mean, not the
// median: contention comes in bursts, and a window's throughput pays for
// every one of them.
func (p *hostProbe) meanBetween(from, to time.Time) (float64, int) {
	xs := p.between(&p.samples, from, to)
	return mean(xs), len(xs)
}

// peakRSSBetween returns the 99th percentile of the resident set over
// [from, to] and the number of samples it is of. Not the maximum, and not
// the kernel's VmHWM: the maximum over a thousand garbage-collection cycles
// is an extreme value that repeats poorly (README), while the percentile
// has its ten samples beyond it.
func (p *hostProbe) peakRSSBetween(from, to time.Time) (float64, int, error) {
	xs := p.between(&p.rss, from, to)
	p99, err := tailPercentile(xs, 0.99)
	return p99, len(xs), err
}

const (
	probeDim      = 48 // three 48×48 float32 matrices: 27 KB, L1-resident
	probeReps     = 12
	probeWarmReps = 2
)

var probeSink float32

// probeKernel multiplies two fixed matrices reps times with a 4-wide
// register-blocked inner loop — the shape of the repository's own hot
// loops, but owned by the benchmark so no change to the repository can
// move it.
func probeKernel(reps int) {
	var a, b, c [probeDim * probeDim]float32
	for i := range a {
		a[i] = float32(i%7)*0.125 + 0.5
		b[i] = float32(i%5)*0.25 - 0.5
	}
	for r := 0; r < reps; r++ {
		for i := 0; i < probeDim; i++ {
			for j := 0; j < probeDim; j += 4 {
				var s0, s1, s2, s3 float32
				for k := 0; k < probeDim; k++ {
					av := a[i*probeDim+k]
					row := b[k*probeDim+j : k*probeDim+j+4 : k*probeDim+j+4]
					s0 += av * row[0]
					s1 += av * row[1]
					s2 += av * row[2]
					s3 += av * row[3]
				}
				c[i*probeDim+j] += s0
				c[i*probeDim+j+1] += s1
				c[i*probeDim+j+2] += s2
				c[i*probeDim+j+3] += s3
			}
		}
	}
	probeSink += c[0] + c[len(c)-1]
}

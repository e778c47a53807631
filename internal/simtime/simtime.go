// Package simtime provides a discrete-event virtual clock. The serve
// plane's load simulator (serve.LoadSim) and the chaos injector's
// virtual delivery mode (chaos.Injector.DeliverVirtual) advance this
// clock by modeled durations instead of sleeping, so simulated
// latency-vs-load curves are deterministic on any host and run in
// milliseconds of real time.
//
// Determinism guarantee: events firing at the same virtual instant are
// delivered in a fixed, seed-independent order (insertion order within a
// timestamp), so simulated schedules — and every table derived from them
// — are bit-reproducible regardless of host speed or goroutine
// interleaving.
package simtime

import (
	"container/heap"
	"fmt"
)

// Clock is a virtual clock with an event queue. The zero value is ready
// to use and starts at time 0.
type Clock struct {
	now    float64
	events eventHeap
	seq    int
}

// Event is a scheduled callback.
type event struct {
	at  float64
	seq int // tie-breaker: FIFO among simultaneous events
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Now returns the current virtual time in seconds.
func (c *Clock) Now() float64 { return c.now }

// Schedule registers fn to run at absolute virtual time at. Scheduling in
// the past panics — it would mean the simulation violated causality.
func (c *Clock) Schedule(at float64, fn func()) {
	if at < c.now {
		panic(fmt.Sprintf("simtime: scheduling at %.6f before now %.6f", at, c.now))
	}
	heap.Push(&c.events, event{at: at, seq: c.seq, fn: fn})
	c.seq++
}

// After registers fn to run delay seconds from now.
func (c *Clock) After(delay float64, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("simtime: negative delay %.6f", delay))
	}
	c.Schedule(c.now+delay, fn)
}

// Step runs the earliest pending event, advancing the clock to its time.
// It reports whether an event was run.
func (c *Clock) Step() bool {
	if len(c.events) == 0 {
		return false
	}
	ev := heap.Pop(&c.events).(event)
	c.now = ev.at
	ev.fn()
	return true
}

// Run drains the event queue, returning the final virtual time.
func (c *Clock) Run() float64 {
	for c.Step() {
	}
	return c.now
}

// Pending reports the number of scheduled events.
func (c *Clock) Pending() int { return len(c.events) }

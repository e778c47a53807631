package serve

import (
	"sync"
	"time"
)

// BreakerState is one of the three circuit-breaker states.
type BreakerState uint8

const (
	// BreakerClosed: the node is healthy; requests flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the failure detector tripped; no requests are sent
	// until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed and exactly one trial
	// request is probing the node; everything else routes around it
	// until the trial reports back.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

const (
	// breakerAlpha is the EWMA weight of one health observation. 0.5
	// means a single hard failure from a healthy baseline (score 0 →
	// 0.5) trips the breaker, matching the old binary mark-down for
	// clean kills, while a node that merely flakes (isolated failures
	// between successes) decays back under the threshold instead of
	// flapping up and down.
	breakerAlpha = 0.5
	// breakerTrip is the EWMA failure score that opens the breaker.
	breakerTrip = 0.45
)

// Breaker is a per-node circuit breaker with an EWMA failure detector —
// the replacement for the coordinator's old binary up/down flag. State
// machine: Closed → (EWMA failure score trips) → Open → (cooldown
// elapses) → HalfOpen with exactly one trial request → Closed on trial
// success / Open again on trial failure. Any recorded success fully
// closes the breaker (a live answer is definitive evidence), so recovery
// latency is one successful probe, exactly as the old flag behaved.
//
// The clock is injectable for deterministic tests. All methods are safe
// for concurrent use.
type Breaker struct {
	mu       sync.Mutex
	now      func() time.Time
	cooldown time.Duration

	state    BreakerState
	score    float64 // EWMA failure score in [0,1]
	openedAt time.Time
	probing  bool // the single half-open trial slot is claimed
}

// NewBreaker builds a closed breaker. cooldown <= 0 selects 1s; now ==
// nil selects time.Now.
func NewBreaker(cooldown time.Duration, now func() time.Time) *Breaker {
	if cooldown <= 0 {
		cooldown = time.Second
	}
	if now == nil {
		now = time.Now
	}
	return &Breaker{now: now, cooldown: cooldown}
}

// State reports the current state (Open is reported even after the
// cooldown has elapsed; the transition to HalfOpen happens when a trial
// is claimed via TryProbe).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Available reports whether the routing layer should consider the node
// at all: closed, or open-past-cooldown (a probe could be claimed), or
// half-open with the trial slot free. It never mutates state, so it is
// safe to call once per tile while grouping.
func (b *Breaker) Available() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		return b.now().Sub(b.openedAt) >= b.cooldown
	case BreakerHalfOpen:
		return !b.probing
	}
	return false
}

// TryProbe claims the right to actually send a request to the node. In
// Closed state it always succeeds (no slot needed). In Open state past
// the cooldown it transitions to HalfOpen and claims the single trial
// slot; in HalfOpen it succeeds only if the slot is free. Callers that
// get true in a non-closed state MUST call Record with the trial's
// outcome to release the slot.
func (b *Breaker) TryProbe() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.probing = true
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return false
}

// Record feeds one request or health-probe outcome into the detector.
// Success closes the breaker from any state and decays the score;
// failure raises the score, trips Closed → Open past the threshold, and
// sends a failed half-open trial straight back to Open for another
// cooldown.
func (b *Breaker) Record(success bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if success {
		b.score *= 1 - breakerAlpha
		b.state = BreakerClosed
		b.probing = false
		return
	}
	b.score += float64(breakerAlpha * (1 - b.score)) // rounded: no multiply-add on any target
	switch b.state {
	case BreakerClosed:
		if b.score >= breakerTrip {
			b.state = BreakerOpen
			b.openedAt = b.now()
		}
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = b.now()
		b.probing = false
	}
}

// Release frees a trial slot claimed by TryProbe without recording a
// verdict — for attempts that were cancelled (a hedge loser says nothing
// about the node's health). A no-op when no slot is held.
func (b *Breaker) Release() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
}

// TokenBucket is the retry budget shared by reroutes and hedges: each
// recovery action spends one token, and tokens refill at a bounded rate
// — so a mass failure degrades service instead of amplifying load with
// unbounded retries (retry storms are how overload turns into outage).
type TokenBucket struct {
	mu     sync.Mutex
	now    func() time.Time
	tokens float64
	max    float64
	perSec float64
	last   time.Time
}

// NewTokenBucket builds a full bucket holding max tokens refilled at
// perSec tokens per second. now == nil selects time.Now.
func NewTokenBucket(max, perSec float64, now func() time.Time) *TokenBucket {
	if now == nil {
		now = time.Now
	}
	return &TokenBucket{now: now, tokens: max, max: max, perSec: perSec, last: now()}
}

// Take spends one token, reporting whether one was available.
func (t *TokenBucket) Take() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.refill()
	if t.tokens < 1 {
		return false
	}
	t.tokens--
	return true
}

// Tokens reports the current balance.
func (t *TokenBucket) Tokens() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.refill()
	return t.tokens
}

// refill credits elapsed time. Callers hold t.mu.
func (t *TokenBucket) refill() {
	now := t.now()
	if dt := now.Sub(t.last).Seconds(); dt > 0 {
		t.tokens += float64(dt * t.perSec) // rounded: no multiply-add on any target
		if t.tokens > t.max {
			t.tokens = t.max
		}
	}
	t.last = now
}

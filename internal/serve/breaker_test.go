package serve

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is an injectable clock for breaker and token-bucket tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// TestBreakerStateMachine walks the full closed → open → half-open →
// closed cycle, including the failed-trial path back to open.
func TestBreakerStateMachine(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	b := NewBreaker(100*time.Millisecond, clock.Now)

	if b.State() != BreakerClosed || !b.Available() {
		t.Fatal("new breaker should be closed and available")
	}
	// One hard failure from a healthy baseline trips it (score 0 → 0.5 ≥
	// 0.45) — matching the old binary mark-down for clean kills.
	b.Record(false)
	if b.State() != BreakerOpen {
		t.Fatalf("state after failure: %v, want open", b.State())
	}
	if b.Available() || b.TryProbe() {
		t.Fatal("open breaker inside cooldown must admit nothing")
	}

	clock.Advance(150 * time.Millisecond)
	if !b.Available() {
		t.Fatal("open breaker past cooldown should be probe-able")
	}
	if !b.TryProbe() {
		t.Fatal("first probe past cooldown should be admitted")
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after probe claim: %v, want half-open", b.State())
	}

	// Failed trial → straight back to open with a fresh cooldown.
	b.Record(false)
	if b.State() != BreakerOpen || b.TryProbe() {
		t.Fatal("failed trial must reopen the breaker for a fresh cooldown")
	}
	clock.Advance(150 * time.Millisecond)
	if !b.TryProbe() {
		t.Fatal("probe after second cooldown should be admitted")
	}
	// Successful trial closes from any state.
	b.Record(true)
	if b.State() != BreakerClosed || !b.Available() {
		t.Fatal("successful trial must close the breaker")
	}
	if b.score >= breakerTrip {
		t.Fatalf("score %0.3f still above trip threshold after success", b.score)
	}
}

// TestBreakerHalfOpenSingleTrial: while half-open, concurrent callers
// must win exactly one trial slot — the "exactly one request probes a
// recovering node" guarantee.
func TestBreakerHalfOpenSingleTrial(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	b := NewBreaker(50*time.Millisecond, clock.Now)
	b.Record(false) // trip
	clock.Advance(60 * time.Millisecond)

	var admitted atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.TryProbe() {
				admitted.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := admitted.Load(); got != 1 {
		t.Fatalf("%d concurrent probes admitted while half-open, want exactly 1", got)
	}
	// Release without a verdict frees the slot for the next trial.
	b.Release()
	if !b.TryProbe() {
		t.Fatal("released slot should be claimable again")
	}
	b.Record(true)
	if b.State() != BreakerClosed {
		t.Fatal("trial success should close")
	}
}

// TestBreakerFlakeDecay: isolated failures between successes must decay
// below the trip threshold instead of flapping the breaker open.
func TestBreakerFlakeDecay(t *testing.T) {
	b := NewBreaker(time.Second, nil)
	for i := 0; i < 10; i++ {
		b.Record(true)
		b.Record(true)
		b.Record(true)
	}
	if b.State() != BreakerClosed {
		t.Fatal("healthy breaker opened")
	}
	// A single failure after sustained success: score jumps to ~0.5 and
	// trips — by design, one hard failure is definitive for clean kills.
	// But a success immediately halves it back under the threshold.
	b.Record(false)
	b.Record(true)
	if b.State() != BreakerClosed || b.score >= breakerTrip {
		t.Fatalf("success did not recover: state %v score %.3f", b.State(), b.score)
	}
}

// TestTokenBucket: the retry budget drains by Take and refills with
// time, capped at the bucket size.
func TestTokenBucket(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	tb := NewTokenBucket(4, 2, clock.Now)
	for i := 0; i < 4; i++ {
		if !tb.Take() {
			t.Fatalf("take %d from a full bucket of 4 failed", i)
		}
	}
	if tb.Take() {
		t.Fatal("empty bucket granted a token")
	}
	clock.Advance(time.Second) // +2 tokens at 2/s
	if !tb.Take() || !tb.Take() {
		t.Fatal("refilled tokens not granted")
	}
	if tb.Take() {
		t.Fatal("bucket granted more than the refill")
	}
	clock.Advance(time.Hour)
	if got := tb.Tokens(); got != 4 {
		t.Fatalf("bucket refilled to %g, want capped at 4", got)
	}
}

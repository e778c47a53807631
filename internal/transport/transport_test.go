package transport

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"seaice/internal/chaos"
	"seaice/internal/ring"
)

// newTestRings binds p loopback listeners and returns p connected rings,
// each with its own injector built from spec (as separate processes
// would have) — the seeded schedule resolves identically in every one.
func newTestRings(t *testing.T, p int, spec string) []*Ring {
	t.Helper()
	peers := make([]string, p)
	lns := make([]net.Listener, p)
	for r := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r] = ln
		peers[r] = ln.Addr().String()
	}
	rings := make([]*Ring, p)
	for r := range rings {
		var inj *chaos.Injector
		if spec != "" {
			sched, err := chaos.Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			inj = chaos.New(sched, p)
		}
		var err error
		rings[r], err = NewRing(Config{
			Rank:      r,
			Peers:     peers,
			ClusterID: t.Name(),
			Timeout:   time.Second,
			Listener:  lns[r],
			Chaos:     inj,
			Logf:      t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, r := range rings {
			r.Close()
		}
	})
	establishAll(t, rings, 0)
	return rings
}

// establishAll connects every ring concurrently and checks the agreed step.
func establishAll(t *testing.T, rings []*Ring, wantStep int) {
	t.Helper()
	var wg sync.WaitGroup
	for _, r := range rings {
		wg.Add(1)
		go func(r *Ring) {
			defer wg.Done()
			got, err := r.Establish(wantStep)
			if err != nil {
				t.Errorf("rank %d establish: %v", r.Rank(), err)
				return
			}
			if got != wantStep {
				t.Errorf("rank %d agreed step %d, want %d", r.Rank(), got, wantStep)
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
}

// perRank runs fn on every rank concurrently and fails on any error.
func perRank(t *testing.T, rings []*Ring, fn func(r *Ring) error) {
	t.Helper()
	errs := make([]error, len(rings))
	var wg sync.WaitGroup
	for i, r := range rings {
		wg.Add(1)
		go func(i int, r *Ring) {
			defer wg.Done()
			errs[i] = fn(r)
		}(i, r)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", i, err)
		}
	}
}

func testVec[S ring.Scalar](rank, step, n int) []S {
	vec := make([]S, n)
	for i := range vec {
		vec[i] = S(math.Sin(float64(rank*7919+step*131+i)) * float64(rank+1))
	}
	return vec
}

// golden computes the in-process chunked all-reduce over the same inputs.
func golden[S ring.Scalar](p, step, n, chunk int) [][]S {
	vecs := make([][]S, p)
	for r := range vecs {
		vecs[r] = testVec[S](r, step, n)
	}
	if err := ring.AllReduceMeanChunked(vecs, chunk); err != nil {
		panic(err)
	}
	return vecs
}

// TestAllReduceParity: the network all-reduce must match the in-process
// chunked ring bit for bit — one schedule, ring.AllReduceMeanRank, over a
// socket link and over channel links — across precisions and vector
// shapes (multi-segment, sub-chunk, and shorter-than-world vectors).
func TestAllReduceParity(t *testing.T) {
	testAllReduceParity[float64](t)
	testAllReduceParity[float32](t)
}

func testAllReduceParity[S ring.Scalar](t *testing.T) {
	t.Helper()
	const p, chunk = 3, 1 << 10
	rings := newTestRings(t, p, "")
	for _, n := range []int{3*chunk + 217, 100, 2} {
		want := golden[S](p, 0, n, chunk)
		perRank(t, rings, func(r *Ring) error {
			vec := testVec[S](r.Rank(), 0, n)
			if err := AllReduceMean(r, vec, chunk); err != nil {
				return err
			}
			for i := range vec {
				if vec[i] != want[r.Rank()][i] {
					return fmt.Errorf("n=%d idx %d: %v != %v", n, i, vec[i], want[r.Rank()][i])
				}
			}
			return nil
		})
	}
}

// TestBroadcastParity: rank 0's bits must land on every rank unchanged.
func TestBroadcastParity(t *testing.T) {
	const p, n = 3, 4097
	rings := newTestRings(t, p, "")
	src := testVec[float64](0, 1, n)
	perRank(t, rings, func(r *Ring) error {
		vec := testVec[float64](r.Rank(), 1, n)
		if err := Broadcast(r, vec); err != nil {
			return err
		}
		for i := range vec {
			if vec[i] != src[i] {
				return fmt.Errorf("idx %d: %v != %v", i, vec[i], src[i])
			}
		}
		return nil
	})
}

// TestRingCloseLeaksNothing: a full Establish → AllReduceMean →
// Broadcast → Commit → Close cycle leaves no goroutine behind (dialers,
// hop senders and the rendezvous watchdog all finish).
func TestRingCloseLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	rings := newTestRings(t, 3, "")
	perRank(t, rings, func(r *Ring) error {
		vec := testVec[float32](r.Rank(), 0, 3000)
		if err := AllReduceMean(r, vec, 1<<10); err != nil {
			return err
		}
		if err := Broadcast(r, vec); err != nil {
			return err
		}
		return r.Commit(0)
	})
	for _, r := range rings {
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for end := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(end); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("%d goroutines after Close, %d before the rings: a goroutine leaked", n, before)
	}
}

// TestCommitBarrier: the barrier completes when all ranks enter with the
// same step.
func TestCommitBarrier(t *testing.T) {
	rings := newTestRings(t, 3, "")
	perRank(t, rings, func(r *Ring) error { return r.Commit(12) })
}

// TestEstablishStepAgreement: ranks re-establishing with divergent steps
// must all agree on the minimum.
func TestEstablishStepAgreement(t *testing.T) {
	rings := newTestRings(t, 3, "")
	steps := []int{5, 4, 5}
	agreed := make([]int, 3)
	perRank(t, rings, func(r *Ring) error {
		got, err := r.Establish(steps[r.Rank()])
		agreed[r.Rank()] = got
		return err
	})
	for rank, got := range agreed {
		if got != 4 {
			t.Errorf("rank %d agreed %d, want 4", rank, got)
		}
	}
}

// runRecoverySteps drives one rank through K steps of
// all-reduce-then-commit with the full abort→Reestablish→retry recovery
// loop, returning the final step-(K−1) result vector.
func runRecoverySteps[S ring.Scalar](r *Ring, K, n, chunk int) ([]S, error) {
	var vec []S
	step := 0
	for step < K {
		r.StepStart(step)
		vec = testVec[S](r.Rank(), step, n)
		err := AllReduceMean(r, vec, chunk)
		if err == nil {
			err = r.Commit(step)
		}
		if err == nil {
			step++
			continue
		}
		var re *ring.RankError
		if !errors.As(err, &re) {
			return nil, fmt.Errorf("step %d: non-RankError: %w", step, err)
		}
		agreed, eerr := reestablishRetry(r, step)
		if eerr != nil {
			return nil, eerr
		}
		// A rank that committed past the agreed step redoes the steps
		// bit-identically (each attempt regenerates its input), so
		// rolling the cursor back is the whole recovery.
		step = agreed
	}
	return vec, nil
}

// reestablishRetry loops Establish until the whole ring converges.
func reestablishRetry(r *Ring, step int) (int, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		agreed, err := r.Establish(step)
		if err == nil {
			return agreed, nil
		}
		lastErr = err
	}
	return 0, fmt.Errorf("rank %d: establish failed after retries: %w", r.Rank(), lastErr)
}

// testFaultRecovery runs K steps under an injected network fault and
// asserts the surviving results are bit-identical to the clean run.
func testFaultRecovery(t *testing.T, spec string) {
	const p, K, n, chunk = 3, 6, 3000, 1 << 10
	rings := newTestRings(t, p, spec)
	want := golden[float64](p, K-1, n, chunk)
	results := make([][]float64, p)
	perRank(t, rings, func(r *Ring) error {
		vec, err := runRecoverySteps[float64](r, K, n, chunk)
		results[r.Rank()] = vec
		return err
	})
	for rank, vec := range results {
		for i := range vec {
			if vec[i] != want[rank][i] {
				t.Fatalf("%s: rank %d idx %d: %v != %v", spec, rank, i, vec[i], want[rank][i])
			}
		}
	}
}

// TestPartitionRecovery: a severed link at a step boundary aborts the
// step everywhere; after rendezvous the retry is bit-identical.
func TestPartitionRecovery(t *testing.T) { testFaultRecovery(t, "21:part@2:r1") }

// TestReconnectRecovery: a clean link drop takes the same path.
func TestReconnectRecovery(t *testing.T) { testFaultRecovery(t, "23:reconn@4:r2") }

// TestDropFrameRecovery: a frame lost on the wire times out the
// receiver, cascades into a ring-wide abort, and retries bit-identically.
func TestDropFrameRecovery(t *testing.T) { testFaultRecovery(t, "25:drop@3:r0") }

// TestSlowLinkAbsorbed: a slow link delays but never aborts — results
// identical, no recovery needed.
func TestSlowLinkAbsorbed(t *testing.T) { testFaultRecovery(t, "27:slow@1:r1:30ms") }

// TestCompoundFaults: multiple network faults across distinct steps and
// ranks in one run.
func TestCompoundFaults(t *testing.T) {
	testFaultRecovery(t, "29:part@1:r0,drop@3:r2,slow@4:r1:20ms,reconn@5:r1")
}

// TestCorruptFrameRecovery: a bit flipped on the wire fails the CRC32C
// trailer check on the receiving side — silent corruption becomes a
// *ring.RankError, the step aborts ring-wide, and the retry is
// bit-identical to a clean run.
func TestCorruptFrameRecovery(t *testing.T) { testFaultRecovery(t, "33:bitflip@2:r1") }

// TestCorruptFrameCRCDetected: the frame decoder rejects a flipped
// payload bit and a truncated CRC trailer with errors — corrupt bytes
// never surface as a decoded frame.
func TestCorruptFrameCRCDetected(t *testing.T) {
	payload := []byte{0, 0, 0, 1, 0, 0, 0, 2, 42, 43, 44}
	raw := encodeFrame(tagData, payload)

	if fr, err := ReadFrame(bytes.NewReader(raw)); err != nil {
		t.Fatalf("clean frame rejected: %v", err)
	} else if fr.Tag != tagData || !bytes.Equal(fr.Payload, payload) {
		t.Fatal("clean frame decoded wrong")
	}

	for bit := 0; bit < 8; bit++ {
		flipped := append([]byte(nil), raw...)
		flipped[5+len(payload)/2] ^= 1 << uint(bit)
		if _, err := ReadFrame(bytes.NewReader(flipped)); err == nil ||
			!strings.Contains(err.Error(), "CRC mismatch") {
			t.Fatalf("bit %d flip not detected: %v", bit, err)
		}
	}

	// A flipped tag byte is inside the checksummed region too.
	tagFlip := append([]byte(nil), raw...)
	tagFlip[4] ^= 0x01
	if _, err := ReadFrame(bytes.NewReader(tagFlip)); err == nil {
		t.Fatal("tag flip not detected")
	}

	for cut := 1; cut <= 4; cut++ {
		if _, err := ReadFrame(bytes.NewReader(raw[:len(raw)-cut])); err == nil {
			t.Fatalf("truncation of %d bytes not detected", cut)
		}
	}

	// A frame too short to even hold a CRC trailer is rejected before
	// allocation.
	if _, err := ReadFrame(bytes.NewReader([]byte{0, 0, 0, 3, 0x04, 1, 2})); err == nil {
		t.Fatal("trailerless frame accepted")
	}
}

// TestClusterIDMismatch: a ring with a different cluster ID must not
// assemble (the hello rejects the peer).
func TestClusterIDMismatch(t *testing.T) {
	peers := make([]string, 2)
	lns := make([]net.Listener, 2)
	for r := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[r] = ln
		peers[r] = ln.Addr().String()
	}
	mk := func(rank int, cid string) *Ring {
		r, err := NewRing(Config{Rank: rank, Peers: peers, ClusterID: cid,
			Timeout: 300 * time.Millisecond, Listener: lns[rank]})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := mk(0, "alpha"), mk(1, "beta")
	defer a.Close()
	defer b.Close()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, r := range []*Ring{a, b} {
		wg.Add(1)
		go func(i int, r *Ring) {
			defer wg.Done()
			_, errs[i] = r.Establish(0)
		}(i, r)
	}
	wg.Wait()
	if errs[0] == nil && errs[1] == nil {
		t.Fatal("rings with different cluster IDs assembled")
	}
}

// TestRendezvousTotalDeadline: Establish against a half-open peer — one
// whose address accepts TCP connections but never completes the
// handshake — must fail within the total rendezvous budget
// (timeout×(world+3)) instead of hanging until someone kills the
// process.
func TestRendezvousTotalDeadline(t *testing.T) {
	t.Parallel()
	// Black-hole listener standing in for rank 1: accepts, reads,
	// never replies.
	hole, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hole.Close()
	go func() {
		for {
			c, err := hole.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
				}
			}(c)
		}
	}()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 200 * time.Millisecond
	r, err := NewRing(Config{
		Rank:      0,
		Peers:     []string{ln.Addr().String(), hole.Addr().String()},
		ClusterID: t.Name(),
		Timeout:   timeout,
		Listener:  ln,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	budget := timeout * time.Duration(r.World()+3)
	start := time.Now()
	_, err = r.Establish(0)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("establish against a half-open peer succeeded")
	}
	// Generous slack: the per-op deadlines fire well inside the total
	// budget; what must never happen is an unbounded hang.
	if elapsed > 2*budget {
		t.Fatalf("establish took %v, want well under the %v rendezvous budget", elapsed, budget)
	}
	t.Logf("establish failed in %v: %v", elapsed, err)
}

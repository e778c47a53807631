// Package pool provides the single-machine parallel substrate of the
// workflow — the Go analogue of the Python multiprocessing pool the paper
// uses to scale auto-labeling on a 4-core workstation (§III-B, Table I).
//
// Work items are distributed to a fixed set of worker goroutines over a
// channel; results are written to their original positions, so Map
// preserves order. Errors and panics in workers are captured and
// propagated to the caller rather than crashing the process, matching the
// robustness of a process pool.
//
// Parallelism/bit-identity guarantees: Map preserves item order
// regardless of which worker runs which item; MapRanges partitions
// [0, n) deterministically from (n, minGrain, pool size) alone, so
// kernels that accumulate within a stripe in serial order produce
// bit-identical results at any worker count — the property the tensor,
// autolabel, and pipeline engines are built on. Shared() is the one
// process-wide knob (the -procs flag of seaice-train and seaice-label)
// sizing every kernel's fan-out.
package pool

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool runs tasks on a fixed number of workers.
type Pool struct {
	workers int
}

// New returns a pool with the given worker count; n <= 0 selects
// runtime.GOMAXPROCS(0), mirroring multiprocessing.Pool()'s default of
// os.cpu_count().
func New(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: n}
}

// Workers reports the pool size.
func (p *Pool) Workers() int { return p.workers }

// Map applies fn to every index in [0, n) on the pool's workers and
// returns the first error encountered (remaining work is still drained).
// Panics inside fn are converted to errors. fn receives the item index;
// callers capture their input and output slices, which keeps this API
// free of reflection or generics gymnastics while preserving order.
func (p *Pool) Map(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := p.workers
	if workers > n {
		workers = n
	}

	idx := make(chan int)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var firstErr error
			for i := range idx {
				if firstErr != nil {
					continue // drain remaining work after a failure
				}
				firstErr = runTask(fn, i)
			}
			errs <- firstErr
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runTask invokes fn(i), converting panics into errors.
func runTask(fn func(int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pool: task %d panicked: %v", i, r)
		}
	}()
	return fn(i)
}

// MapRanges splits [0, n) into at most Workers() contiguous chunks of at
// least minGrain items each and applies fn to every chunk on the pool.
// Chunk boundaries depend only on n, minGrain, and the pool size, so
// callers that need deterministic work partitioning get it for free. When
// a single chunk results, fn runs inline on the calling goroutine.
func (p *Pool) MapRanges(n, minGrain int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	chunks := p.chunks(n, minGrain)
	if chunks <= 1 {
		return runRange(fn, 0, n)
	}
	return p.Map(chunks, func(i int) error {
		lo := i * n / chunks
		hi := (i + 1) * n / chunks
		return runRange(fn, lo, hi)
	})
}

// Split calls fn, in order and on the calling goroutine, with the bounds
// of every chunk MapRanges(n, minGrain, ·) would run — for callers that
// must prepare shared state for the chunks before fanning them out.
func (p *Pool) Split(n, minGrain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	chunks := max(1, p.chunks(n, minGrain))
	for i := 0; i < chunks; i++ {
		fn(i*n/chunks, (i+1)*n/chunks)
	}
}

// chunks is the number of chunks MapRanges splits n items into: at most
// one per worker, each of at least minGrain items.
func (p *Pool) chunks(n, minGrain int) int {
	minGrain = max(1, minGrain)
	return min(p.workers, (n+minGrain-1)/minGrain)
}

// runRange invokes fn(lo, hi), converting panics into errors so inline
// execution matches Map's worker behavior.
func runRange(fn func(lo, hi int) error, lo, hi int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("pool: range [%d,%d) panicked: %v", lo, hi, r)
		}
	}()
	return fn(lo, hi)
}

// MustMapRanges is MapRanges for callers whose fn cannot return an error:
// a non-nil result can only be a recovered worker panic, so it is
// re-panicked rather than silently dropped — a bug inside a stripe fails
// as loudly as it would on the serial path.
func (p *Pool) MustMapRanges(n, minGrain int, fn func(lo, hi int)) {
	err := p.MapRanges(n, minGrain, func(lo, hi int) error {
		fn(lo, hi)
		return nil
	})
	if err != nil {
		panic(err)
	}
}

// shared is the process-wide pool used by the compute kernels (tensor,
// nn, autolabel): one knob sizes the whole engine's parallelism.
var shared atomic.Pointer[Pool]

func init() { shared.Store(New(runtime.NumCPU())) }

// Shared returns the process-wide pool, sized from runtime.NumCPU unless
// overridden by SetSharedWorkers.
func Shared() *Pool { return shared.Load() }

// SetSharedWorkers resizes the shared pool; n <= 0 restores the
// runtime.NumCPU default. Safe to call concurrently with Shared, but the
// caller must ensure no kernel is mid-flight if determinism across the
// switch matters (partitioning depends on the pool size).
func SetSharedWorkers(n int) {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	shared.Store(New(n))
}

// serial is the canonical one-worker pool.
var serial = New(1)

// Serial returns a one-worker pool: kernels invoked with it run inline on
// the calling goroutine. Callers that provide their own concurrency —
// e.g. one inference session per serving worker — pass this to avoid
// nesting a fan-out inside an already-parallel context.
func Serial() *Pool { return serial }

// MapSlice is a generic convenience over Map: it applies fn to each input
// element and returns the outputs in input order.
func MapSlice[In, Out any](p *Pool, in []In, fn func(In) (Out, error)) ([]Out, error) {
	out := make([]Out, len(in))
	err := p.Map(len(in), func(i int) error {
		v, err := fn(in[i])
		if err != nil {
			return fmt.Errorf("pool: item %d: %w", i, err)
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

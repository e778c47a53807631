// Kernel-dispatch seam: every scalar kind the stack computes in (float64,
// float32, int8) resolves its low-level kernels through a per-kind backend
// table instead of calling one hard-wired implementation. Both float kinds
// register the cache-blocked parallel engine from matmul.go; float32
// additionally registers an AVX2 assembly panel (sgemm_amd64.go) and
// eight-lane Winograd F(4×4,3×3) input, filter and output transforms
// (wino_amd64.go) on amd64 hosts that support them. The int8 kind
// registers a scalar reference, a portable SWAR kernel, and its own AVX2
// kernel. Per kind, the highest-priority available backend serves. The
// seam is what lets the quantized inference path and the SIMD float panel
// plug in without touching the layers above: callers go through
// MatMul*/GemmSerial/Float()/Int8() and never name an implementation.
//
// Determinism contract: every backend registered for a kind must produce
// bit-identical outputs to that kind's reference backend on identical
// inputs. Float backends keep the engine's accumulation-order contract —
// each C element sums its k terms ascending through one chain, every
// product and every sum rounded separately (no FMA, no reassociation) —
// so a SIMD backend may only vectorise across independent output columns;
// that is also what keeps them bit-identical at any worker count
// (property-tested in backend_test.go; NaN payload bits are not part of
// the contract). The optional Winograd transform entries extend the
// same rule from columns to tiles and filters: a backend may run the
// stencil of several independent tiles (or filters) side by side, one per
// lane, but each lane must evaluate internal/nn's scalar expressions in
// their written order, every product, quotient and sum rounded separately
// — never within a chain, never across lanes
// (nn.TestWinogradTransformConformance).
// int8 backends compute in exact integer arithmetic — the
// convolution sums in any order, the requantization epilogue as the one
// rounding RequantClamp defines — so cross-backend equality is absolute
// (qconv_test.go, quant_test.go). Selection is
// process-global and safe for concurrent readers; tests that switch
// backends serialize around SelectFloat/SelectInt8.

package tensor

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// FloatOps is the kernel table for one float kind: the serial GEMM panel
// and the two parallel GEMM forms the convolution layers reduce to. All
// entries must keep the engine's accumulation-order contract (serial
// reference order per output element) so results stay bit-identical at
// any worker count and across backends.
type FloatOps[S Scalar] struct {
	Name string
	// Priority and Available select the active backend exactly as for
	// Int8Ops: the highest-priority available one serves.
	Priority  int
	Available func() bool
	// SIMD marks a vectorised Panel: layers may then prefer a GEMM
	// formulation over a direct scalar kernel with the same per-element
	// order (the 3×3 weight gradient in internal/nn does).
	SIMD bool
	// Panel computes columns [jlo,jhi) of C = A×B on the calling
	// goroutine for row-major A (m×k, rows lda apart), B (k×n) and C
	// (m×n). With acc the panel starts from the values already in C
	// instead of zero, so a caller blocking over k continues every
	// element's single chain. k = 0, m = 0 and jlo = jhi are legal.
	Panel func(c, a, b []S, m, k, n, lda, jlo, jhi int, acc bool)
	// MatMulInto computes dst = a×b, MatMulATBInto dst = aᵀ×b; shapes as
	// in matmul.go. A backend that leaves one nil inherits the engine's
	// (whose A×B fans the active Panel out over column ranges).
	MatMulInto    func(dst, a, b *Tensor[S])
	MatMulATBInto func(dst, a, b *Tensor[S])
	// WinoIn4 is the F(4×4,3×3) Winograd input transform of eight tiles
	// at once, one tile per lane. It and the two entries after it are
	// optional: internal/nn's scalar stencil (here bt4Row) is the
	// definition and what runs when a backend leaves an entry nil — as
	// the engine does — so a backend that fills one must reproduce that
	// stencil's left-to-right rounding per lane, every division a true
	// division (nn.TestWinogradTransformConformance). It takes the tiles'
	// 6×6 input windows lane-minor — element k of lane l's window at
	// d[8k+l] — and writes component idx of lane l's Bᵀ·d·B to
	// v[idx·stride+l], idx < 36. It may overwrite d.
	WinoIn4 func(v []S, stride int, d *[WinoLanes * 36]S)
	// WinoFilter4 is the F(4×4,3×3) filter transform U = G·g·Gᵀ of eight
	// 3×3 filters, one filter per lane, defined by internal/nn's g4Row
	// stencil as WinoIn4 is by bt4Row. It takes the filters' taps
	// lane-minor — tap 3·ky+kx of lane l at g[8(3·ky+kx)+l] — and writes
	// component idx of lane l's U to u[idx·stride+l], idx < 36.
	WinoFilter4 func(u []S, stride int, g *[WinoLanes * 9]S)
	// WinoOut4 is the F(4×4,3×3) output transform Aᵀ·M·A of eight tiles
	// of one output channel, plus bias, then ReLU when relu is set (a
	// negative sum becomes +0; NaN and −0 pass), one tile per lane,
	// defined by internal/nn's at4Row stencil. It reads component idx of
	// lane l's M from m[idx·stride+l], idx < 36, and writes output 4·r+c
	// of lane l's 4×4 tile to y[8(4·r+c)+l]; the last 64 floats of y are
	// its scratch.
	WinoOut4 func(y *[WinoLanes * 24]S, m []S, stride int, bias S, relu bool)
}

// WinoLanes is the number of tiles or filters the FloatOps.Wino* entries
// transform per call: one YMM register of float32 lanes.
const WinoLanes = 8

// Int8Ops is the kernel table for the quantized kind. One entry point
// covers every quantized layer: a direct u8×s8 convolution over NHWC
// activations with int32 accumulators, which 3×3 conv, 1×1 conv, the
// up-conv taps and the head all call (GemmU8S8 in qconv.go adapts a plain
// matrix product onto it).
//
// Layout. A pixel's input window is a number (runs) of byte runs, each
// runLen bytes (a multiple of 4) and runStride apart; neighbouring
// pixels' windows start pxStride apart. In a halo-padded NHWC buffer a
// 3×3 window is three such runs (one per kernel row, 3·C bytes each, a
// buffer row apart) and a 1×1 window is one; overlapping windows are
// read in place, nothing is gathered.
// Weights are PackInt8Weights' [k/4][ocPad][4] with k = runs·runLen in
// run order, so every group of four activation bytes meets all ocPad
// output channels' matching four weights side by side — SIMD backends
// keep one output channel per lane and never sum across lanes.
// Accumulators land pixel-major, acc[p·ocPad+oc], so the caller's
// epilogue reads and writes contiguously.
//
// The requantization epilogue that follows the sums is the table's second
// entry, RequantRow. It rounds, so unlike the sums it is not exact "in any
// order": RequantClamp is its definition, the scalar loop RequantClampRow
// its reference, and a backend that vectorises it must reproduce that
// loop bit for bit (TestRequantRowConformance sweeps every shift, the
// multiplier range and wrapping acc+bias sums).
type Int8Ops struct {
	Name string
	// Priority orders selection: the highest-priority Available backend
	// is active by default.
	Priority int
	// Available reports whether this backend can run on this host
	// (e.g. CPU feature detection); nil means always.
	Available func() bool
	// ConvU8S8 computes, for p in [0,npx) and oc in [0,ocPad),
	//
	//	acc[p·ocPad+oc] = Σ_{r<runs} Σ_{i<runLen} x[p·pxStride+r·runStride+i] · w(r·runLen+i, oc)
	//
	// with w(t, oc) the signed byte packed[(t/4·ocPad+oc)·4+t%4], exact in
	// int32 (callers guarantee activations ≤ QuantMax and a total dot
	// length within Int8AccumBoundTaps). With add the sums continue from
	// the values already in acc instead of zero — how a layer over two
	// sources (the decoder's virtual concat) accumulates the second.
	// runLen is a multiple of 4, ocPad of 8; npx = 0 and runs·runLen = 0
	// are legal.
	ConvU8S8 func(acc []int32, x []uint8, w []byte, npx, pxStride, runs, runLen, runStride, ocPad int, add bool)
	// RequantRow is the epilogue over a row of npx pixels: for p in
	// [0,npx) and every lane c of t,
	//
	//	dst[p·dstStep+c] = RequantClamp(acc[p·accStep+c]+bias_c, r_c, z)
	//
	// with the int32 sum wrapping. It writes no other byte of dst — a
	// QConvT tap's pixels alternate with its neighbour tap's. npx = 0 and
	// an empty table are legal. A backend that leaves it nil inherits the
	// scalar loop (RequantClampRow).
	RequantRow func(dst []uint8, dstStep int, acc []int32, accStep, npx int, t *RequantTable, z uint8)
}

// floatRegistry holds the registered backends of one float kind.
type floatRegistry[S Scalar] struct {
	mu     sync.Mutex
	all    []*FloatOps[S]
	active atomic.Pointer[FloatOps[S]]
}

func (r *floatRegistry[S]) register(ops *FloatOps[S]) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ops.MatMulInto == nil {
		ops.MatMulInto = engineMatMulInto[S]
	}
	if ops.MatMulATBInto == nil {
		ops.MatMulATBInto = engineMatMulATBInto[S]
	}
	r.all = append(r.all, ops)
	best := r.active.Load()
	if ops.available() && (best == nil || ops.Priority > best.Priority) {
		r.active.Store(ops)
	}
}

func (r *floatRegistry[S]) sel(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for _, b := range r.all {
		if b.Name == name {
			if !b.available() {
				return fmt.Errorf("tensor: %T backend %q not available on this host", *new(S), name)
			}
			r.active.Store(b)
			return nil
		}
		names = append(names, b.Name)
	}
	return fmt.Errorf("tensor: unknown %T backend %q (have %v)", *new(S), name, names)
}

func (o *FloatOps[S]) available() bool { return o.Available == nil || o.Available() }

var (
	f64Registry floatRegistry[float64]
	f32Registry floatRegistry[float32]

	int8Mu       sync.Mutex
	int8Backends []*Int8Ops
	int8Active   atomic.Pointer[Int8Ops]
)

// registryOf returns the backend registry of S's kind.
func registryOf[S Scalar]() *floatRegistry[S] {
	if IsF32[S]() {
		return any(&f32Registry).(*floatRegistry[S])
	}
	return any(&f64Registry).(*floatRegistry[S])
}

// Float returns the active backend table for S's kind; one is always
// registered (the engine, from init below).
func Float[S Scalar]() *FloatOps[S] { return registryOf[S]().active.Load() }

// RegisterFloat adds a backend for S's kind. The highest-priority
// available backend becomes active.
func RegisterFloat[S Scalar](ops *FloatOps[S]) { registryOf[S]().register(ops) }

// SelectFloat activates the named backend of S's kind; it must be
// registered and available. It is the test and benchmark hook for A/B-ing
// backends — there is deliberately no flag or environment override,
// because float backends are bit-identical and the fastest available one
// always serves. Callers serialize around it like SelectInt8 users.
func SelectFloat[S Scalar](name string) error { return registryOf[S]().sel(name) }

// RegisterInt8 adds a quantized-kernel backend. The highest-priority
// available backend becomes active.
func RegisterInt8(ops *Int8Ops) {
	int8Mu.Lock()
	defer int8Mu.Unlock()
	if ops.RequantRow == nil {
		ops.RequantRow = requantRowRef
	}
	int8Backends = append(int8Backends, ops)
	best := int8Active.Load()
	if ops.available() && (best == nil || ops.Priority > best.Priority) {
		int8Active.Store(ops)
	}
}

func (o *Int8Ops) available() bool { return o.Available == nil || o.Available() }

// Int8 returns the active quantized-kernel backend.
func Int8() *Int8Ops { return int8Active.Load() }

// SelectInt8 activates the named int8 backend; it must be registered and
// available. Like SelectFloat it is the test and benchmark hook for
// A/B-ing backends, with deliberately no flag or environment override:
// int8 backends are bit-identical and the fastest available one serves.
func SelectInt8(name string) error {
	int8Mu.Lock()
	defer int8Mu.Unlock()
	for _, b := range int8Backends {
		if b.Name == name {
			if !b.available() {
				return fmt.Errorf("tensor: int8 backend %q not available on this host", name)
			}
			int8Active.Store(b)
			return nil
		}
	}
	return fmt.Errorf("tensor: unknown int8 backend %q (have %v)", name, int8BackendNamesLocked())
}

// Int8BackendNames lists the registered int8 backends, available first
// by priority, then unavailable ones, names sorted within each group.
func Int8BackendNames() []string {
	int8Mu.Lock()
	defer int8Mu.Unlock()
	return int8BackendNamesLocked()
}

// int8BackendNamesLocked is Int8BackendNames with int8Mu already held.
func int8BackendNamesLocked() []string {
	names := make([]string, 0, len(int8Backends))
	sort.Slice(int8Backends, func(i, j int) bool {
		a, b := int8Backends[i], int8Backends[j]
		if aa, ba := a.available(), b.available(); aa != ba {
			return aa
		}
		if a.Priority != b.Priority {
			return a.Priority > b.Priority
		}
		return a.Name < b.Name
	})
	for _, b := range int8Backends {
		names = append(names, b.Name)
	}
	return names
}

// The float engine (matmul.go) registers itself as the reference backend
// of both float kinds. Registering here — rather than dispatching ad hoc —
// is what makes the seam load-bearing: MatMulInto, MatMulSerialInto and
// GemmSerial all resolve through the table, so the AVX2 float32 panel
// plugs in the same way the int8 backends do.
func init() {
	RegisterFloat(&FloatOps[float64]{Name: "engine", Panel: matMulPanel[float64]})
	RegisterFloat(&FloatOps[float32]{Name: "engine", Panel: matMulPanel[float32]})
}

// Package chaos is the deterministic fault-injection subsystem behind
// the repository's elastic fault-tolerance stack. Production-scale runs
// lose workers as a matter of course; this package turns "a worker died"
// into a reproducible, seeded event so the recovery machinery in
// internal/ddp (replica crash + heal), internal/pipeline (stage retry),
// and internal/serve (worker restart) can be tested for *provable*
// recovery — the bit-identity invariants in ARCHITECTURE.md are asserted
// against schedules built here.
//
// A Schedule is parsed from a compact spec (the -chaos flag of
// seaice-train and seaice-serve):
//
//	<seed>:<fault>[,<fault>...]
//	fault := kind@N[:rR][:dur]
//
//	crash@N[:rR]      kill ddp replica R at the start of global step N
//	kill@N            kill the whole training process at step N
//	stage@N           panic the pipeline stage worker labeling scene N
//	serve@N           panic the serve inference worker on batch pickup N
//	stall@N[:rR][:D]  delay replica R by D (default 10ms) at step N
//
// Network faults target the TCP transport (internal/transport) under
// multi-process training; they are delivered by rank R's own process at
// exact step boundaries (part, reconn) or at the next frame send during
// step N (slow, drop):
//
//	part@N[:rR]       partition rank R at step N: both ring links drop
//	reconn@N[:rR]     close rank R's outbound link at step N (forces redial)
//	drop@N[:rR]       silently drop rank R's next outgoing frame in step N
//	slow@N[:rR][:D]   delay rank R's next frame send in step N by D (default 10ms)
//
// The overload fault targets the serve plane; it fires in a
// seaice-serve process at batch-pickup ordinal N:
//
//	slownode@N[:rR][:D]  degrade node R from pickup N on: every batch +D (default 10ms)
//
// Data faults model silent corruption — bytes or floats going bad
// without any process dying. Each is caught by a matching integrity
// layer (CRC32C frame trailers, checksummed checkpoints, numeric
// guards, scene validation) and recovered from deterministically:
//
//	bitflip@N[:rR]    flip one bit in rank R's next outgoing frame in step N
//	nanstep@N[:rR]    poison rank R's gradient vector with NaN at step N
//	badscene@K        corrupt scene K's raster bytes before the label stage
//	torn@N            truncate the checkpoint written at step N mid-write
//
// Omitted targets are drawn from the schedule seed, so "7:crash@3" names
// one concrete fault, not a random one. Example:
//
//	seaice-train -workers 4 -chaos "7:crash@3:r1,stall@5:r2:50ms,crash@9"
//
// Determinism guarantees: every fault fires exactly once (one-shot), at
// an exact boundary — a (rank, step) pair for training, a scene index
// for the pipeline, a batch-pickup ordinal for serving — never "after
// roughly t seconds". The same spec therefore produces the same fault
// sequence on any host at any parallelism, which is what lets the
// recovery tests compare a chaos run byte-for-byte against an
// undisturbed one.
package chaos

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"seaice/internal/noise"
)

// Kind enumerates the fault types the injector can deliver.
type Kind uint8

const (
	// ReplicaCrash kills one ddp replica at a global-step boundary.
	ReplicaCrash Kind = iota
	// ProcessKill aborts the whole training run at a step boundary
	// (recovery is a restart resuming from the last snapshot).
	ProcessKill
	// StagePanic panics the pipeline stage worker processing one scene.
	StagePanic
	// ServePanic panics a serve inference worker as it picks up a batch.
	ServePanic
	// Straggler delays one replica at a step boundary without killing it.
	Straggler
	// NetPartition drops both of one rank's ring links at a step
	// boundary — the network analogue of ReplicaCrash: peers detect it
	// as connection errors (*ring.RankError) and the step is retried
	// after the ring re-establishes.
	NetPartition
	// SlowLink delays one rank's next outgoing frame during a step —
	// the network straggler (wall clock only; results unaffected).
	SlowLink
	// DropFrame silently discards one rank's next outgoing frame during
	// a step; the receiver detects the loss by read deadline.
	DropFrame
	// Reconnect closes one rank's outbound ring link at a step
	// boundary, exercising the dial-retry/backoff path.
	Reconnect
	// SlowNode degrades one serve node's service time: from batch-pickup
	// N onward, every batch on the node is delayed by D (default 10ms).
	// Unlike ServePanic it models a sick-but-alive node — the case
	// health binaries miss and EWMA detectors catch.
	SlowNode
	// Bitflip flips one bit in rank R's next outgoing transport frame
	// during step N — a silent in-flight corruption. The CRC32C frame
	// trailer detects it on the receiving side, which surfaces a
	// *ring.RankError and drives the normal rollback-and-retry recovery.
	Bitflip
	// NaNStep poisons one rank's flattened gradient vector with NaN just
	// before the step-N all-reduce. NaN propagates through the reduction,
	// so every rank's numeric guard sees the same non-finite reduced
	// vector and rolls the step back in lockstep (train.GuardConfig).
	NaNStep
	// BadScene corrupts scene K's bytes before the label stage — the
	// corrupt-granule fault. Scene validation detects the poison and the
	// per-scene retry (or quarantine) path handles it.
	BadScene
	// TornWrite truncates the snapshot/shard checkpoint written at step N
	// mid-write — a torn write the checksummed on-disk format detects at
	// load, falling back to the previous rotation entry.
	TornWrite
)

// String names the kind with its spec keyword.
func (k Kind) String() string {
	switch k {
	case ReplicaCrash:
		return "crash"
	case ProcessKill:
		return "kill"
	case StagePanic:
		return "stage"
	case ServePanic:
		return "serve"
	case Straggler:
		return "stall"
	case NetPartition:
		return "part"
	case SlowLink:
		return "slow"
	case DropFrame:
		return "drop"
	case Reconnect:
		return "reconn"
	case SlowNode:
		return "slownode"
	case Bitflip:
		return "bitflip"
	case NaNStep:
		return "nanstep"
	case BadScene:
		return "badscene"
	case TornWrite:
		return "torn"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// defaultStall is the straggler delay when the spec omits one.
const defaultStall = 10 * time.Millisecond

// Fault is one scheduled failure.
type Fault struct {
	Kind Kind
	// Step is the boundary ordinal the fault fires at: a global training
	// step (crash/kill/stall), a scene index (stage), or a batch-pickup
	// ordinal counted from 0 (serve).
	Step int
	// Target is the victim rank for crash/stall; -1 means "derive from
	// the schedule seed when the rank domain is known" (Injector.New).
	Target int
	// Delay is the straggler duration; zero means defaultStall.
	Delay time.Duration
}

// Schedule is a parsed, seeded fault plan.
type Schedule struct {
	Seed   uint64
	Faults []Fault
}

// Parse reads the -chaos spec format documented in the package comment.
// An empty spec returns (nil, nil): chaos disabled.
func Parse(spec string) (*Schedule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	head, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return nil, fmt.Errorf("chaos: spec %q missing ':' after seed (want <seed>:<fault>,...)", spec)
	}
	seed, err := strconv.ParseUint(head, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("chaos: bad seed %q: %w", head, err)
	}
	s := &Schedule{Seed: seed}
	for _, part := range strings.Split(rest, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f, err := parseFault(part)
		if err != nil {
			return nil, err
		}
		s.Faults = append(s.Faults, f)
	}
	if len(s.Faults) == 0 {
		return nil, fmt.Errorf("chaos: spec %q names no faults", spec)
	}
	return s, nil
}

// parseFault reads one kind@N[:rR][:dur] clause.
func parseFault(part string) (Fault, error) {
	kindStr, rest, ok := strings.Cut(part, "@")
	if !ok {
		return Fault{}, fmt.Errorf("chaos: fault %q missing '@step'", part)
	}
	f := Fault{Target: -1}
	switch kindStr {
	case "crash":
		f.Kind = ReplicaCrash
	case "kill":
		f.Kind = ProcessKill
	case "stage":
		f.Kind = StagePanic
	case "serve":
		f.Kind = ServePanic
	case "stall":
		f.Kind = Straggler
	case "part":
		f.Kind = NetPartition
	case "slow":
		f.Kind = SlowLink
	case "drop":
		f.Kind = DropFrame
	case "reconn":
		f.Kind = Reconnect
	case "slownode":
		f.Kind = SlowNode
	case "bitflip":
		f.Kind = Bitflip
	case "nanstep":
		f.Kind = NaNStep
	case "badscene":
		f.Kind = BadScene
	case "torn":
		f.Kind = TornWrite
	default:
		return Fault{}, fmt.Errorf("chaos: unknown fault kind %q (want crash|kill|stage|serve|stall|part|slow|drop|reconn|slownode|bitflip|nanstep|badscene|torn)", kindStr)
	}
	fields := strings.Split(rest, ":")
	step, err := strconv.Atoi(fields[0])
	if err != nil || step < 0 {
		return Fault{}, fmt.Errorf("chaos: fault %q has bad step %q", part, fields[0])
	}
	f.Step = step
	for _, field := range fields[1:] {
		switch {
		case strings.HasPrefix(field, "r"):
			r, err := strconv.Atoi(field[1:])
			if err != nil || r < 0 {
				return Fault{}, fmt.Errorf("chaos: fault %q has bad rank %q", part, field)
			}
			f.Target = r
		default:
			d, err := time.ParseDuration(field)
			if err != nil || d < 0 {
				return Fault{}, fmt.Errorf("chaos: fault %q has bad duration %q", part, field)
			}
			f.Delay = d
		}
	}
	if f.Target >= 0 && (f.Kind == ProcessKill || f.Kind == StagePanic || f.Kind == ServePanic || f.Kind == BadScene || f.Kind == TornWrite) {
		return Fault{}, fmt.Errorf("chaos: fault %q: %s faults take no rank target", part, f.Kind)
	}
	switch f.Kind {
	case Straggler, SlowLink, SlowNode:
		// Duration-bearing kinds.
	default:
		if f.Delay > 0 {
			return Fault{}, fmt.Errorf("chaos: fault %q: only stall, slow, and slownode faults take a duration", part)
		}
	}
	return f, nil
}

// Event records one delivered fault for logs and assertions.
type Event struct {
	Kind   Kind
	Step   int
	Target int
}

// String renders the event in spec-like form.
func (e Event) String() string {
	s := fmt.Sprintf("%s@%d", e.Kind, e.Step)
	if e.Target >= 0 {
		s += fmt.Sprintf(":r%d", e.Target)
	}
	return s
}

// Injector delivers a schedule's faults, each exactly once. A nil
// *Injector is valid and never fires, so instrumented call sites need no
// nil checks. All methods are safe for concurrent use.
type Injector struct {
	mu      sync.Mutex
	faults  []Fault
	fired   []bool
	pickups int // serve batch-pickup counter
	// slowBatch is the latched slow-node delay: once a slownode fault's
	// pickup is reached the process stays degraded (every subsequent
	// batch delayed) — a sick-but-alive node, not a one-shot hiccup.
	slowBatch time.Duration
	log       []Event
}

// New resolves a schedule into an injector. ranks is the rank domain for
// auto-targeted (Target < 0) crash/stall faults: each draws its victim
// from the schedule seed, one independent stream per fault index, so the
// same spec always names the same victims. ranks <= 0 resolves
// auto-targets to rank 0. A nil schedule returns a nil injector (chaos
// disabled).
func New(s *Schedule, ranks int) *Injector {
	if s == nil {
		return nil
	}
	in := &Injector{
		faults: make([]Fault, len(s.Faults)),
		fired:  make([]bool, len(s.Faults)),
	}
	copy(in.faults, s.Faults)
	for i := range in.faults {
		f := &in.faults[i]
		if f.Target >= 0 || !rankTargeted(f.Kind) {
			continue
		}
		if ranks <= 1 {
			f.Target = 0
			continue
		}
		f.Target = noise.NewRNG(s.Seed, uint64(i)+0xc4a05).Intn(ranks)
	}
	return in
}

// rankTargeted reports whether the kind names a victim rank (and so
// participates in seed-derived auto-targeting).
func rankTargeted(k Kind) bool {
	switch k {
	case ReplicaCrash, Straggler, NetPartition, SlowLink, DropFrame, Reconnect, SlowNode, Bitflip, NaNStep:
		return true
	}
	return false
}

// fire marks fault i delivered and logs it. Callers hold in.mu.
func (in *Injector) fire(i int) {
	in.fired[i] = true
	in.log = append(in.log, Event{
		Kind: in.faults[i].Kind, Step: in.faults[i].Step,
		Target: in.faults[i].Target,
	})
}

// ReplicaCrash reports whether replica rank should die at the start of
// global step. The matching fault fires at most once.
func (in *Injector) ReplicaCrash(rank, step int) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, f := range in.faults {
		if !in.fired[i] && f.Kind == ReplicaCrash && f.Step == step && f.Target == rank {
			in.fire(i)
			return true
		}
	}
	return false
}

// ProcessKill reports whether the whole run should abort at the start of
// global step.
func (in *Injector) ProcessKill(step int) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, f := range in.faults {
		if !in.fired[i] && f.Kind == ProcessKill && f.Step == step {
			in.fire(i)
			return true
		}
	}
	return false
}

// StagePanic reports whether the pipeline stage worker should panic
// while processing the given scene index.
func (in *Injector) StagePanic(scene int) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, f := range in.faults {
		if !in.fired[i] && f.Kind == StagePanic && f.Step == scene {
			in.fire(i)
			return true
		}
	}
	return false
}

// ServePanic reports whether the serve worker picking up the next batch
// should panic. Pickups are counted from 0 across the whole scheduler,
// so serve@N names the Nth batch dispatch.
func (in *Injector) ServePanic() bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	pickup := in.pickups
	in.pickups++
	for i, f := range in.faults {
		if !in.fired[i] && f.Kind == ServePanic && f.Step == pickup {
			in.fire(i)
			return true
		}
	}
	return false
}

// ServeBatch is the serve scheduler's per-batch-pickup query, combining
// the one-shot worker panic (serve@N, exactly as ServePanic reports it)
// with the durable slow-node degradation: the first pickup at or past a
// slownode fault's step fires it and latches its delay, and every
// subsequent batch — including this one — reports that delay. The two
// kinds share one pickup counter, so a spec mixing serve@ and slownode@
// ordinals reads consistently.
func (in *Injector) ServeBatch() (panicNow bool, slow time.Duration) {
	if in == nil {
		return false, 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	pickup := in.pickups
	in.pickups++
	for i, f := range in.faults {
		if in.fired[i] {
			continue
		}
		switch f.Kind {
		case ServePanic:
			if f.Step == pickup {
				in.fire(i)
				panicNow = true
			}
		case SlowNode:
			if f.Step <= pickup {
				in.fire(i)
				if f.Delay > 0 {
					in.slowBatch = f.Delay
				} else {
					in.slowBatch = defaultStall
				}
			}
		}
	}
	return panicNow, in.slowBatch
}

// fireRankStep delivers the first pending fault of kind k targeting
// (rank, step) and reports whether one fired.
func (in *Injector) fireRankStep(k Kind, rank, step int) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, f := range in.faults {
		if !in.fired[i] && f.Kind == k && f.Step == step && f.Target == rank {
			in.fire(i)
			return true
		}
	}
	return false
}

// Partition reports whether rank's ring links should drop at the start
// of global step — the transport consumes it at its step boundary.
func (in *Injector) Partition(rank, step int) bool {
	return in.fireRankStep(NetPartition, rank, step)
}

// Reconnect reports whether rank should close its outbound ring link at
// the start of global step, forcing a redial with backoff.
func (in *Injector) Reconnect(rank, step int) bool {
	return in.fireRankStep(Reconnect, rank, step)
}

// DropFrame reports whether rank's next outgoing frame during global
// step should be silently discarded — queried per send, so the fault
// consumes exactly one frame.
func (in *Injector) DropFrame(rank, step int) bool {
	return in.fireRankStep(DropFrame, rank, step)
}

// Bitflip reports whether one bit of rank's next outgoing transport
// frame during global step should be flipped — queried per send, so the
// fault corrupts exactly one frame. The receiver's CRC32C trailer check
// turns the silent corruption into a loud *ring.RankError.
func (in *Injector) Bitflip(rank, step int) bool {
	return in.fireRankStep(Bitflip, rank, step)
}

// NaNStep reports whether rank should poison its local flattened
// gradient vector with NaN at the given global step, before the
// all-reduce — so every rank's numeric guard trips on the same reduced
// vector and the step rolls back deterministically.
func (in *Injector) NaNStep(rank, step int) bool {
	return in.fireRankStep(NaNStep, rank, step)
}

// BadScene reports whether the given scene's bytes should be corrupted
// before the label stage — the pipeline's scene validation must catch
// the poison and retry (or quarantine) the scene.
func (in *Injector) BadScene(scene int) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, f := range in.faults {
		if !in.fired[i] && f.Kind == BadScene && f.Step == scene {
			in.fire(i)
			return true
		}
	}
	return false
}

// TornWrite reports whether the snapshot/shard checkpoint being written
// at the given step (or shard) ordinal should be truncated mid-write —
// the checksummed on-disk format detects the tear at load.
func (in *Injector) TornWrite(step int) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, f := range in.faults {
		if !in.fired[i] && f.Kind == TornWrite && f.Step == step {
			in.fire(i)
			return true
		}
	}
	return false
}

// SlowLink returns how long rank's next frame send during global step
// should be delayed (0 = no slow link scheduled).
func (in *Injector) SlowLink(rank, step int) time.Duration {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, f := range in.faults {
		if !in.fired[i] && f.Kind == SlowLink && f.Step == step && f.Target == rank {
			in.fire(i)
			if f.Delay > 0 {
				return f.Delay
			}
			return defaultStall
		}
	}
	return 0
}

// StragglerDelay returns how long replica rank should stall at the start
// of global step (0 = no stall scheduled).
func (in *Injector) StragglerDelay(rank, step int) time.Duration {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, f := range in.faults {
		if !in.fired[i] && f.Kind == Straggler && f.Step == step && f.Target == rank {
			in.fire(i)
			if f.Delay > 0 {
				return f.Delay
			}
			return defaultStall
		}
	}
	return 0
}

// Events returns a copy of the delivered-fault log, in delivery order.
func (in *Injector) Events() []Event {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Event, len(in.log))
	copy(out, in.log)
	return out
}

// Count reports how many faults of the given kind the schedule holds
// (delivered or not) — callers size retry budgets from it.
func (in *Injector) Count(k Kind) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, f := range in.faults {
		if f.Kind == k {
			n++
		}
	}
	return n
}

// Remaining counts faults not yet delivered — recovery tests assert it
// reaches zero, proving the schedule was exercised rather than dodged.
func (in *Injector) Remaining() int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for _, fired := range in.fired {
		if !fired {
			n++
		}
	}
	return n
}

// Pending lists undelivered faults sorted by step — cmds print it when a
// run ends with faults left over (usually a schedule outliving the run).
func (in *Injector) Pending() []Fault {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var out []Fault
	for i, fired := range in.fired {
		if !fired {
			out = append(out, in.faults[i])
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Step < out[b].Step })
	return out
}

package train

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"seaice/internal/tensor"
)

// GuardPolicy selects what a numeric-anomaly guard does after an
// anomalous step has been rolled back and retried once without clearing.
type GuardPolicy int

const (
	// GuardOff disables the guard: gradients are applied unchecked.
	GuardOff GuardPolicy = iota
	// GuardSkip drops the poisoned update (weights untouched) and
	// continues with the next batch — degraded but alive, counted in
	// stats. The retry-first contract still holds: transient corruption
	// (an injected NaN, a flipped bit healed upstream) never skips,
	// because the rolled-back retry comes out clean.
	GuardSkip
	// GuardAbort stops training with a typed *AnomalyError once the
	// retry reproduces the anomaly — the fail-fast policy for runs where
	// a silently skipped batch is worse than a dead job.
	GuardAbort
)

// String names the policy with its -guard keyword.
func (p GuardPolicy) String() string {
	switch p {
	case GuardOff:
		return "off"
	case GuardSkip:
		return "skip"
	case GuardAbort:
		return "abort"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// GuardConfig is the per-step numeric anomaly guard over the flattened
// gradient vector. The ddp trainers run CheckGrads on the already-
// reduced vector each step: every rank scans identical bytes with
// identical serial float64 arithmetic, so all ranks reach the same
// verdict with no extra coordination. On anomaly the step is rolled
// back via the per-rank RNG-rewind machinery and retried once; an
// anomaly that survives the retry is deterministic in (weights, batch,
// RNG) and is handled by Policy.
type GuardConfig struct {
	// Policy enables the guard; GuardOff (the zero value) disables it.
	Policy GuardPolicy
	// MaxNorm, when > 0, additionally flags a gradient whose L2 norm
	// exceeds it — the exploding-gradient tripwire. 0 checks finiteness
	// only.
	MaxNorm float64
}

// Enabled reports whether the guard runs at all.
func (g GuardConfig) Enabled() bool { return g.Policy != GuardOff }

// ParseGuard reads a -guard flag value: "off" (or empty), or
// "skip"/"abort" with an optional ":N" max-norm suffix, e.g.
// "skip", "abort", "skip:1e3".
func ParseGuard(spec string) (GuardConfig, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "off" {
		return GuardConfig{}, nil
	}
	head, norm, hasNorm := strings.Cut(spec, ":")
	var g GuardConfig
	switch head {
	case "skip":
		g.Policy = GuardSkip
	case "abort":
		g.Policy = GuardAbort
	default:
		return GuardConfig{}, fmt.Errorf("train: guard policy %q (want off|skip|abort[:maxnorm])", head)
	}
	if hasNorm {
		v, err := strconv.ParseFloat(norm, 64)
		if err != nil || v <= 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			return GuardConfig{}, fmt.Errorf("train: guard max-norm %q must be a positive number", norm)
		}
		g.MaxNorm = v
	}
	return g, nil
}

// AnomalyError reports a numeric anomaly the guard refused to apply.
type AnomalyError struct {
	// Step is the global step whose gradient tripped the guard.
	Step int
	// Reason describes the trip: a non-finite element or a norm bound.
	Reason string
	// Norm is the gradient L2 norm at the trip (NaN/Inf for non-finite
	// gradients).
	Norm float64
}

func (e *AnomalyError) Error() string {
	return fmt.Sprintf("train: numeric anomaly at step %d: %s (grad norm %g)", e.Step, e.Reason, e.Norm)
}

// CheckGrads scans one flattened gradient vector and returns a non-nil
// *AnomalyError if any element is NaN/±Inf or the L2 norm exceeds
// MaxNorm. The scan is serial float64 arithmetic over the vector in
// order, so identical bytes always produce the identical verdict —
// the property that keeps distributed ranks in lockstep.
func CheckGrads[S tensor.Scalar](g GuardConfig, step int, flat []S) *AnomalyError {
	if !g.Enabled() {
		return nil
	}
	sumsq := 0.0
	for i, v := range flat {
		f := float64(v)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return &AnomalyError{Step: step, Reason: fmt.Sprintf("non-finite gradient element at index %d", i), Norm: f}
		}
		sumsq += float64(f * f)
	}
	norm := math.Sqrt(sumsq)
	if g.MaxNorm > 0 && norm > g.MaxNorm {
		return &AnomalyError{Step: step, Reason: fmt.Sprintf("gradient norm exceeds bound %g", g.MaxNorm), Norm: norm}
	}
	return nil
}

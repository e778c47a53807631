package serve

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"seaice/internal/raster"
	"seaice/internal/unet"
)

// Precisions lists the precision rungs the serving stack understands, in
// descending cost order. These are the only values -precision flags and
// Registry.Load accept.
var Precisions = []string{"f64", "f32", "int8"}

// UnknownPrecisionError is the typed rejection for a precision name
// outside Precisions — CLI flag validation and Registry.Load both return
// it so callers can branch with errors.As.
type UnknownPrecisionError struct {
	Precision string
}

func (e *UnknownPrecisionError) Error() string {
	return fmt.Sprintf("serve: unknown precision %q (valid: %s)", e.Precision, strings.Join(Precisions, ", "))
}

// ParsePrecision normalizes a precision flag value to its canonical rung
// name, accepting the spelled-out aliases ("float64", "float32"). Any
// other value returns *UnknownPrecisionError.
func ParsePrecision(s string) (string, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "f64", "float64":
		return "f64", nil
	case "f32", "float32":
		return "f32", nil
	case "int8":
		return "int8", nil
	}
	return "", &UnknownPrecisionError{Precision: s}
}

// Registry holds the engines the service can classify with, keyed by
// name. Engines are precision-agnostic (unet.Engine): one registry can
// mix f64, f32, and int8 models. The first engine registered becomes the
// default (requests that name no model use it). Loading and lookup are
// safe for concurrent use; the engines themselves are only ever read
// after registration.
type Registry struct {
	mu     sync.RWMutex
	models map[string]unet.Engine
	def    string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{models: make(map[string]unet.Engine)}
}

// Add registers an in-memory engine under name.
func (r *Registry) Add(name string, e unet.Engine) error {
	if name == "" {
		return fmt.Errorf("serve: empty model name")
	}
	if e == nil {
		return fmt.Errorf("serve: model %q: nil engine", name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.models[name]; dup {
		return fmt.Errorf("serve: model %q already registered", name)
	}
	r.models[name] = e
	if r.def == "" {
		r.def = name
	}
	return nil
}

// Load reads a checkpoint file at the requested precision and registers
// it under name. See LoadEngine for the precision semantics.
func (r *Registry) Load(name, path, precision string) error {
	e, err := LoadEngine(path, precision)
	if err != nil {
		if _, unknown := err.(*UnknownPrecisionError); unknown {
			return err
		}
		return fmt.Errorf("serve: model %q: %w", name, err)
	}
	return r.Add(name, e)
}

// LoadEngine reads a checkpoint file at the requested precision in one
// unet read. "f64"/"f32" load any model checkpoint — a quantized one's
// float64 master included; "int8" needs a quantized checkpoint, whose
// calibrated table rebuilds the integer model deterministically. An
// unrecognized precision is rejected with *UnknownPrecisionError before
// the file is touched.
func LoadEngine(path, precision string) (unet.Engine, error) {
	p, err := ParsePrecision(precision)
	if err != nil {
		return nil, err
	}
	switch p {
	case "f64":
		return loadFloat[float64](path)
	case "f32":
		return loadFloat[float32](path)
	}
	qm, err := unet.LoadQuantizedFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (int8 serving needs a quantized checkpoint; produce one with seaice-train -quantize)", err)
	}
	return qm, nil
}

// loadFloat loads a float engine; a failed load is a nil Engine, not a
// nil *unet.Model inside one.
func loadFloat[S interface{ float32 | float64 }](path string) (unet.Engine, error) {
	m, err := unet.LoadFile[S](path)
	if err != nil {
		return nil, err
	}
	return m, nil
}

// Get resolves an engine by name; the empty string selects the default.
func (r *Registry) Get(name string) (unet.Engine, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		name = r.def
	}
	e, ok := r.models[name]
	if !ok {
		return nil, fmt.Errorf("serve: unknown model %q", name)
	}
	return e, nil
}

// Names lists registered model names in sorted order.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.models))
	for n := range r.models {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Default returns the default model's name ("" when empty).
func (r *Registry) Default() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.def
}

// Warm verifies every registered engine can serve the given tile size
// and runs one throwaway batch per engine, pre-faulting weight memory
// and catching broken checkpoints at startup instead of on the first
// request. (Worker sessions still grow their own activation buffers on
// their first batch; that cost is per worker and unavoidable here.)
func (r *Registry) Warm(tileSize int) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	tile := raster.NewRGB(tileSize, tileSize)
	for name, e := range r.models {
		if tileSize%e.Config().MinInputSize() != 0 {
			return fmt.Errorf("serve: model %q needs tile sizes divisible by %d, serving %d",
				name, e.Config().MinInputSize(), tileSize)
		}
		if _, err := e.NewPredictor().PredictTiles([]*raster.RGB{tile}); err != nil {
			return fmt.Errorf("serve: warm %q: %w", name, err)
		}
	}
	return nil
}

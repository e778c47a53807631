package unet

import (
	"errors"
	"fmt"
	"io"
	"os"

	"seaice/internal/record"
	"seaice/internal/tensor"
)

// ErrBadCheckpoint is the typed error every malformed-checkpoint load
// failure wraps: wrong magic or version, a torn file, a CRC mismatch,
// impossible configs, missing or mis-sized weights, a quantized load of a
// float checkpoint. Load never panics on adversarial input
// (FuzzLoadCheckpoint asserts this) — callers branch with
// errors.Is(err, ErrBadCheckpoint).
var ErrBadCheckpoint = errors.New("unet: malformed checkpoint")

// ckptRecord is the one model checkpoint format, a record (see package
// record) whose body is
//
//	config  := [Depth][BaseChannels][InChannels][Classes][DropoutRate][Seed]
//	weights := ([name][values])…       every parameter, in Params() order
//	acts    := [count]([stage][scale][zero])…   RequiredStages order
//
// Weights are float64 bit patterns: every float32 is exact in float64,
// so a float32 model round-trips bit for bit and a float64 model keeps
// full precision. acts is empty for a float model; a quantized model
// keeps its float64 master plus the calibrated table rather than derived
// int8 tensors, because quantization is deterministic: LoadQuantized
// rebuilds bit-identical integer tables, and Load reads the same file as
// a float model for serving, re-training or re-calibration.
var ckptRecord = record.Kind{Magic: "SEAICE-UNET-CKPT\x04", MaxBody: 1 << 32}

// encodeCheckpoint renders a model record body.
func encodeCheckpoint(cfg Config, weights map[string][]float64, acts map[string]tensor.ActQuant) []byte {
	var e record.Encoder
	e.Int(cfg.Depth)
	e.Int(cfg.BaseChannels)
	e.Int(cfg.InChannels)
	e.Int(cfg.Classes)
	e.Float64(cfg.DropoutRate)
	e.Uint64(cfg.Seed)
	for _, st := range cfg.plan() {
		if st.op != opPool {
			for _, name := range [2]string{st.name + ".weight", st.name + ".bias"} {
				e.String(name)
				e.Float64s(weights[name])
			}
		}
	}
	var stages []string
	if len(acts) > 0 {
		stages = RequiredStages(cfg)
	}
	e.Int(len(stages))
	for _, stage := range stages {
		e.String(stage)
		e.Float64(acts[stage].Scale)
		e.Byte(acts[stage].Zero)
	}
	return e.Body()
}

// checkpoint is a decoded model record.
type checkpoint struct {
	cfg     Config
	weights map[string][]float64
	acts    map[string]tensor.ActQuant // nil for a float model
}

// decodeCheckpoint reads a model record body. The config is validated
// and every parameter's name and length checked against its plan before
// anything is sized from it, so a model built from the result allocates
// no more than the body holds.
func decodeCheckpoint(body []byte) (checkpoint, error) {
	d := record.NewDecoder(body)
	ck := checkpoint{cfg: Config{
		Depth: d.Int(), BaseChannels: d.Int(), InChannels: d.Int(), Classes: d.Int(),
		DropoutRate: d.Float64(), Seed: d.Uint64(),
	}}
	if err := d.Err(); err != nil {
		return ck, err
	}
	if err := ck.cfg.Validate(); err != nil {
		return ck, err
	}
	ck.weights = make(map[string][]float64)
	for _, st := range ck.cfg.plan() {
		if st.op == opPool {
			continue
		}
		for i, name := range [2]string{st.name + ".weight", st.name + ".bias"} {
			got, w := d.String(), d.Float64s()
			want := st.outC // the bias
			if i == 0 {
				// Channel counts past len(w) cannot match it; bounding
				// them first keeps weightLen from overflowing.
				want = -1
				if st.inC <= len(w) && st.outC <= len(w) {
					want = st.weightLen()
				}
			}
			if d.Err() == nil && (got != name || len(w) != want) {
				d.Fail(fmt.Errorf("unet: parameter %q with %d values where the plan has %s", got, len(w), name))
			}
			ck.weights[name] = w
		}
	}
	if n := d.Count(8 + 8 + 1); n > 0 {
		stages := RequiredStages(ck.cfg)
		if n != len(stages) {
			d.Fail(fmt.Errorf("unet: %d activation stages, the plan has %d", n, len(stages)))
		}
		ck.acts = make(map[string]tensor.ActQuant, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			stage := d.String()
			if d.Err() == nil && stage != stages[i] {
				d.Fail(fmt.Errorf("unet: activation stage %q where the plan has %s", stage, stages[i]))
			}
			ck.acts[stage] = tensor.ActQuant{Scale: d.Float64(), Zero: d.Byte()}
		}
	}
	return ck, d.Done()
}

// readCheckpoint reads and decodes one model record; every failure
// wraps ErrBadCheckpoint.
func readCheckpoint(r io.Reader) (checkpoint, error) {
	body, err := ckptRecord.Read(r)
	var ck checkpoint
	if err == nil {
		ck, err = decodeCheckpoint(body)
	}
	if err != nil {
		return ck, fmt.Errorf("%w: %w", ErrBadCheckpoint, err)
	}
	return ck, nil
}

// Save writes the model as a float checkpoint.
func (m *Model[S]) Save(w io.Writer) error {
	return saveErr(ckptRecord.Write(w, encodeCheckpoint(m.cfg, m.WeightsF64(), nil)))
}

// SaveFile durably writes a float checkpoint file (record.WriteFile).
func (m *Model[S]) SaveFile(path string) error {
	return saveErr(ckptRecord.WriteFile(path, encodeCheckpoint(m.cfg, m.WeightsF64(), nil), false, nil))
}

// Save writes the quantized model: its master weights and activation
// table.
func (q *QuantModel) Save(w io.Writer) error {
	return saveErr(ckptRecord.Write(w, encodeCheckpoint(q.cfg, q.weights, q.acts)))
}

// SaveFile durably writes a quantized checkpoint file.
func (q *QuantModel) SaveFile(path string) error {
	return saveErr(ckptRecord.WriteFile(path, encodeCheckpoint(q.cfg, q.weights, q.acts), false, nil))
}

func saveErr(err error) error {
	if err != nil {
		return fmt.Errorf("unet: save: %w", err)
	}
	return nil
}

// Load reconstructs a model in the requested precision from a float or
// a quantized checkpoint; float64 weights are rounded when S is float32.
// Any malformed input returns an error wrapping ErrBadCheckpoint; Load
// never panics.
func Load[S tensor.Scalar](r io.Reader) (*Model[S], error) {
	ck, err := readCheckpoint(r)
	if err != nil {
		return nil, err
	}
	m, err := New[S](ck.cfg)
	if err == nil {
		err = m.SetWeightsF64(ck.weights)
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadCheckpoint, err)
	}
	return m, nil
}

// LoadFile reads a checkpoint file into the requested precision.
func LoadFile[S tensor.Scalar](path string) (*Model[S], error) { return loadFile(path, Load[S]) }

// LoadQuantized reconstructs an int8 model from a quantized checkpoint.
// Like Load, any malformed input — a float checkpoint (no activation
// table) included, and corrupt scale tables or out-of-domain zero-points
// — returns an error wrapping ErrBadCheckpoint and never panics.
func LoadQuantized(r io.Reader) (*QuantModel, error) {
	ck, err := readCheckpoint(r)
	if err == nil && ck.acts == nil {
		err = fmt.Errorf("%w: float checkpoint has no activation table", ErrBadCheckpoint)
	}
	if err != nil {
		return nil, err
	}
	qm, err := buildQuant(ck.cfg, ck.weights, ck.acts)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadCheckpoint, err)
	}
	return qm, nil
}

// LoadQuantizedFile reads a quantized checkpoint file.
func LoadQuantizedFile(path string) (*QuantModel, error) { return loadFile(path, LoadQuantized) }

func loadFile[M any](path string, load func(io.Reader) (M, error)) (M, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero M
		return zero, fmt.Errorf("unet: %w", err)
	}
	defer f.Close()
	return load(f)
}

// CopyWeightsFrom overwrites this model's parameters with src's — the
// rank-0 broadcast of Horovod-style training. The models must share a
// configuration (ignoring seeds).
func (m *Model[S]) CopyWeightsFrom(src *Model[S]) error {
	a, b := m.Params(), src.Params()
	if len(a) != len(b) {
		return fmt.Errorf("unet: parameter count mismatch %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].W.Len() != b[i].W.Len() {
			return fmt.Errorf("unet: parameter %s size mismatch", a[i].Name)
		}
		copy(a[i].W.Data, b[i].W.Data)
	}
	return nil
}

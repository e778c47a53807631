package pipeline

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"seaice/internal/dataset"
)

// TestCorruptBadSceneRetryByteIdentical asserts injected silent scene
// corruption (NaN reflectance / truncated bands) is caught by
// validation, absorbed by the per-scene retry, and the streamed product
// is byte-identical to an undisturbed run — the poisoned copy never
// reaches the label kernels, and the retry sees the source's pristine
// bytes.
func TestCorruptBadSceneRetryByteIdentical(t *testing.T) {
	src, build := chaosSource()

	clean := StreamBuilder{Config: Config{Build: build, Workers: 3, Shards: 3}}
	want, err := clean.BuildSet(src)
	if err != nil {
		t.Fatal(err)
	}

	in := injector(t, "7:badscene@1,badscene@4")
	st, err := New(src, Config{Build: build, Workers: 3, Shards: 3, Retries: 1, Chaos: in})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, err := st.Set()
	if err != nil {
		t.Fatal(err)
	}

	if in.Remaining() != 0 {
		t.Fatalf("badscene faults not delivered: %d pending", in.Remaining())
	}
	if q := st.Quarantined(); len(q) != 0 {
		t.Fatalf("retryable corruption was quarantined: %v", q)
	}
	if !bytes.Equal(setBytes(t, got), setBytes(t, want)) {
		t.Fatal("corruption-retried stream differs from undisturbed run")
	}
}

// TestCorruptBadSceneFatalWithoutQuarantine asserts a poisoned scene
// with no retry budget and quarantine off fails the stream loudly — a
// silently shrinking dataset is never the default.
func TestCorruptBadSceneFatalWithoutQuarantine(t *testing.T) {
	src, build := chaosSource()
	st, err := New(src, Config{Build: build, Workers: 2, Chaos: injector(t, "7:badscene@2")})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Set(); err == nil || !strings.Contains(err.Error(), "scene 2") {
		t.Fatalf("Set() = %v, want a scene-2 validation error", err)
	}
}

// TestCorruptQuarantineReport asserts opt-in quarantine drops a scene
// that stays poisoned through the retry budget into the report — with a
// quarantine event, a populated Quarantined() record, and the rest of
// the campaign intact — instead of failing the run.
func TestCorruptQuarantineReport(t *testing.T) {
	src, build := chaosSource()

	clean := StreamBuilder{Config: Config{Build: build, Workers: 2, Shards: 3}}
	want, err := clean.BuildSet(src)
	if err != nil {
		t.Fatal(err)
	}

	in := injector(t, "7:badscene@3")
	var mu sync.Mutex
	events := 0
	st, err := New(src, Config{
		Build: build, Workers: 2, Shards: 3, Quarantine: true, Chaos: in,
		Progress: func(ev Event) {
			if ev.Kind == "quarantine" {
				mu.Lock()
				events++
				mu.Unlock()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, err := st.Set()
	if err != nil {
		t.Fatalf("quarantined run failed: %v", err)
	}

	q := st.Quarantined()
	if len(q) != 1 || q[0].Scene != 3 {
		t.Fatalf("Quarantined() = %v, want exactly scene 3", q)
	}
	if q[0].Reason == "" {
		t.Error("quarantine record has no reason")
	}
	mu.Lock()
	if events != 1 {
		t.Errorf("quarantine events = %d, want 1", events)
	}
	mu.Unlock()
	// The quarantined scene contributes no tiles; everything else does.
	perScene := len(want.Tiles) / 6
	if len(got.Tiles) != len(want.Tiles)-perScene {
		t.Errorf("got %d tiles, want %d (campaign minus one quarantined scene)",
			len(got.Tiles), len(want.Tiles)-perScene)
	}
}

// TestCorruptQuarantineBlocksPlan asserts a training plan that needs a
// quarantined scene's tiles fails with a diagnosable error instead of
// silently training on a shrunken dataset.
func TestCorruptQuarantineBlocksPlan(t *testing.T) {
	src, build := chaosSource()
	plan := &TrainPlan{
		TrainFrac: 0.8, SplitSeed: 7,
		TestSeed: 8,
		Image:    dataset.OriginalImages, Labels: dataset.AutoLabels,
		BatchSize: 4, BatchSeed: 7,
	}
	st, err := New(src, Config{
		Build: build, Workers: 2, Shards: 3, Quarantine: true, Plan: plan,
		Chaos: injector(t, "7:badscene@3"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// The 80/20 split puts scene 3's tiles on one side or the other; the
	// side that needs them must refuse.
	_, trainErr := st.TrainSamples()
	_, testErr := st.TestTiles()
	combined := errors.Join(trainErr, testErr)
	if combined == nil || !strings.Contains(combined.Error(), "quarantined") {
		t.Fatalf("plan over a quarantined scene: train=%v test=%v, want a quarantine error", trainErr, testErr)
	}
}

// TestCorruptShardCheckpointIgnored asserts a bit-flipped or torn shard
// checkpoint is detected by the CRC-framed format, treated as a cache
// miss (the shard recomputes), and the resumed product stays
// byte-identical to a never-failed run.
func TestCorruptShardCheckpointIgnored(t *testing.T) {
	src, build := chaosSource()
	dir := t.TempDir()
	cfg := Config{Build: build, Workers: 2, Shards: 3, CheckpointDir: dir}

	first, err := New(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := first.Set()
	if err != nil {
		t.Fatal(err)
	}
	first.Close()

	// Flip a byte mid-body in one shard and tear another in half.
	flip := filepath.Join(dir, "shard-0001.rec")
	b, err := os.ReadFile(flip)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x20
	if err := os.WriteFile(flip, b, 0o644); err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(dir, "shard-0002.rec")
	tb, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, tb[:len(tb)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	for _, p := range []string{flip, torn} {
		if _, _, err := VerifyShardFile(p); !errors.Is(err, ErrCorruptShard) {
			t.Fatalf("VerifyShardFile(%s) = %v, want ErrCorruptShard", filepath.Base(p), err)
		}
	}
	if _, _, err := VerifyShardFile(filepath.Join(dir, "shard-0000.rec")); err != nil {
		t.Fatalf("intact shard failed verification: %v", err)
	}

	var mu sync.Mutex
	resumes := 0
	rcfg := cfg
	rcfg.Progress = func(ev Event) {
		if ev.Kind == "resume" {
			mu.Lock()
			resumes++
			mu.Unlock()
		}
	}
	resumed, err := New(src, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer resumed.Close()
	got, err := resumed.Set()
	if err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	if resumes != 1 {
		t.Errorf("resume events = %d, want 1 (only the intact shard restores)", resumes)
	}
	mu.Unlock()
	if !bytes.Equal(setBytes(t, got), setBytes(t, want)) {
		t.Fatal("recomputed-after-corruption product differs from the clean run")
	}
}

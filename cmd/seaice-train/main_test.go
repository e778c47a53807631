package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"seaice/internal/unet"
)

// TestMain runs main instead of the tests when the child-process hook
// names a command line (see seaiceTrain).
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("SEAICE_TRAIN_TEST_ARGS"); ok {
		os.Args = append([]string{"seaice-train"}, strings.Split(args, "\x1f")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// seaiceTrain runs seaice-train with args as a child process in dir and
// returns its standard output, standard error and exit status.
func seaiceTrain(t *testing.T, dir string, args ...string) (stdout, stderr string, exit int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SEAICE_TRAIN_TEST_ARGS="+strings.Join(args, "\x1f"))
	cmd.Dir = dir
	var out, errOut strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exitErr *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exitErr):
		exit = exitErr.ExitCode()
	default:
		t.Fatalf("seaice-train %s: %v", strings.Join(args, " "), err)
	}
	return out.String(), errOut.String(), exit
}

// flagErrors are command lines seaice-train must refuse before it
// generates a scene, with the message it refuses them with.
var flagErrors = []struct {
	args []string
	want string
}{
	{[]string{"-lr", "0"}, "train: learning rate 0"},
	{[]string{"-lr", "-1"}, "train: learning rate -1"},
	{[]string{"-lr", "NaN"}, "train: learning rate NaN"},
	{[]string{"-lr", "+Inf"}, "train: learning rate +Inf"},
	{[]string{"-precision", "f16"}, `unknown precision "f16" (want f32 or f64)`},
	{[]string{"-workers", "0"}, "-workers 0: must be at least 1"},
	{[]string{"-workers", "-2"}, "-workers -2: must be at least 1"},
	{[]string{"-workers", "0", "-snapshot", "x.snap"}, "-workers 0: must be at least 1"},
	{[]string{"-epochs", "0"}, "-epochs 0: must be at least 1"},
	{[]string{"-batch", "0"}, "-batch 0: must be at least 1"},
	{[]string{"-batch", "-4", "-workers", "2"}, "-batch -4: must be at least 1"},
	{[]string{"-peers", "a:1,b:2", "-rank", "2"}, "-rank 2 outside -peers list of 2"},
	{[]string{"-peers", "a:1,b:2", "-rank", "-1"}, "-rank -1 outside -peers list of 2"},
	{[]string{"-peers", "a:1,b:2", "-workers", "3"}, "-workers 3 conflicts with 2 -peers (omit -workers in net mode)"},
	{[]string{"-resume"}, "-resume requires -snapshot <path>"},
	{[]string{"-guard", "maybe"}, `train: guard policy "maybe" (want off|skip|abort[:maxnorm])`},
	{[]string{"-guard", "skip:-1"}, `train: guard max-norm "-1" must be a positive number`},
	{[]string{"-focal", "x"}, `-focal "x": want "gamma" or "gamma:a0,a1,..." with gamma ≥ 0`},
	{[]string{"-focal", "2:1,1"}, `-focal "2:1,1": 2 alphas for 3 classes`},
	{[]string{"-chaos", "7:melt@3"}, `chaos: unknown fault kind "melt"`},
	{[]string{"-chaos", "nonsense"}, `chaos: spec "nonsense" missing ':' after seed`},
	{[]string{"-peers", "a:1,b:2", "-chaos", "7:stage@1"}, `chaos kind "stage" is in-process only and cannot be injected in -peers mode`},
	{[]string{"-state", "run", "-peers", "a:1,b:2"}, "-state is per process and cannot be combined with -peers"},
	{[]string{"-state", "run", "-quantize"}, "-state resumes a float checkpoint and cannot be combined with -quantize"},
	{[]string{"-verify-state"}, "-verify-state requires -state <dir>"},
}

// TestFlagErrors: every bad command line is refused by parseFlags with
// its message, and — run for real, as a child process executing main —
// exits 1 with that message on standard error, nothing trained and
// nothing written.
func TestFlagErrors(t *testing.T) {
	for _, tc := range flagErrors {
		name := strings.Join(tc.args, " ")
		_, err := parseFlags(tc.args, flag.ContinueOnError)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseFlags(%s) = %v, want an error containing %q", name, err, tc.want)
			continue
		}
		dir := t.TempDir() // a run that got as far as a checkpoint or -state would leave it here
		_, stderr, exit := seaiceTrain(t, dir, tc.args...)
		if exit != 1 {
			t.Errorf("seaice-train %s: exit status %d, want 1; stderr:\n%s", name, exit, stderr)
		}
		if want := "seaice-train: " + err.Error(); !strings.Contains(stderr, want) {
			t.Errorf("seaice-train %s printed\n%s\nwant %q", name, stderr, want)
		}
		if strings.Contains(stderr, "streaming") {
			t.Errorf("seaice-train %s started generating scenes:\n%s", name, stderr)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("seaice-train %s left %d files behind", name, len(left))
		}
	}
}

// TestAcceptedFlags: what parseFlags resolves for command lines it
// accepts — defaults, the world size taken from -peers, -rank ignored
// without them, and -verify-snapshot skipping every other check.
func TestAcceptedFlags(t *testing.T) {
	o, err := parseFlags(nil, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	if o.precision != "f32" || o.lr != 0.01 || o.workers != 1 || o.snapKeep != 2 || o.chaos != nil || o.focal != nil {
		t.Errorf("defaults = %+v", o)
	}
	o, err = parseFlags([]string{"-peers", "a:1, b:2,c:3", "-rank", "2", "-precision", "f64", "-chaos", "7:part@2", "-focal", "2:0.25,1,0.5", "-guard", "skip:1e3"}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	if o.workers != 3 || o.rank != 2 || len(o.peers) != 3 || o.peers[1] != "b:2" || o.chaos == nil || o.focal == nil || o.focal.Gamma != 2 {
		t.Errorf("net-mode options = %+v", o)
	}
	if o, err = parseFlags([]string{"-rank", "5"}, flag.ContinueOnError); err != nil || o.rank != 0 {
		t.Errorf("-rank without -peers: rank %d, err %v; want rank 0", o.rank, err)
	}
	if o, err = parseFlags([]string{"-verify-snapshot", "x.snap", "-lr", "-1", "-snapshot-keep", "4"}, flag.ContinueOnError); err != nil || o.snapKeep != 4 {
		t.Errorf("-verify-snapshot: keep %d, err %v; want 4 and no validation of the rest", o.snapKeep, err)
	}
	for _, tc := range []struct {
		args []string
		ckpt string
	}{
		{nil, "unet.ckpt"},
		{[]string{"-state", "run"}, filepath.Join("run", "model.ckpt")},
		{[]string{"-state", "run", "-ckpt", "m.ckpt"}, "m.ckpt"},
		{[]string{"-verify-state", "-state", "run", "-lr", "-1"}, filepath.Join("run", "model.ckpt")},
	} {
		if o, err = parseFlags(tc.args, flag.ContinueOnError); err != nil || o.ckpt != tc.ckpt {
			t.Errorf("parseFlags(%q): ckpt %q, err %v; want %q", tc.args, o.ckpt, err, tc.ckpt)
		}
	}
}

// weightsLine matches the fingerprint every training mode prints.
var weightsLine = regexp.MustCompile(`weights sha256: [0-9a-f]{64}`)

// TestStateResume drives -state through one small campaign: the first
// run trains, checkpoints its shards and writes the model, its key and
// the eval report; the same command again restores all of it and runs no
// epoch; a changed -lr retrains; and -verify-state accepts the directory
// until one byte of a shard flips. Every run prints the weights a plain
// run without -state prints.
func TestStateResume(t *testing.T) {
	dir := t.TempDir()
	campaign := []string{"-precision", "f64", "-scenes", "2", "-size", "64", "-tile", "16", "-epochs", "1", "-batch", "4", "-max-tiles", "16", "-seed", "11"}
	run := func(extra ...string) (stdout, stderr string) {
		t.Helper()
		args := append(append([]string{}, campaign...), extra...)
		stdout, stderr, exit := seaiceTrain(t, dir, args...)
		if exit != 0 {
			t.Fatalf("seaice-train %s: exit status %d; stderr:\n%s", strings.Join(args, " "), exit, stderr)
		}
		return stdout, stderr
	}
	hashOf := func(stdout string) string {
		t.Helper()
		h := weightsLine.FindString(stdout)
		if h == "" {
			t.Fatalf("no weights line in\n%s", stdout)
		}
		return h
	}

	plain, _ := run("-ckpt", "plain.ckpt")
	want := hashOf(plain)

	out, errOut := run("-state", "D")
	if got := hashOf(out); got != want {
		t.Fatalf("-state run printed %s, the plain run %s", got, want)
	}
	if !strings.Contains(errOut, "epoch 0:") {
		t.Fatalf("first -state run trained no epoch:\n%s", errOut)
	}
	report, err := os.ReadFile(filepath.Join(dir, "D", "eval.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(report, []byte("validation accuracy")) || !strings.Contains(out, string(report)) {
		t.Fatalf("eval.txt is not the printed report:\n%s\nstdout:\n%s", report, out)
	}
	shards, _ := filepath.Glob(filepath.Join(dir, "D", "shards", "shard-*.rec"))
	if len(shards) == 0 {
		t.Fatal("no shard checkpoints under D/shards")
	}
	for _, f := range []string{"model.ckpt", "model.ckpt.key"} {
		if _, err := os.Stat(filepath.Join(dir, "D", f)); err != nil {
			t.Fatal(err)
		}
	}

	out, errOut = run("-state", "D")
	if got := hashOf(out); got != want {
		t.Fatalf("resumed run printed %s, want %s", got, want)
	}
	for _, line := range []string{"resumed model from " + filepath.Join("D", "model.ckpt"), "restored from checkpoint"} {
		if !strings.Contains(errOut, line) {
			t.Errorf("resumed run did not log %q:\n%s", line, errOut)
		}
	}
	if strings.Contains(errOut, "epoch 0:") || strings.Contains(out, "checkpoint written") {
		t.Errorf("resumed run trained or rewrote the model:\n%s\n%s", errOut, out)
	}

	if _, stderr, exit := seaiceTrain(t, dir, "-verify-state", "-state", "D"); exit != 0 {
		t.Fatalf("-verify-state on an intact directory: exit status %d; stderr:\n%s", exit, stderr)
	}

	out, errOut = run("-state", "D", "-lr", "0.02")
	if !strings.Contains(errOut, "was trained with different flags") || !strings.Contains(errOut, "epoch 0:") {
		t.Errorf("-lr 0.02 did not retrain over the lr 0.01 model:\n%s", errOut)
	}
	if hashOf(out) == want {
		t.Error("-lr 0.02 printed the lr 0.01 weights")
	}

	b, err := os.ReadFile(shards[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x20
	if err := os.WriteFile(shards[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, exit := seaiceTrain(t, dir, "-verify-state", "-state", "D")
	if exit != 1 || !strings.Contains(stdout, "shard "+filepath.Base(shards[0])+": CORRUPT") {
		t.Fatalf("-verify-state after a bit flip: exit status %d, stdout:\n%s\nstderr:\n%s; want 1 naming %s",
			exit, stdout, stderr, filepath.Base(shards[0]))
	}
}

// TestGuardAtOneWorker: -guard takes effect at the default single
// worker, which trains through the same data-parallel trainer as any
// other world size. A bound every gradient exceeds aborts the run with a
// non-zero exit and no checkpoint; a guard that never trips changes no
// weight, and neither does persisting snapshots.
func TestGuardAtOneWorker(t *testing.T) {
	dir := t.TempDir()
	campaign := []string{"-scenes", "2", "-size", "64", "-tile", "16", "-epochs", "1", "-batch", "4", "-max-tiles", "16", "-seed", "11", "-workers", "1"}
	run := func(extra ...string) (stdout, stderr string, exit int) {
		t.Helper()
		return seaiceTrain(t, dir, append(append([]string{}, campaign...), extra...)...)
	}

	_, stderr, exit := run("-guard", "abort:1e-6", "-ckpt", "abort.ckpt")
	if exit == 0 || !strings.Contains(stderr, "gradient norm exceeds bound 1e-06") {
		t.Fatalf("-guard abort:1e-6: exit status %d, want non-zero with the guard's message; stderr:\n%s", exit, stderr)
	}
	if _, err := os.Stat(filepath.Join(dir, "abort.ckpt")); err == nil {
		t.Error("-guard abort:1e-6 wrote a checkpoint")
	}

	var hashes [3]string
	for i, extra := range [][]string{{"-ckpt", "plain.ckpt"}, {"-ckpt", "skip.ckpt", "-guard", "skip"}, {"-ckpt", "snap.ckpt", "-snapshot", "run.snap"}} {
		stdout, stderr, exit := run(extra...)
		if exit != 0 {
			t.Fatalf("seaice-train %s: exit status %d; stderr:\n%s", strings.Join(extra, " "), exit, stderr)
		}
		if hashes[i] = weightsLine.FindString(stdout); hashes[i] == "" {
			t.Fatalf("no weights line in\n%s", stdout)
		}
	}
	if hashes[0] != hashes[1] {
		t.Errorf("-guard skip printed %s, the unguarded run %s", hashes[1], hashes[0])
	}
	if hashes[0] != hashes[2] {
		t.Errorf("-snapshot printed %s, the plain run %s", hashes[2], hashes[0])
	}
}

// TestStateRetrainsUnreadableModel: a -state model.ckpt whose .key
// matches but which is not a readable checkpoint — here a file of an
// older format version — is a cache miss, like a corrupt shard: the run
// logs why, retrains to the same weights and exits 0 with a readable
// checkpoint in place.
func TestStateRetrainsUnreadableModel(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-state", "D", "-precision", "f64", "-scenes", "2", "-size", "64", "-tile", "16", "-epochs", "1", "-batch", "4", "-max-tiles", "16", "-seed", "5"}
	first, stderr, exit := seaiceTrain(t, dir, args...)
	if exit != 0 {
		t.Fatalf("first run: exit status %d; stderr:\n%s", exit, stderr)
	}
	ckpt := filepath.Join(dir, "D", "model.ckpt")
	if err := os.WriteFile(ckpt, []byte("SEAICE-UNET-CKPT\x02 a checkpoint of an older version"), 0o644); err != nil {
		t.Fatal(err)
	}
	again, stderr, exit := seaiceTrain(t, dir, args...)
	if exit != 0 {
		t.Fatalf("run over an unreadable model: exit status %d; stderr:\n%s", exit, stderr)
	}
	if !strings.Contains(stderr, "unsupported version 2") || !strings.Contains(stderr, "retraining") || !strings.Contains(stderr, "epoch 0:") {
		t.Fatalf("run over an unreadable model did not log the reason and retrain:\n%s", stderr)
	}
	if a, b := weightsLine.FindString(first), weightsLine.FindString(again); a == "" || a != b {
		t.Fatalf("retrained weights %q, first run %q", b, a)
	}
	if _, err := unet.LoadFile[float64](ckpt); err != nil {
		t.Fatalf("retrained model.ckpt: %v", err)
	}
}

// TestQuarantine pins what a poisoned scene does to a run: without
// -quarantine the scene's validation error fails it; with -quarantine the
// scene is dropped into the report, and the run fails only because the
// training plan needs that scene's tiles — naming it either way.
func TestQuarantine(t *testing.T) {
	campaign := []string{"-scenes", "2", "-size", "64", "-tile", "16", "-epochs", "1", "-batch", "4", "-max-tiles", "16", "-chaos", "7:badscene@1"}
	for _, tc := range []struct {
		extra      []string
		want       string
		quarantine bool
	}{
		{nil, "seaice-train: pipeline: scene 1: non-finite cloud-opacity value", false},
		{[]string{"-quarantine"}, "seaice-train: pipeline: scene 1 was quarantined but the training plan needs its tiles", true},
	} {
		dir := t.TempDir()
		_, stderr, exit := seaiceTrain(t, dir, append(append([]string{}, campaign...), tc.extra...)...)
		if exit != 1 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%q: exit status %d, stderr:\n%s\nwant 1 and %q", tc.extra, exit, stderr, tc.want)
		}
		if got := strings.Contains(stderr, "poisoned scene on shard"); got != tc.quarantine {
			t.Errorf("%q: quarantine event logged = %t, want %t:\n%s", tc.extra, got, tc.quarantine, stderr)
		}
		if strings.Contains(stderr, "epoch 0:") {
			t.Errorf("%q: trained over a poisoned scene:\n%s", tc.extra, stderr)
		}
	}
}

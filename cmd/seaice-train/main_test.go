package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

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
}

// TestFlagErrors: every bad command line is refused by parseFlags with
// its message, and — run for real, as a child process executing main —
// exits 1 with that message on standard error and nothing trained.
func TestFlagErrors(t *testing.T) {
	if args, ok := os.LookupEnv("SEAICE_TRAIN_TEST_ARGS"); ok {
		os.Args = append([]string{"seaice-train"}, strings.Split(args, "\x1f")...)
		main()
		os.Exit(0)
	}
	for _, tc := range flagErrors {
		name := strings.Join(tc.args, " ")
		_, err := parseFlags(tc.args, flag.ContinueOnError)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseFlags(%s) = %v, want an error containing %q", name, err, tc.want)
			continue
		}
		cmd := exec.Command(os.Args[0], "-test.run=^TestFlagErrors$")
		cmd.Env = append(os.Environ(), "SEAICE_TRAIN_TEST_ARGS="+strings.Join(tc.args, "\x1f"))
		cmd.Dir = t.TempDir() // a run that got as far as a checkpoint would leave it here
		out, runErr := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(runErr, &exit) || exit.ExitCode() != 1 {
			t.Errorf("seaice-train %s: %v, want exit status 1; output:\n%s", name, runErr, out)
		}
		if want := "seaice-train: " + err.Error(); !strings.Contains(string(out), want) {
			t.Errorf("seaice-train %s printed\n%s\nwant %q", name, out, want)
		}
		if strings.Contains(string(out), "streaming") {
			t.Errorf("seaice-train %s started generating scenes:\n%s", name, out)
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
}

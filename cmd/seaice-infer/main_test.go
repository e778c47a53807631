package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main instead of the tests when the child-process hook
// names a command line.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("SEAICE_INFER_TEST_ARGS"); ok {
		os.Args = append([]string{"seaice-infer"}, strings.Split(args, "\x1f")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// flagErrors are command lines seaice-infer must refuse before it loads
// the checkpoint or generates a scene, with the message it refuses them
// with and its exit status: the flag package exits 2 on an unknown flag,
// main exits 1 on the rest. The child runs where no checkpoint exists, so
// a refusal that came only after the load would print a different error.
var flagErrors = []struct {
	args []string
	want string
	exit int
}{
	{[]string{"-bogus"}, "flag provided but not defined: -bogus", 2},
	{[]string{"-precision", "f16"}, `serve: unknown precision "f16" (valid: f64, f32, int8)`, 1},
	{[]string{"-tile", "0"}, "-tile 0: want a positive tile size", 1},
	{[]string{"-tile", "-32", "-in", "scene.png"}, "-tile -32: want a positive tile size", 1},
	{[]string{"-tile", "7"}, "-size 256 is not a multiple of -tile 7", 1},
	{[]string{"-size", "0"}, "-size 0: want a positive scene size", 1},
	{[]string{"-size", "100", "-tile", "32"}, "-size 100 is not a multiple of -tile 32", 1},
}

// TestFlagErrors: every bad command line is refused by parseFlags with
// its message, and — run for real, as a child process executing main —
// exits with its status and that message on standard error, writing no
// prediction PNG.
func TestFlagErrors(t *testing.T) {
	for _, tc := range flagErrors {
		name := strings.Join(tc.args, " ")
		_, err := parseFlags(tc.args, flag.ContinueOnError)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseFlags(%s) = %v, want an error containing %q", name, err, tc.want)
			continue
		}
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "SEAICE_INFER_TEST_ARGS="+strings.Join(tc.args, "\x1f"))
		cmd.Dir = t.TempDir()
		var stderr strings.Builder
		cmd.Stderr = &stderr
		runErr := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(runErr, &exit) || exit.ExitCode() != tc.exit {
			t.Errorf("seaice-infer %s: %v, want exit status %d; stderr:\n%s", name, runErr, tc.exit, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("seaice-infer %s printed\n%s\nwant %q on standard error", name, stderr.String(), tc.want)
		}
		if left, _ := os.ReadDir(cmd.Dir); len(left) != 0 {
			t.Errorf("seaice-infer %s left %s behind", name, left[0].Name())
		}
	}
}

// TestAcceptedFlags: what parseFlags resolves for command lines it
// accepts — the defaults, the canonical precision name, and an -in scene
// whose size is not checked against -tile until it is read.
func TestAcceptedFlags(t *testing.T) {
	o, err := parseFlags(nil, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	want := options{ckpt: "unet.ckpt", size: 256, tile: 32, seed: 99, out: "prediction.png", precision: "f32"}
	if o != want {
		t.Errorf("defaults = %+v, want %+v", o, want)
	}
	if o, err = parseFlags([]string{"-precision", "float64", "-size", "96", "-tile", "16"}, flag.ContinueOnError); err != nil || o.precision != "f64" {
		t.Errorf("-precision float64: %q, err %v; want f64", o.precision, err)
	}
	if o, err = parseFlags([]string{"-in", "scene.png", "-size", "100", "-tile", "32"}, flag.ContinueOnError); err != nil || o.in != "scene.png" {
		t.Errorf("-in with a -size -tile does not divide: %+v, err %v; want accepted", o, err)
	}
}

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
	if args, ok := os.LookupEnv("SEAICE_LABEL_TEST_ARGS"); ok {
		os.Args = append([]string{"seaice-label"}, strings.Split(args, "\x1f")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// flagErrors are command lines seaice-label must refuse before it creates
// -out or renders a scene, with the message it refuses them with and its
// exit status: the flag package exits 2 on an unknown flag, main exits 1
// on the rest.
var flagErrors = []struct {
	args []string
	want string
	exit int
}{
	{[]string{"-bogus"}, "flag provided but not defined: -bogus", 2},
	{[]string{"-labeler", "bogus"}, `labeler: unknown engine "bogus" (want hsv|kmeans|gmm[:k])`, 1},
	{[]string{"-labeler", "kmeans:0"}, `labeler: bad cluster count "0" in spec "kmeans:0"`, 1},
	{[]string{"-labeler", "hsv,kmeans"}, `labeler: unknown engine "hsv,kmeans"`, 1},
	{[]string{"-compare", "-labeler", "hsv,gmm:300"}, `labeler: bad cluster count "300" in spec "gmm:300"`, 1},
	{[]string{"-compare", "-labeler", "hsv"}, "-compare needs at least two distinct engines (e.g. -labeler hsv,kmeans,gmm)", 1},
	{[]string{"-demo", "-labeler", "bogus"}, `labeler: unknown engine "bogus"`, 1},
	{[]string{"-scenes", "0"}, "-scenes 0: want at least one scene", 1},
	{[]string{"-size", "0"}, "-size 0: want a positive scene size", 1},
	{[]string{"-demo", "-size", "-8"}, "-size -8: want a positive scene size", 1},
}

// TestFlagErrors: every bad command line is refused by parseFlags with
// its message, and — run for real, as a child process executing main —
// exits with its status and that message on standard error, leaving no
// output directory or PNG behind.
func TestFlagErrors(t *testing.T) {
	for _, tc := range flagErrors {
		name := strings.Join(tc.args, " ")
		_, err := parseFlags(tc.args, flag.ContinueOnError)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseFlags(%s) = %v, want an error containing %q", name, err, tc.want)
			continue
		}
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), "SEAICE_LABEL_TEST_ARGS="+strings.Join(tc.args, "\x1f"))
		cmd.Dir = t.TempDir()
		var stderr strings.Builder
		cmd.Stderr = &stderr
		runErr := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(runErr, &exit) || exit.ExitCode() != tc.exit {
			t.Errorf("seaice-label %s: %v, want exit status %d; stderr:\n%s", name, runErr, tc.exit, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("seaice-label %s printed\n%s\nwant %q on standard error", name, stderr.String(), tc.want)
		}
		if left, _ := os.ReadDir(cmd.Dir); len(left) != 0 {
			t.Errorf("seaice-label %s left %s behind", name, left[0].Name())
		}
	}
}

// TestAcceptedFlags: what parseFlags resolves for command lines it
// accepts — the defaults, one engine without -compare, the paper's HSV
// prepended to a single -compare engine, and a full -compare list kept
// in order.
func TestAcceptedFlags(t *testing.T) {
	o, err := parseFlags(nil, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	if o.scenes != 4 || o.size != 512 || o.seed != 2019 || o.outDir != "out" || o.compare || o.demo || o.procs != 0 ||
		len(o.engines) != 1 || o.engines[0].Name() != "hsv" {
		t.Errorf("defaults = %+v", o)
	}
	for _, tc := range []struct {
		args  []string
		names string
	}{
		{[]string{"-labeler", "gmm"}, "gmm:3"},
		{[]string{"-compare", "-labeler", "kmeans"}, "hsv kmeans:8"},
		{[]string{"-compare", "-labeler", "hsv, kmeans:4,gmm"}, "hsv kmeans:4 gmm:3"},
	} {
		o, err := parseFlags(tc.args, flag.ContinueOnError)
		if err != nil {
			t.Errorf("parseFlags(%q): %v", tc.args, err)
			continue
		}
		var names []string
		for _, e := range o.engines {
			names = append(names, e.Name())
		}
		if got := strings.Join(names, " "); got != tc.names {
			t.Errorf("parseFlags(%q): engines %q, want %q", tc.args, got, tc.names)
		}
	}
}

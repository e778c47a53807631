package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"seaice/internal/serve"
)

// TestValidateExp pins the -exp contract: exactly the names the usage
// lists are accepted; anything else — a typo, a case variant, stray
// whitespace, an empty name — is refused with the list of valid names.
func TestValidateExp(t *testing.T) {
	for _, ok := range []string{"table1", "table2", "table3", "accuracy", "fig14", "labeltime", "all"} {
		if err := validateExp(ok); err != nil {
			t.Errorf("validateExp(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"tabel2", "Table2", "table2 ", "", "table4", "al", "fig13", "kernels"} {
		err := validateExp(bad)
		want := `unknown experiment "` + bad + `" (valid: table1, table2, table3, accuracy, fig14, labeltime, all)`
		if err == nil || err.Error() != want {
			t.Errorf("validateExp(%q) = %v, want %q", bad, err, want)
		}
	}
}

// TestMain runs main itself when SEAICE_BENCH_TEST_ARGS holds its
// arguments: runBench's child process.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("SEAICE_BENCH_TEST_ARGS"); ok {
		os.Args = append([]string{"seaice-bench"}, strings.Split(args, "\x1f")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runBench runs seaice-bench for real, as a child process executing main
// in dir, and returns its exit status and what it printed.
func runBench(t *testing.T, dir string, args ...string) (exit int, stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "SEAICE_BENCH_TEST_ARGS="+strings.Join(args, "\x1f"))
	cmd.Dir = dir
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		exit = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return exit, out.String(), errOut.String()
}

// TestUnknownExpExits: a misspelt -exp exits 1 with its message on
// standard error before any experiment runs — and leaves the -out report
// it would have overwritten untouched.
func TestUnknownExpExits(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "r.md")
	const prior = "# an earlier report\n"
	if err := os.WriteFile(report, []byte(prior), 0o644); err != nil {
		t.Fatal(err)
	}
	exit, stdout, stderr := runBench(t, dir, "-exp", "tabel2", "-out", report)
	if exit != 1 {
		t.Errorf("seaice-bench -exp tabel2: exit status %d, want 1; stderr:\n%s", exit, stderr)
	}
	want := `seaice-bench: unknown experiment "tabel2" (valid: table1, table2, table3, accuracy, fig14, labeltime, all)` + "\n"
	if stderr != want {
		t.Errorf("stderr = %q, want %q", stderr, want)
	}
	if stdout != "" {
		t.Errorf("an experiment ran; stdout:\n%s", stdout)
	}
	if got, err := os.ReadFile(report); err != nil || string(got) != prior {
		t.Errorf("-out report = %q, %v; want it untouched (%q)", got, err, prior)
	}
}

// TestUnwritableOutputExits: an -out or -memprofile path the run could
// not write at its end exits 1 with the reason before any experiment
// runs, and writes nothing — not the experiment's output, not a figure,
// not a probe file. A writable new path still gets its report.
func TestUnwritableOutputExits(t *testing.T) {
	for _, tc := range []struct {
		flag, path, want string // path is relative to the run's directory
	}{
		{"-out", ".", "-out: open .: is a directory"},
		{"-memprofile", ".", "-memprofile: open .: is a directory"},
		{"-out", filepath.Join("missing", "r.md"), "-out: open " + filepath.Join("missing", "r.md") + ": no such file or directory"},
	} {
		t.Run(tc.flag+" "+tc.path, func(t *testing.T) {
			dir := t.TempDir()
			exit, stdout, stderr := runBench(t, dir, "-exp", "table2", tc.flag, tc.path)
			if exit != 1 || !strings.Contains(stderr, tc.want) {
				t.Errorf("exit status %d, stderr %q; want 1 and %q", exit, stderr, tc.want)
			}
			if stdout != "" {
				t.Errorf("an experiment ran; stdout:\n%s", stdout)
			}
			if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
				t.Errorf("the run left %v (%v) in its directory, want nothing", left, err)
			}
		})
	}

	// A new file in an existing directory passes the check, and the
	// report lands there at the end.
	dir := t.TempDir()
	if exit, _, stderr := runBench(t, dir, "-exp", "table2", "-out", "r.md"); exit != 0 {
		t.Fatalf("-out r.md: exit status %d; stderr:\n%s", exit, stderr)
	}
	if report, err := os.ReadFile(filepath.Join(dir, "r.md")); err != nil || !strings.Contains(string(report), "## Table II") {
		t.Errorf("-out r.md wrote %q, %v; want the Table II report", report, err)
	}
}

// TestValidatePrecision pins the -precision contract: f32/f64 (and their
// spelled-out aliases, case-insensitively) accepted; unknown names
// refused with the serving stack's typed *serve.UnknownPrecisionError
// and its exact message; int8 refused with a redirect to the serve
// benchmark, since the training-step cost cannot run in an
// inference-only precision.
func TestValidatePrecision(t *testing.T) {
	for _, ok := range []string{"f32", "f64", "float32", "float64", "F32", " f64 "} {
		if err := validatePrecision(ok); err != nil {
			t.Errorf("validatePrecision(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", "f16", "mixed", "int4"} {
		err := validatePrecision(bad)
		if err == nil {
			t.Errorf("validatePrecision(%q) accepted, want error", bad)
			continue
		}
		var upe *serve.UnknownPrecisionError
		if !errors.As(err, &upe) {
			t.Errorf("validatePrecision(%q) = %T, want *serve.UnknownPrecisionError", bad, err)
			continue
		}
		if upe.Precision != bad {
			t.Errorf("validatePrecision(%q) carried precision %q", bad, upe.Precision)
		}
	}
	err := validatePrecision("f16")
	want := `serve: unknown precision "f16" (valid: f64, f32, int8)`
	if err == nil || err.Error() != want {
		t.Errorf("validatePrecision(\"f16\") = %v, want %q", err, want)
	}
	if err := validatePrecision("int8"); err == nil || !strings.Contains(err.Error(), "inference-only") {
		t.Errorf("validatePrecision(\"int8\") = %v, want inference-only redirect", err)
	}
}

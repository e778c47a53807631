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
	for _, ok := range []string{"table1", "table2", "table3", "accuracy", "fig14", "labeltime", "kernels", "all"} {
		if err := validateExp(ok); err != nil {
			t.Errorf("validateExp(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"tabel2", "Table2", "table2 ", "", "table4", "al", "fig13"} {
		err := validateExp(bad)
		want := `unknown experiment "` + bad + `" (valid: table1, table2, table3, accuracy, fig14, labeltime, kernels, all)`
		if err == nil || err.Error() != want {
			t.Errorf("validateExp(%q) = %v, want %q", bad, err, want)
		}
	}
}

// TestUnknownExpExits: run for real, as a child process executing main,
// a misspelt -exp exits 1 with its message on standard error before any
// experiment runs — and leaves the -out report it would have overwritten
// untouched.
func TestUnknownExpExits(t *testing.T) {
	if args, ok := os.LookupEnv("SEAICE_BENCH_TEST_ARGS"); ok {
		os.Args = append([]string{"seaice-bench"}, strings.Split(args, "\x1f")...)
		main()
		os.Exit(0)
	}
	dir := t.TempDir()
	report := filepath.Join(dir, "r.md")
	const prior = "# an earlier report\n"
	if err := os.WriteFile(report, []byte(prior), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownExpExits$")
	cmd.Env = append(os.Environ(), "SEAICE_BENCH_TEST_ARGS="+strings.Join([]string{"-exp", "tabel2", "-out", report}, "\x1f"))
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Errorf("seaice-bench -exp tabel2: %v, want exit status 1; stderr:\n%s", err, stderr.String())
	}
	want := `seaice-bench: unknown experiment "tabel2" (valid: table1, table2, table3, accuracy, fig14, labeltime, kernels, all)` + "\n"
	if stderr.String() != want {
		t.Errorf("stderr = %q, want %q", stderr.String(), want)
	}
	if stdout.Len() != 0 {
		t.Errorf("an experiment ran; stdout:\n%s", stdout.String())
	}
	if got, err := os.ReadFile(report); err != nil || string(got) != prior {
		t.Errorf("-out report = %q, %v; want it untouched (%q)", got, err, prior)
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

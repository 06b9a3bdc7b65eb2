package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"rfdet/internal/trace"
)

// TestMain runs the command itself when the test binary is re-executed by
// rfdetRun, so the tests below drive main's flags and exit status.
func TestMain(m *testing.M) {
	if os.Getenv("RFDET_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// rfdetRun executes the command with args and returns its combined output
// and exit status.
func rfdetRun(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "RFDET_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return string(out), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

func TestCheckFlags(t *testing.T) {
	for _, c := range []struct {
		threads, repeat int
		ok              bool
	}{
		{4, 1, true},
		{1, 20, true},
		{0, 1, false},
		{-3, 1, false},
		{4, 0, false},
		{4, -1, false},
	} {
		if err := checkFlags(c.threads, c.repeat); (err == nil) != c.ok {
			t.Errorf("checkFlags(threads %d, repeat %d) = %v, want ok %v", c.threads, c.repeat, err, c.ok)
		}
	}
}

// TestPhasesWritesValidChromeTrace requires -phases to write a file that
// passes trace.ValidateChrome, and to be refused on a runtime without the
// phase tracer.
func TestPhasesWritesValidChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fft-phases.json")
	if out, code := rfdetRun(t, "-workload", "fft", "-size", "test", "-phases", path); code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.ValidateChrome(data); err != nil {
		t.Fatal(err)
	}

	rejected := filepath.Join(t.TempDir(), "dthreads.json")
	if out, code := rfdetRun(t, "-workload", "fft", "-size", "test", "-runtime", "dthreads", "-phases", rejected); code != 2 {
		t.Fatalf("-phases on dthreads: exit %d, want 2:\n%s", code, out)
	}
	if _, err := os.Stat(rejected); !os.IsNotExist(err) {
		t.Fatalf("-phases on dthreads left a file behind (stat: %v)", err)
	}
}

package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestFailMessagePrefixedOnce(t *testing.T) {
	for _, c := range []struct {
		format string
		args   []any
		want   string
	}{
		// The facade's errors already name the command.
		{"%v", []any{errors.New(`pacifier: unknown litmus test "nope"`)},
			`pacifier: unknown litmus test "nope"`},
		{"%v", []any{errors.New(`pacifier: app "fft" needs at least 1 thread`)},
			`pacifier: app "fft" needs at least 1 thread`},
		// The command's own messages and other packages' errors get it.
		{"need -app, -litmus or -load (try -list)", nil,
			"pacifier: need -app, -litmus or -load (try -list)"},
		{"%v", []any{errors.New("core: no recording for mode gra")},
			"pacifier: core: no recording for mode gra"},
	} {
		if got := failMessage(c.format, c.args...); got != c.want {
			t.Errorf("failMessage(%q, %v) = %q, want %q", c.format, c.args, got, c.want)
		}
	}
}

func TestCheckSweepFormat(t *testing.T) {
	for _, c := range []struct {
		format string
		ok     bool
	}{
		{"jsonl", true}, {"csv", true}, {"tables", true},
		{"bogus", false}, {"", false}, {"JSONL", false}, {"json", false},
	} {
		if err := checkSweepFormat(c.format); (err == nil) != c.ok {
			t.Errorf("checkSweepFormat(%q) = %v, want ok=%v", c.format, err, c.ok)
		}
	}
}

// sweepArgsEnv carries a sweep command line (newline-separated) into a
// child run of this test binary, which then runs it as `pacifier sweep`.
const sweepArgsEnv = "PACIFIER_TEST_SWEEP_ARGS"

// TestSweepRejectsFormatBeforeRunning runs `pacifier sweep` with a bad
// -format in a child process: it must exit 1 naming the flag, before
// any job runs and before the -o file is created.
func TestSweepRejectsFormatBeforeRunning(t *testing.T) {
	if args := os.Getenv(sweepArgsEnv); args != "" {
		sweep(strings.Split(args, "\n"))
		os.Exit(0)
	}
	out := filepath.Join(t.TempDir(), "out.jsonl")
	cmd := exec.Command(os.Args[0], "-test.run=^TestSweepRejectsFormatBeforeRunning$")
	cmd.Env = append(os.Environ(), sweepArgsEnv+"="+strings.Join([]string{
		"-apps", "fft", "-cores", "4", "-ops", "20", "-format", "bogus", "-o", out}, "\n"))
	stderr, err := cmd.CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("sweep -format bogus: err %v, want exit status 1\n%s", err, stderr)
	}
	if !strings.Contains(string(stderr), `unknown -format "bogus"`) {
		t.Errorf("stderr does not name the bad flag:\n%s", stderr)
	}
	if strings.Contains(string(stderr), "harness job finished") {
		t.Errorf("a job ran before the flag was rejected:\n%s", stderr)
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("-o file exists after the rejected sweep (stat: %v)", err)
	}
}

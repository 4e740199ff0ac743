package main

import (
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// Binary-boundary tests for the experiments command: flag validation and
// the exit-code contract of -fail-policy, driven through a re-executed
// test binary so os.Exit is observed as a real process exit.

// TestHelperProcess re-enters main() when the test binary is executed as
// an experiments subprocess (the standard helper-process pattern).
func TestHelperProcess(t *testing.T) {
	if os.Getenv("EXPERIMENTS_HELPER") != "1" {
		t.Skip("helper process entry point")
	}
	// Everything after "--" is the experiments command line.
	args := os.Args
	for i, a := range args {
		if a == "--" {
			args = args[i:]
			break
		}
	}
	os.Args = append([]string{"experiments"}, args[1:]...)
	main()
}

// experiments runs the helper subprocess with the given arguments.
func experiments(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"-test.run=TestHelperProcess", "--"}, args...)...)
	cmd.Env = append(os.Environ(), "EXPERIMENTS_HELPER=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("running %v: %v", args, err)
	}
	return out.String(), errb.String(), code
}

func TestFlagErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-fail-policy", "bogus"}, 2, "invalid -fail-policy"},
		{[]string{"-fig", "nope"}, 1, "unknown experiment"},
		{[]string{"-bench", "nosuch"}, 1, "unknown benchmark"},
	} {
		_, stderr, code := experiments(t, tc.args...)
		if code != tc.code {
			t.Errorf("%v: exit code = %d, want %d; stderr:\n%s", tc.args, code, tc.code, stderr)
		}
		if !strings.Contains(stderr, tc.msg) {
			t.Errorf("%v: stderr lacks %q:\n%s", tc.args, tc.msg, stderr)
		}
	}
}

// TestFailPolicyExitCodes: with a deadline no run can meet, every cell is
// a hole and the manifest names the timeouts under either policy; only the
// exit code differs.
func TestFailPolicyExitCodes(t *testing.T) {
	base := []string{"-quick", "-fig", "fig3", "-task-timeout", "1ns"}
	for policy, want := range map[string]int{"strict": 1, "degrade": 0} {
		stdout, stderr, code := experiments(t, append(base, "-fail-policy", policy)...)
		if code != want {
			t.Errorf("%s: exit code = %d, want %d; stderr:\n%s", policy, code, want, stderr)
		}
		if !strings.Contains(stdout, "—") {
			t.Errorf("%s: table has no hole:\n%s", policy, stdout)
		}
		if !strings.Contains(stdout, "FAILED:") || !strings.Contains(stdout, "timed out") {
			t.Errorf("%s: output lacks the failure manifest:\n%s", policy, stdout)
		}
	}
}

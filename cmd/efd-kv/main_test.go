package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv, set in a child's environment, makes the test binary run main
// instead of the tests, so that a test can run the command itself.
const runMainEnv = "EFD_KV_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestOutOfRangeSettingsAreFlagErrors: a negative setting would silently run
// the default instead, and a NaN or infinite rate a closed loop filed under
// an open-loop key, so each is refused before anything runs — a message,
// the usage, exit 2.
func TestOutOfRangeSettingsAreFlagErrors(t *testing.T) {
	for _, bad := range [][]string{
		{"-tick", "-1ms"},
		{"-stabilize", "-5"},
		{"-crash-at", "-3", "-crash-leader", "1"},
		{"-run-budget", "-1s"},
		{"-procs", "-2"},
		{"-rate", "NaN"},
		{"-rate", "+Inf"},
		{"-put-frac", "NaN"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-n", "3", "-duration", "300ms"}, bad...)...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "efd-kv: "+bad[0]+" ") || !strings.Contains(string(out), "Usage") {
			t.Errorf("efd-kv %s: %v, want exit 2 with a message on %s and the usage; output:\n%s", strings.Join(bad, " "), err, bad[0], out)
		}
	}
}

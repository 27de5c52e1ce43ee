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
const runMainEnv = "EFD_STRESS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestOutOfRangeSettingsAreFlagErrors: a negative setting would silently run
// the default instead, so each is refused before anything runs — a message,
// the usage, exit 2.
func TestOutOfRangeSettingsAreFlagErrors(t *testing.T) {
	for _, bad := range [][]string{
		{"-tick", "-1ms"},
		{"-stabilize", "-5"},
		{"-crash-at", "-3", "-crash", "1"},
		{"-crash", "-2", "-crash-storm"},
		{"-k", "-3"},
		{"-j", "-1"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-task", "consensus", "-n", "3", "-duration", "300ms"}, bad...)...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "efd-stress: "+bad[0]+" ") || !strings.Contains(string(out), "Usage") {
			t.Errorf("efd-stress %s: %v, want exit 2 with a message on %s and the usage; output:\n%s", strings.Join(bad, " "), err, bad[0], out)
		}
	}
}

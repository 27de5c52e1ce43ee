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
const runMainEnv = "EFD_EXPLORE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestOutOfRangeSettingsAreFlagErrors: a negative setting would silently run
// the default instead (or, for -expect, no check at all), so each is refused
// before anything runs — a message, the usage, exit 2.
func TestOutOfRangeSettingsAreFlagErrors(t *testing.T) {
	for _, bad := range [][]string{
		{"-depth", "0"},
		{"-workers", "-2"},
		{"-max-runs", "-5"},
		{"-progress", "-1s"},
		{"-expect", "-3"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-task", "strongrename", "-n", "2", "-j", "2"}, bad...)...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "efd-explore: "+bad[0]+" ") || !strings.Contains(string(out), "Usage") {
			t.Errorf("efd-explore %s: %v, want exit 2 with a message on %s and the usage; output:\n%s", strings.Join(bad, " "), err, bad[0], out)
		}
	}
}

// TestSpecForRejectsWhatItCannotJudge: specFor builds a spec for every
// sizing a search can judge and returns an error — which main turns into
// exit 2 — for the rest, trace meta on -replay included. A negative or zero
// k would judge any decision set a violation, and a negative idle-s would
// panic building the failure pattern.
func TestSpecForRejectsWhatItCannotJudge(t *testing.T) {
	for _, c := range []struct {
		name           string
		task           string
		n, j, k, idleS int
		ok             bool
	}{
		{"strongrename default", taskStrongRename, 2, 2, 1, 0, true},
		{"strongrename idle S", taskStrongRename, 2, 2, 1, 2, true},
		{"kset default", taskKSet, 3, 2, 1, 0, true},
		{"kset ignores j", taskKSet, 3, 0, 2, 0, true},
		{"strongrename ignores k", taskStrongRename, 2, 2, 0, 0, true},
		{"kset k=-1", taskKSet, 3, 2, -1, 0, false},
		{"kset k=0", taskKSet, 2, 2, 0, 0, false},
		{"kset k+1 > n", taskKSet, 2, 2, 2, 0, false},
		{"strongrename j=0", taskStrongRename, 2, 0, 1, 0, false},
		{"strongrename j > n", taskStrongRename, 2, 3, 1, 0, false},
		{"n=0", taskStrongRename, 0, 0, 1, 0, false},
		{"kset n=0", taskKSet, 0, 2, 1, 0, false},
		{"idle-s=-1", taskStrongRename, 2, 2, 1, -1, false},
		{"kset idle-s=-1", taskKSet, 3, 2, 1, -1, false},
		{"unknown task", "bogus", 2, 2, 1, 0, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec, err := specFor(c.task, c.n, c.j, c.k, c.idleS)
			if c.ok && (err != nil || spec.Name == "") {
				t.Fatalf("specFor(%q, n=%d, j=%d, k=%d, idle-s=%d) = %q, %v; want a spec",
					c.task, c.n, c.j, c.k, c.idleS, spec.Name, err)
			}
			if !c.ok && err == nil {
				t.Fatalf("specFor(%q, n=%d, j=%d, k=%d, idle-s=%d) = %q; want an error",
					c.task, c.n, c.j, c.k, c.idleS, spec.Name)
			}
		})
	}
}

// TestSpecFromMetaValidates: a recorded trace's meta goes through the same
// checks as the flags.
func TestSpecFromMetaValidates(t *testing.T) {
	for _, c := range []struct {
		meta map[string]string
		ok   bool
	}{
		{map[string]string{"task": taskKSet, "n": "3", "k": "1"}, true},
		{map[string]string{"task": taskKSet, "n": "3", "k": "-1"}, false},
		{map[string]string{"task": taskStrongRename, "n": "2", "j": "2", "idle-s": "-1"}, false},
	} {
		if _, err := specFromMeta(c.meta); (err == nil) != c.ok {
			t.Errorf("specFromMeta(%v): err = %v, want ok=%v", c.meta, err, c.ok)
		}
	}
}

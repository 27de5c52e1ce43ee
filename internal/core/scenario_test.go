package core

import (
	"strings"
	"testing"
)

// TestNewScenarioRefusesOutOfRangeParams: every parameter NewScenario cannot
// honour is an error naming what is wrong, never a silent default — the
// params also arrive from a trace's meta lines, which are outside input.
func TestNewScenarioRefusesOutOfRangeParams(t *testing.T) {
	for _, tc := range []struct {
		p    ScenarioParams
		want string
	}{
		{ScenarioParams{Task: "consensus", N: 1}, "need n ≥ 2"},
		{ScenarioParams{Task: "consensus", N: 4, Crash: -2}, "crash=-2"},
		{ScenarioParams{Task: "consensus", N: 4, Crash: -1, Storm: true}, "crash=-1"},
		{ScenarioParams{Task: "kset", N: 4, K: -3}, "k=-3"},
		{ScenarioParams{Task: "renaming", N: 4, K: 2, J: -1}, "j=-1"},
		{ScenarioParams{Task: "consensus", N: 4, Crash: 4}, "leave no correct"},
		{ScenarioParams{Task: "consensus", N: 4, Storm: true}, "crash-storm needs crash > 0"},
		{ScenarioParams{Task: "consensus", N: 4, Chaos: "bogus"}, "scenario:"},
		{ScenarioParams{Task: "consensus", N: 4, Advice: "bogus"}, "scenario:"},
		{ScenarioParams{Task: "consensus", N: 4, Stabilize: -1}, "stabilize=-1"},
		{ScenarioParams{Task: "consensus", N: 4, Crash: 1, CrashAt: -5}, "crash-at=-5"},
		{ScenarioParams{Task: "kset", N: 4, K: 4}, "kset needs k < n"},
		{ScenarioParams{Task: "renaming", N: 4, J: 4}, "renaming needs j < n"},
		{ScenarioParams{Task: "renaming", N: 4, J: 2, K: 2}, "renaming needs j > k"},
		{ScenarioParams{Task: "bogus", N: 4}, "unknown task"},
	} {
		s, err := NewScenario(tc.p)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			name := "<nil>"
			if s != nil {
				name = s.Name
			}
			t.Errorf("NewScenario(%+v) = %s, %v; want an error containing %q", tc.p, name, err, tc.want)
		}
	}
}

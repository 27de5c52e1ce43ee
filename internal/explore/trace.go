package explore

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"wfadvice/internal/ids"
	"wfadvice/internal/sim"
)

// This file defines the canonical trace format: a compact, line-oriented
// text serialization of one run — every granted step (writes, reads,
// detector queries, decides) plus the spec metadata needed to rebuild the
// system and the verdict of the violation predicate. A recorded trace
// replays through sim.Replay, which either reproduces the identical run
// step for step or reports the exact divergence point.
//
// Format (one token-separated record per line):
//
//	efd-trace v1
//	spec <name>
//	meta <key> <value>          # zero or more, sorted by key
//	verdict <text>              # "ok" or the Check error text
//	steps <count>
//	<idx> <proc> <kind> <key> <value>
//	end
//
// Register keys never contain spaces; "-" stands for the empty key. The
// value field is the %v rendering of the step's value, runs to the end of
// the line, and is informational: replay re-executes the deterministic
// system and re-derives every value, then cross-checks it against the
// recording.

// traceHeader is the version line of the format.
const traceHeader = "efd-trace v1"

// TraceStep is one recorded step.
type TraceStep struct {
	Proc ids.Proc
	Kind sim.OpKind
	Key  string
	Val  string // %v rendering of the step value
}

// Trace is a recorded run.
type Trace struct {
	Spec    string
	Meta    map[string]string
	Verdict string // "ok" or the violation description
	Steps   []TraceStep
}

// VerdictOK is the verdict of a run on which the predicate did not fire.
const VerdictOK = "ok"

func verdictString(err error) string {
	if err == nil {
		return VerdictOK
	}
	return strings.ReplaceAll(err.Error(), "\n", " ")
}

func traceSteps(events []sim.Event) []TraceStep {
	out := make([]TraceStep, len(events))
	for i, e := range events {
		out[i] = TraceStep{Proc: e.Proc, Kind: e.Kind, Key: e.Key, Val: fmt.Sprint(e.Val)}
	}
	return out
}

// RecordTrace captures a finished run as a trace, with the spec's metadata
// and the verdict of its predicate.
func RecordTrace(spec Spec, res *sim.Result) *Trace {
	meta := make(map[string]string, len(spec.Meta))
	for k, v := range spec.Meta {
		meta[k] = v
	}
	return &Trace{
		Spec:    spec.Name,
		Meta:    meta,
		Verdict: verdictString(spec.Check(res)),
		Steps:   traceSteps(res.Trace),
	}
}

// Schedule returns the per-step process sequence of the trace.
func (t *Trace) Schedule() []ids.Proc {
	out := make([]ids.Proc, len(t.Steps))
	for i, s := range t.Steps {
		out[i] = s.Proc
	}
	return out
}

// Format serializes the trace.
func (t *Trace) Format() string {
	var b strings.Builder
	b.WriteString(traceHeader + "\n")
	fmt.Fprintf(&b, "spec %s\n", t.Spec)
	keys := make([]string, 0, len(t.Meta))
	for k := range t.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "meta %s %s\n", k, t.Meta[k])
	}
	verdict := t.Verdict
	if verdict == "" {
		verdict = VerdictOK
	}
	fmt.Fprintf(&b, "verdict %s\n", verdict)
	fmt.Fprintf(&b, "steps %d\n", len(t.Steps))
	for i, s := range t.Steps {
		key := s.Key
		if key == "" {
			key = "-"
		}
		fmt.Fprintf(&b, "%d %s %s %s %s\n", i, s.Proc, s.Kind, key, s.Val)
	}
	b.WriteString("end\n")
	return b.String()
}

// ParseProc parses the paper's one-based process names ("p3", "q1").
func ParseProc(s string) (ids.Proc, error) {
	if len(s) < 2 || (s[0] != 'p' && s[0] != 'q') {
		return ids.Proc{}, fmt.Errorf("explore: bad process name %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 1 {
		return ids.Proc{}, fmt.Errorf("explore: bad process name %q", s)
	}
	if s[0] == 'p' {
		return ids.C(n - 1), nil
	}
	return ids.S(n - 1), nil
}

func parseKind(s string) (sim.OpKind, error) {
	for _, k := range []sim.OpKind{sim.OpWrite, sim.OpRead, sim.OpQueryFD, sim.OpDecide} {
		if s == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("explore: bad op kind %q", s)
}

// ParseTrace parses the serialized form. It inverts Format exactly: a trace
// it accepts formats back to text it parses to an equal trace — which is why
// a bare "spec" line is an empty name and a missing verdict line reads as
// the "ok" Format writes for an empty one.
func ParseTrace(text string) (*Trace, error) {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) != traceHeader {
		return nil, fmt.Errorf("explore: not an %q file", traceHeader)
	}
	t := &Trace{Meta: make(map[string]string), Verdict: VerdictOK}
	declared := -1
	ended := false
	for ln, line := range lines[1:] {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if ended {
			return nil, fmt.Errorf("explore: line %d: content after end", ln+2)
		}
		switch {
		case line == "spec", strings.HasPrefix(line, "spec "):
			t.Spec = strings.TrimSpace(line[len("spec"):])
		case strings.HasPrefix(line, "meta "):
			kv := strings.SplitN(line[len("meta "):], " ", 2)
			if len(kv) != 2 {
				return nil, fmt.Errorf("explore: line %d: bad meta line", ln+2)
			}
			t.Meta[kv[0]] = kv[1]
		case strings.HasPrefix(line, "verdict "):
			t.Verdict = strings.TrimSpace(line[len("verdict "):])
		case strings.HasPrefix(line, "steps "):
			n, err := strconv.Atoi(strings.TrimSpace(line[len("steps "):]))
			if err != nil || n < 0 {
				return nil, fmt.Errorf("explore: line %d: bad steps count", ln+2)
			}
			declared = n
		case line == "end":
			ended = true
		default:
			f := strings.SplitN(line, " ", 5)
			if len(f) < 4 {
				return nil, fmt.Errorf("explore: line %d: bad step line %q", ln+2, line)
			}
			if _, err := strconv.Atoi(f[0]); err != nil {
				return nil, fmt.Errorf("explore: line %d: bad step index %q", ln+2, f[0])
			}
			p, err := ParseProc(f[1])
			if err != nil {
				return nil, fmt.Errorf("explore: line %d: %v", ln+2, err)
			}
			kind, err := parseKind(f[2])
			if err != nil {
				return nil, fmt.Errorf("explore: line %d: %v", ln+2, err)
			}
			key := f[3]
			if key == "-" {
				key = ""
			}
			val := ""
			if len(f) == 5 {
				val = f[4]
			}
			t.Steps = append(t.Steps, TraceStep{Proc: p, Kind: kind, Key: key, Val: val})
		}
	}
	if !ended {
		return nil, fmt.Errorf("explore: truncated trace (no end line)")
	}
	if declared >= 0 && declared != len(t.Steps) {
		return nil, fmt.Errorf("explore: trace declares %d steps but carries %d", declared, len(t.Steps))
	}
	return t, nil
}

// ReplayOutcome reports how a replay compared against its recording.
type ReplayOutcome struct {
	// Match is true when every step and the verdict reproduced exactly.
	Match bool
	// Verdict is the replayed run's verdict.
	Verdict string
	// Divergence describes the first mismatch (empty when Match).
	Divergence string
	// Steps is the number of steps the replay executed.
	Steps int
}

// ReplayTrace re-executes a recorded trace on a fresh runtime built from
// spec, following the recorded schedule exactly via sim.Replay, and
// cross-checks every step and the verdict against the recording.
func ReplayTrace(spec Spec, t *Trace) (*ReplayOutcome, error) {
	rt, err := spec.New(len(t.Steps) + 2)
	if err != nil {
		return nil, fmt.Errorf("explore: building runtime for replay: %w", err)
	}
	sched := &sim.Replay{Seq: t.Schedule()}
	res := rt.Run(sched)
	out := &ReplayOutcome{Verdict: verdictString(spec.Check(res)), Steps: res.Steps}
	if sched.Divergence != nil {
		out.Divergence = sched.Divergence.Error()
		return out, nil
	}
	if len(res.Trace) != len(t.Steps) {
		out.Divergence = fmt.Sprintf("replay executed %d steps, recording has %d", len(res.Trace), len(t.Steps))
		return out, nil
	}
	for i, e := range res.Trace {
		want := t.Steps[i]
		got := TraceStep{Proc: e.Proc, Kind: e.Kind, Key: e.Key, Val: fmt.Sprint(e.Val)}
		if got != want {
			out.Divergence = fmt.Sprintf("step %d: replayed %v %s %q %s, recording says %v %s %q %s",
				i, got.Proc, got.Kind, got.Key, got.Val, want.Proc, want.Kind, want.Key, want.Val)
			return out, nil
		}
	}
	recorded := t.Verdict
	if recorded == "" {
		recorded = VerdictOK
	}
	if out.Verdict != recorded {
		out.Divergence = fmt.Sprintf("replay verdict %q, recording says %q", out.Verdict, recorded)
		return out, nil
	}
	out.Match = true
	return out, nil
}

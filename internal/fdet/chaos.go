package fdet

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// Adversarial advice: hostile History wrappers over the detector families.
//
// Every Check* contract in this package audits only the suffix
// [stabilize, horizon) — before stabilization a detector may output any
// well-typed value (§2.2: the eventual properties constrain a suffix, not
// the prefix). A chaos wrapper exploits exactly that freedom: it replaces
// the pre-stabilization output of an inner detector with a structured
// hostile schedule — coherent rotation (flap), agreed-but-wrong values
// (lie), per-module disagreement (diverge) — and defers to the inner
// history from the stabilization time on. The wrapped detector therefore
// never violates the inner family's specification, only its niceness: the
// default seeded noise is incoherent and easy to wait out, while a flapping
// schedule hands consumers a convincing, coherent, wrong world every W
// ticks. This is the adversary the paper's advice model actually permits.
//
// Wrapped histories enumerate their own transitions: chaos values are
// functions of ⌊t/W⌋, so the pre-stabilization chain visits exactly the
// window boundaries plus the stabilization instant, then hands over to the
// inner enumerator — live advice publishes every hostile window.

// ChaosMode selects a hostile pre-stabilization schedule.
type ChaosMode uint8

// Chaos modes.
const (
	// ChaosNone leaves the detector untouched.
	ChaosNone ChaosMode = iota
	// ChaosFlap rotates the output through the process space every Window
	// ticks, identically at every module: the system repeatedly agrees on a
	// leader (or window) that is about to be wrong.
	ChaosFlap
	// ChaosLie emits seeded agreed-but-wrong outputs, re-drawn every Window
	// ticks and biased toward faulty processes when the pattern has any:
	// every module trusts the same dead leader.
	ChaosLie
	// ChaosDiverge offsets the rotation per module, so no two modules agree
	// on anything before stabilization.
	ChaosDiverge
)

// String implements fmt.Stringer.
func (m ChaosMode) String() string {
	switch m {
	case ChaosNone:
		return "none"
	case ChaosFlap:
		return "flap"
	case ChaosLie:
		return "lie"
	case ChaosDiverge:
		return "diverge"
	default:
		return fmt.Sprintf("ChaosMode(%d)", int(m))
	}
}

// ChaosModes lists the parseable hostile modes.
func ChaosModes() []string { return []string{"flap", "lie", "diverge"} }

// DefaultChaosWindow is the rotation window used when AdviceChaos.Window is
// unset: short enough that consumers see many coherent-but-wrong worlds
// before stabilization, long enough that they commit to each one.
const DefaultChaosWindow = Time(8)

// AdviceChaos configures a hostile advice schedule; the zero value disables
// it. It is the scenario-level knob threaded through core.Scenario and the
// stress harnesses.
type AdviceChaos struct {
	Mode ChaosMode
	// Window is the rotation period W in ticks (0 = DefaultChaosWindow).
	Window Time
	// Seed perturbs the lie schedule independently of the run seed; flap and
	// diverge are deterministic rotations and ignore it.
	Seed int64
}

// Enabled reports whether the knob selects any hostile schedule.
func (c AdviceChaos) Enabled() bool { return c.Mode != ChaosNone }

func (c AdviceChaos) window() Time {
	if c.Window > 0 {
		return c.Window
	}
	return DefaultChaosWindow
}

// Suffix renders the knob for scenario names ("flap:8"); empty when
// disabled. CI selects stress rows by scenario name, so the shape is stable.
func (c AdviceChaos) Suffix() string {
	if !c.Enabled() {
		return ""
	}
	return fmt.Sprintf("%s:%d", c.Mode, c.window())
}

// ParseChaos parses a "mode[:window]" chaos spec — "flap:8", "lie",
// "diverge:16". Empty and "none" disable chaos.
func ParseChaos(s string) (AdviceChaos, error) {
	if s == "" || s == "none" {
		return AdviceChaos{}, nil
	}
	mode, win, hasWin := strings.Cut(s, ":")
	var c AdviceChaos
	switch mode {
	case "flap":
		c.Mode = ChaosFlap
	case "lie":
		c.Mode = ChaosLie
	case "diverge":
		c.Mode = ChaosDiverge
	default:
		return AdviceChaos{}, fmt.Errorf("fdet: unknown chaos mode %q (valid: %s, each with optional :window)",
			mode, strings.Join(ChaosModes(), " | "))
	}
	if hasWin {
		w, err := strconv.Atoi(win)
		if err != nil || w < 1 {
			return AdviceChaos{}, fmt.Errorf("fdet: chaos window %q must be a positive tick count", win)
		}
		c.Window = Time(w)
	}
	return c, nil
}

// WithChaos wraps d under the given chaos knob; a disabled knob returns d
// unchanged. The wrapped detector keeps d's family contract — only the
// pre-stabilization output changes — so any Check* audit that accepts d's
// histories accepts the wrapped ones.
func WithChaos(d Detector, c AdviceChaos) Detector {
	if !c.Enabled() {
		return d
	}
	return chaosDetector{inner: d, c: c}
}

// chaosDetector is the Detector wrapper WithChaos returns.
type chaosDetector struct {
	inner Detector
	c     AdviceChaos
}

// Name implements Detector ("LiveOmega+flap:8").
func (d chaosDetector) Name() string { return d.inner.Name() + "+" + d.c.Suffix() }

// History implements Detector: hostile values on [0, stabilize), the inner
// history from stabilize on. The hostile values mimic the shape of the
// inner family's stabilized output (leader int, index set, k-vector), so
// consumers parse them as ordinary advice.
func (d chaosDetector) History(p Pattern, stabilize Time, seed int64) History {
	inner := d.inner.History(p, stabilize, seed)
	// Shape probe: the stabilized output tells us what well-typed hostile
	// values must look like. Histories are pure functions, so the probe is
	// side-effect free.
	return chaosHistory{inner: inner, shape: inner.Query(0, stabilize), p: p, mode: d.c.Mode,
		w: d.c.window(), stabilize: stabilize, lieSeed: d.c.Seed*1_000_003 + seed}
}

// chaosHistory is chaosValue's schedule before stabilize and inner from it
// on.
type chaosHistory struct {
	inner        History
	shape        any
	p            Pattern
	mode         ChaosMode
	w, stabilize Time
	lieSeed      int64
}

func (h chaosHistory) Query(i int, t Time) any {
	if t >= h.stabilize {
		return h.inner.Query(i, t)
	}
	return chaosValue(h.mode, h.p, h.shape, h.w, h.lieSeed, i, t)
}

// NextTransition implements History. Pre-stabilization the output is a
// function of ⌊t/W⌋, so the only change points are window boundaries —
// plus the stabilization instant itself, where the schedule hands over to
// the inner history. After it, the inner enumerator is authoritative (its
// own pre-stabilization density is irrelevant: those times are never
// queried through it).
func (h chaosHistory) NextTransition(t Time) (Time, bool) {
	if t < h.stabilize {
		return min((t/h.w+1)*h.w, h.stabilize), true
	}
	return h.inner.NextTransition(t)
}

// chaosValue synthesizes the hostile output for module i at time t, shaped
// like the inner family's stabilized output. Any well-typed value is legal
// before stabilization, so the synthesis only has to be deterministic and
// hostile, not family-aware.
func chaosValue(mode ChaosMode, p Pattern, shape any, w Time, lieSeed int64, i int, t Time) any {
	n := p.N
	win := t / w
	off := 0
	if mode == ChaosDiverge {
		off = i + 1 // every module one step out of phase with every other
	}
	switch v := shape.(type) {
	case int:
		if mode == ChaosLie {
			return lieLeader(p, lieSeed, win)
		}
		return (win + off) % n
	case []int:
		size := min(len(v), n)
		var out []int
		if mode == ChaosLie {
			s := noise(lieSeed, 0, win)
			out = s.perm(n)[:size]
		} else {
			out = make([]int, size)
			for o := range out {
				out[o] = (win + off + o) % n
			}
		}
		slices.Sort(out)
		return out
	default:
		// Shapeless families (Trivial's ⊥): nothing hostile to forge.
		return shape
	}
}

// lieLeader draws the agreed-but-wrong leader of a lie window: module-
// independent (all modules trust it together) and biased toward faulty
// processes when the pattern has any — the most damaging legal prefix.
func lieLeader(p Pattern, lieSeed int64, win Time) (leader int) {
	faulty := 0
	for q := 0; q < p.N; q++ {
		if p.Faulty(q) {
			faulty++
		}
	}
	s := noise(lieSeed, 0, win)
	if faulty == 0 || s.intn(2) != 0 {
		return s.intn(p.N)
	}
	// The r-th faulty process, counting from 0 in index order.
	for r := s.intn(faulty); ; leader++ {
		if p.Faulty(leader) {
			if r == 0 {
				return leader
			}
			r--
		}
	}
}

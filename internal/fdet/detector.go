package fdet

import (
	"fmt"
	"slices"
)

// History is a failure detector history H: Query(i, t) is the value output
// by the detector module of S-process q_{i+1} at time t (H(q_i, τ) in the
// paper). Implementations must be deterministic functions of (i, t).
//
// Because a history is a pure function of (module, time), the set of times
// at which any module's output may change is itself a function of the
// history's parameters — noise flips every tick until stabilization, an Ω
// leader appears exactly at the stabilization time, a live-Ω leader moves
// exactly at crash times. NextTransition enumerates those times, so a live
// advice service steps from transition to transition and a converged history
// costs it nothing.
type History interface {
	Query(i int, t Time) any
	// NextTransition returns the smallest time strictly after t at which
	// some module's advice may differ from its advice at t. ok=false means
	// the history is constant from t on (no further transitions).
	// NextTransition may be conservative — it may name times at which
	// nothing actually changes — but it must never skip a real change.
	NextTransition(t Time) (next Time, ok bool)
}

// Detector generates, for each failure pattern, one history from the set
// D(F). The seed selects among the permitted histories; in particular it
// drives arbitrary pre-stabilization output.
type Detector interface {
	// Name returns the detector's name ("Omega", "AntiOmega-2", ...).
	Name() string
	// History returns a history in D(F). stabilize is the time after which
	// the detector's eventual properties hold; before it the output may be
	// arbitrary (seeded noise).
	History(p Pattern, stabilize Time, seed int64) History
}

// funcHistory is the History behind HistoryFunc.
type funcHistory func(i int, t Time) any

func (f funcHistory) Query(i int, t Time) any { return f(i, t) }

// NextTransition implements History: nothing is known about when f's
// output moves, so it names every tick.
func (funcHistory) NextTransition(t Time) (Time, bool) { return t + 1, true }

// HistoryFunc returns a History backed by f alone. Nothing is known about
// when f's output moves, so it enumerates conservatively: every tick.
func HistoryFunc(f func(i int, t Time) any) History { return funcHistory(f) }

// nextTick enumerates the transitions of a history that may move every tick
// before stabilize and is constant from it on.
func nextTick(t, stabilize Time) (Time, bool) {
	if t < stabilize {
		return t + 1, true
	}
	return 0, false
}

// DetectorNames lists the families resolvable by ByName.
func DetectorNames() []string {
	return []string{"trivial", "omega", "live-omega", "anti-omega", "vector-omega"}
}

// ByName resolves a detector family by name; k parameterizes the ¬Ωk and
// vector-Ωk families (ignored by the others). It is the library-level
// registry behind the wfadvice.DetectorByName facade. A core.Scenario does
// not look detectors up by name: its task fixes the one it runs under.
func ByName(name string, k int) (Detector, error) {
	switch name {
	case "trivial":
		return Trivial{}, nil
	case "omega":
		return Omega{}, nil
	case "live-omega":
		return LiveOmega{}, nil
	case "anti-omega":
		return AntiOmegaK{K: k}, nil
	case "vector-omega":
		return VectorOmegaK{K: k, GoodPos: 0}, nil
	default:
		return nil, fmt.Errorf("fdet: unknown detector %q (valid: %v)", name, DetectorNames())
	}
}

// Trivial is the trivial failure detector: it always outputs ⊥ (nil). A task
// solvable with Trivial and n ≥ m is exactly a wait-free solvable task
// (Proposition 2).
type Trivial struct{}

var _ Detector = Trivial{}

// Name implements Detector.
func (Trivial) Name() string { return "Trivial" }

// History implements Detector.
func (Trivial) History(Pattern, Time, int64) History { return trivialHistory{} }

// trivialHistory is ⊥ at every module forever.
type trivialHistory struct{}

func (trivialHistory) Query(int, Time) any              { return nil }
func (trivialHistory) NextTransition(Time) (Time, bool) { return 0, false }

// Omega is the Ω leader detector: eventually the same correct S-process is
// permanently output at all correct processes. Ω is equivalent to ¬Ω1.
// Values are S-process indices (int).
type Omega struct{}

var _ Detector = Omega{}

// Name implements Detector.
func (Omega) Name() string { return "Omega" }

// History implements Detector.
func (Omega) History(p Pattern, stabilize Time, seed int64) History {
	return omegaHistory{n: p.N, leader: p.MinCorrect(), stabilize: stabilize, seed: seed}
}

// omegaHistory is seeded noise before stabilize and leader from it on.
type omegaHistory struct {
	n, leader int
	stabilize Time
	seed      int64
}

func (h omegaHistory) Query(i int, t Time) any {
	if t >= h.stabilize {
		return h.leader
	}
	s := noise(h.seed, i, t)
	return s.intn(h.n)
}

func (h omegaHistory) NextTransition(t Time) (Time, bool) { return nextTick(t, h.stabilize) }

// LiveOmega generates Ω histories whose post-stabilization output is the
// lowest-indexed S-process still alive at query time. Crashes are finitely
// many, so the output is eventually the constant MinCorrect — a legal Ω
// history. Unlike Omega (which advises MinCorrect from the start and so
// never advises a faulty process after stabilization), LiveOmega elects a
// process that the pattern then kills: leadership visibly migrates at each
// crash of the acting leader. efd-kv's -crash-leader runs use it to crash
// the advised kv leader mid-batch and exercise the re-proposal/dedup path.
type LiveOmega struct{}

var _ Detector = LiveOmega{}

// Name implements Detector.
func (LiveOmega) Name() string { return "LiveOmega" }

// History implements Detector.
func (LiveOmega) History(p Pattern, stabilize Time, seed int64) History {
	return liveOmegaHistory{p: p, stabilize: stabilize, seed: seed}
}

// liveOmegaHistory is seeded noise before stabilize and the lowest process
// alive at query time from it on.
type liveOmegaHistory struct {
	p         Pattern
	stabilize Time
	seed      int64
}

func (h liveOmegaHistory) Query(i int, t Time) any {
	if t < h.stabilize {
		s := noise(h.seed, i, t)
		return s.intn(h.p.N)
	}
	return h.p.MinAlive(t)
}

// NextTransition implements History: every tick while noisy, then each
// later crash time (the only instants the min-alive process can change).
func (h liveOmegaHistory) NextTransition(t Time) (Time, bool) {
	if t < h.stabilize {
		return t + 1, true
	}
	next := NoCrash
	for _, ct := range h.p.CrashAt {
		if ct > t && ct < next {
			next = ct
		}
	}
	if next == NoCrash {
		return 0, false
	}
	return next, true
}

// CheckOmega audits a recorded output stream against Ω's property over the
// suffix [stabilize, horizon): all correct processes permanently output the
// same correct process. outputs[i][t] is the value at q_{i+1}, time t.
func CheckOmega(p Pattern, outputs map[int]map[Time]any, stabilize, horizon Time) error {
	var leader = -1
	for _, i := range p.Correct() {
		for t := stabilize; t < horizon; t++ {
			v, ok := outputs[i][t]
			if !ok {
				continue
			}
			l, isInt := v.(int)
			if !isInt {
				return fmt.Errorf("q%d output %v (%T) at %d, want int", i+1, v, v, t)
			}
			if leader == -1 {
				leader = l
			}
			if l != leader {
				return fmt.Errorf("q%d output leader q%d at %d, want q%d", i+1, l+1, t, leader+1)
			}
		}
	}
	if leader == -1 {
		return fmt.Errorf("no outputs recorded in suffix")
	}
	if p.Faulty(leader) {
		return fmt.Errorf("stable leader q%d is faulty", leader+1)
	}
	return nil
}

// AntiOmegaK is the ¬Ωk detector (Raynal; Zieliński): it outputs, at every
// S-process and every time, a set of n−k S-process indices, and guarantees
// that some correct S-process is eventually never output at any correct
// process. ¬Ω1 is equivalent to Ω. By Proposition 6 it is the weakest
// failure detector for k-set agreement in EFD, and by Theorem 10 the weakest
// detector for every task of concurrency level k.
type AntiOmegaK struct {
	K int
}

var _ Detector = AntiOmegaK{}

// Name implements Detector.
func (d AntiOmegaK) Name() string { return fmt.Sprintf("AntiOmega-%d", d.K) }

// History implements Detector: after stabilization, the output is a set of
// n−k processes that never includes the "safe" process (the smallest correct
// one) but otherwise rotates through all remaining processes, exercising
// consumers against maximal permitted variety. Before stabilization the sets
// are arbitrary.
func (d AntiOmegaK) History(p Pattern, stabilize Time, seed int64) History {
	return antiOmegaHistory{n: p.N, size: max(p.N-d.K, 0), safe: p.MinCorrect(), stabilize: stabilize, seed: seed}
}

// antiOmegaHistory outputs sorted sets of size processes: seeded ones before
// stabilize, then a window rotating over every process but safe.
type antiOmegaHistory struct {
	n, size, safe int
	stabilize     Time
	seed          int64
}

func (h antiOmegaHistory) Query(i int, t Time) any {
	var out []int
	if t >= h.stabilize {
		// Rotate the window over the n−1 processes other than safe.
		out = make([]int, h.size)
		for o := range out {
			x := (t + o + i) % (h.n - 1)
			if x >= h.safe {
				x++
			}
			out[o] = x
		}
	} else {
		s := noise(h.seed, i, t)
		out = s.perm(h.n)[:h.size]
	}
	slices.Sort(out)
	return out
}

// NextTransition implements History: the post-stabilization window rotates
// at every tick, so there is a transition at every tick forever.
func (antiOmegaHistory) NextTransition(t Time) (Time, bool) { return t + 1, true }

// CheckAntiOmegaK audits a recorded output stream against the ¬Ωk property
// over the suffix [stabilize, horizon): there is a correct process that no
// correct process ever outputs in the suffix. outputs[i][t] is the []int set
// output at q_{i+1} at time t; missing entries are ignored (a process that
// is not scheduled emits nothing).
func CheckAntiOmegaK(p Pattern, k int, outputs map[int]map[Time][]int, stabilize, horizon Time) error {
	everOutput := make(map[int]bool)
	n := p.N
	any := false
	for _, i := range p.Correct() {
		for t := stabilize; t < horizon; t++ {
			set, ok := outputs[i][t]
			if !ok {
				continue
			}
			any = true
			if len(set) != n-k {
				return fmt.Errorf("q%d output %d ids at %d, want n-k=%d", i+1, len(set), t, n-k)
			}
			for _, x := range set {
				if x < 0 || x >= n {
					return fmt.Errorf("q%d output id %d out of range at %d", i+1, x, t)
				}
				everOutput[x] = true
			}
		}
	}
	if !any {
		return fmt.Errorf("no outputs recorded in suffix")
	}
	for _, c := range p.Correct() {
		if !everOutput[c] {
			return nil // q_{c+1} is the eventually-never-output correct process
		}
	}
	return fmt.Errorf("every correct process was output during the suffix; ¬Ω%d violated", k)
}

// VectorOmegaK is the vector-Ω-k detector of Zieliński, equivalent to ¬Ωk
// (§4.2): it outputs a k-vector of S-process indices such that eventually at
// least one position stabilizes on the same correct process at all correct
// processes. The Figure 2 simulation consumes this form.
type VectorOmegaK struct {
	K int
	// GoodPos, if in [0,K), fixes which position stabilizes; otherwise the
	// seed picks one. Positions other than the good one flap forever unless
	// Pinned is set.
	GoodPos int
	// Pinned makes every position stabilize, each on a distinct correct
	// process when enough exist (a legal — stronger than required — history;
	// the Figure 1 witness construction uses it to know exactly which
	// S-processes drive progress).
	Pinned bool
}

var _ Detector = VectorOmegaK{}

// Name implements Detector.
func (d VectorOmegaK) Name() string { return fmt.Sprintf("VectorOmega-%d", d.K) }

// History implements Detector.
func (d VectorOmegaK) History(p Pattern, stabilize Time, seed int64) History {
	good := d.GoodPos
	if good < 0 || good >= d.K {
		// Module −1 is no module: the pick draws apart from every module's
		// noise.
		s := noise(seed, -1, 0)
		good = s.intn(d.K)
	}
	return vectorOmegaHistory{p: p, k: d.K, good: good, leader: p.MinCorrect(),
		pinned: d.Pinned, stabilize: stabilize, seed: seed}
}

// vectorOmegaHistory outputs k-vectors of seeded noise whose position good
// holds leader from stabilize on (every position, if pinned).
type vectorOmegaHistory struct {
	p               Pattern
	k, good, leader int
	pinned          bool
	stabilize       Time
	seed            int64
}

func (h vectorOmegaHistory) Query(i int, t Time) any {
	v := make([]int, h.k)
	s := noise(h.seed, i, t)
	for j := range v {
		v[j] = s.intn(h.p.N)
	}
	if t >= h.stabilize {
		if h.pinned {
			cycleCorrect(v, h.p)
		}
		v[h.good] = h.leader
	}
	return v
}

// NextTransition implements History: pinned (or single-position) vectors
// are constant after stabilization; otherwise the non-good positions flap
// forever, so there is a transition at every tick.
func (h vectorOmegaHistory) NextTransition(t Time) (Time, bool) {
	if h.pinned || h.k == 1 {
		return nextTick(t, h.stabilize)
	}
	return t + 1, true
}

// cycleCorrect sets v[j] to p.Correct()[j mod |Correct|] for every j.
func cycleCorrect(v []int, p Pattern) {
	c := 0
	for q := 0; q < p.N && c < len(v); q++ {
		if !p.Faulty(q) {
			v[c] = q
			c++
		}
	}
	for j := c; j < len(v); j++ {
		v[j] = v[j-c]
	}
}

// PinnedLeaders returns the stabilized leader of every position of a Pinned
// vector-Ωk history over pattern p (position good carries MinCorrect).
func (d VectorOmegaK) PinnedLeaders(p Pattern) []int {
	v := make([]int, d.K)
	cycleCorrect(v, p)
	good := d.GoodPos
	if good >= 0 && good < d.K {
		v[good] = p.MinCorrect()
	}
	return v
}

// CheckVectorOmegaK audits recorded k-vector outputs over the suffix: some
// position holds the same correct process in every recorded output of every
// correct process.
func CheckVectorOmegaK(p Pattern, k int, outputs map[int]map[Time][]int, stabilize, horizon Time) error {
	candidate := make([]int, k)
	fixed := make([]bool, k)
	alive := make([]bool, k)
	for j := range alive {
		alive[j] = true
	}
	any := false
	for _, i := range p.Correct() {
		for t := stabilize; t < horizon; t++ {
			v, ok := outputs[i][t]
			if !ok {
				continue
			}
			if len(v) != k {
				return fmt.Errorf("q%d output a %d-vector at %d, want %d", i+1, len(v), t, k)
			}
			any = true
			for j := 0; j < k; j++ {
				if !alive[j] {
					continue
				}
				if !fixed[j] {
					candidate[j], fixed[j] = v[j], true
					continue
				}
				if v[j] != candidate[j] {
					alive[j] = false
				}
			}
		}
	}
	if !any {
		return fmt.Errorf("no outputs recorded in suffix")
	}
	for j := 0; j < k; j++ {
		if alive[j] && fixed[j] && !p.Faulty(candidate[j]) {
			return nil
		}
	}
	return fmt.Errorf("no position stabilized on a correct process; vector-Ω%d violated", k)
}

// FirstAlive is the §2.3 counterexample detector: it outputs q1 if q1 is
// correct in the failure pattern and q2 otherwise, at every process and
// every time. It classically solves consensus between p1 and p2 in E_2 but
// does not EFD-solve it: knowing that q1 is correct says nothing about
// whether the computation process p1 ever takes another step.
type FirstAlive struct{}

var _ Detector = FirstAlive{}

// Name implements Detector.
func (FirstAlive) Name() string { return "FirstAlive" }

// History implements Detector.
func (FirstAlive) History(p Pattern, _ Time, _ int64) History {
	out := 1
	if !p.Faulty(0) {
		out = 0
	}
	return constHistory{out}
}

// constHistory outputs v at every module forever.
type constHistory struct{ v int }

func (h constHistory) Query(int, Time) any            { return h.v }
func (constHistory) NextTransition(Time) (Time, bool) { return 0, false }

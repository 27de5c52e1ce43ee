package fdet

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// History is a failure detector history H: Query(i, t) is the value output
// by the detector module of S-process q_{i+1} at time t (H(q_i, τ) in the
// paper). Implementations must be deterministic functions of (i, t).
//
// Because a history is a pure function of (module, time), the set of times
// at which any module's output may change is itself a function of the
// history's parameters — noise flips every tick until stabilization, an Ω
// leader appears exactly at the stabilization time, ◇P suspicion sets move
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

// funcHistory is the one History implementation: a query function paired
// with a transition enumerator.
type funcHistory struct {
	f    func(i int, t Time) any
	next func(t Time) (Time, bool)
}

func (h funcHistory) Query(i int, t Time) any            { return h.f(i, t) }
func (h funcHistory) NextTransition(t Time) (Time, bool) { return h.next(t) }

// HistoryFunc returns a History backed by f alone. Nothing is known about
// when f's output moves, so it enumerates conservatively: every tick.
func HistoryFunc(f func(i int, t Time) any) History { return funcHistory{f, everyTick} }

// HistoryWithTransitions returns a History backed by f whose transition
// times are enumerated by next (see History.NextTransition).
func HistoryWithTransitions(f func(i int, t Time) any, next func(t Time) (Time, bool)) History {
	return funcHistory{f, next}
}

// noisyUntil enumerates the transitions of a history that emits fresh seeded
// noise every tick before stabilize and is constant afterwards.
func noisyUntil(stabilize Time) func(Time) (Time, bool) {
	return func(t Time) (Time, bool) {
		if t < stabilize {
			return t + 1, true
		}
		return 0, false
	}
}

// everyTick enumerates a history that may change at every tick forever
// (rotating windows, permanently flapping vector positions).
func everyTick(t Time) (Time, bool) { return t + 1, true }

// never enumerates a constant history.
func never(Time) (Time, bool) { return 0, false }

// noisePool holds the generators noise draws from. A math/rand source is 607
// words of state, so queries re-seed a pooled one instead of building one
// each: (*rand.Rand).Seed(k) leaves a generator in exactly the state one
// built from scratch for seed k starts in.
var noisePool = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// noise hands draw a deterministic rng for (seed, i, t), so that histories
// are pure functions of their arguments. The generator is only the caller's
// for the duration of draw — it goes back to the pool afterwards — which is
// why it arrives as an argument and not as a result.
func noise(seed int64, i int, t Time, draw func(rng *rand.Rand)) {
	rng := noisePool.Get().(*rand.Rand)
	rng.Seed(seed*1_000_003 + int64(i)*7_919 + int64(t))
	draw(rng)
	noisePool.Put(rng)
}

// DetectorNames lists the families resolvable by ByName.
func DetectorNames() []string {
	return []string{"trivial", "omega", "live-omega", "anti-omega", "vector-omega", "eventually-perfect"}
}

// ByName resolves a detector family by name; k parameterizes the ¬Ωk and
// vector-Ωk families (ignored by the others). It is the library-level
// registry behind the wfadvice.DetectorByName facade, covering every
// family the native advice service can serve. Note that cmd/efd-stress
// selects detectors through core.ScenarioParams instead, which validates
// task-compatible short names (omega | vector | trivial) — only those
// families have consuming algorithms in the scenario zoo.
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
	case "eventually-perfect":
		return EventuallyPerfect{}, nil
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
func (Trivial) History(Pattern, Time, int64) History {
	return HistoryWithTransitions(func(int, Time) any { return nil }, never)
}

// Omega is the Ω leader detector: eventually the same correct S-process is
// permanently output at all correct processes. Ω is equivalent to ¬Ω1.
// Values are S-process indices (int).
type Omega struct{}

var _ Detector = Omega{}

// Name implements Detector.
func (Omega) Name() string { return "Omega" }

// History implements Detector.
func (Omega) History(p Pattern, stabilize Time, seed int64) History {
	leader := p.MinCorrect()
	return HistoryWithTransitions(func(i int, t Time) any {
		if t >= stabilize {
			return leader
		}
		var x int
		noise(seed, i, t, func(rng *rand.Rand) { x = rng.Intn(p.N) })
		return x
	}, noisyUntil(stabilize))
}

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
	// Transitions: every tick while noisy, then each post-stabilization
	// crash time (the only instants the min-alive process can change).
	var crashes []Time
	for i := 0; i < p.N; i++ {
		if p.CrashAt[i] != NoCrash && p.CrashAt[i] >= stabilize {
			crashes = append(crashes, p.CrashAt[i])
		}
	}
	sort.Ints(crashes)
	next := func(t Time) (Time, bool) {
		if t < stabilize {
			return t + 1, true
		}
		for _, ct := range crashes {
			if ct > t {
				return ct, true
			}
		}
		return 0, false
	}
	return HistoryWithTransitions(func(i int, t Time) any {
		if t < stabilize {
			var x int
			noise(seed, i, t, func(rng *rand.Rand) { x = rng.Intn(p.N) })
			return x
		}
		return p.MinAlive(t)
	}, next)
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
	n := p.N
	safe := p.MinCorrect()
	others := make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		if i != safe {
			others = append(others, i)
		}
	}
	size := n - d.K
	if size < 0 {
		size = 0
	}
	// The post-stabilization window rotates at every tick, so the history
	// keeps a transition at every tick forever.
	return HistoryWithTransitions(func(i int, t Time) any {
		out := make([]int, 0, size)
		if t >= stabilize {
			// Rotate a window of size n−k over the non-safe processes.
			for o := 0; o < size; o++ {
				out = append(out, others[(t+o+i)%len(others)])
			}
			return sortedCopy(out)
		}
		noise(seed, i, t, func(rng *rand.Rand) {
			out = append(out, rng.Perm(n)[:size]...)
		})
		return sortedCopy(out)
	}, everyTick)
}

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
	leader := p.MinCorrect()
	good := d.GoodPos
	if good < 0 || good >= d.K {
		good = int(rand.New(rand.NewSource(seed)).Intn(d.K))
	}
	correct := p.Correct()
	// Pinned (or single-position) vectors are constant after stabilization;
	// otherwise the non-good positions flap forever, so the history keeps a
	// transition at every tick.
	next := everyTick
	if d.Pinned || d.K == 1 {
		next = noisyUntil(stabilize)
	}
	return HistoryWithTransitions(func(i int, t Time) any {
		v := make([]int, d.K)
		noise(seed, i, t, func(rng *rand.Rand) {
			for j := range v {
				v[j] = rng.Intn(p.N)
			}
		})
		if t >= stabilize {
			if d.Pinned {
				for j := range v {
					v[j] = correct[j%len(correct)]
				}
			}
			v[good] = leader
		}
		return v
	}, next)
}

// PinnedLeaders returns the stabilized leader of every position of a Pinned
// vector-Ωk history over pattern p (position good carries MinCorrect).
func (d VectorOmegaK) PinnedLeaders(p Pattern) []int {
	correct := p.Correct()
	v := make([]int, d.K)
	for j := range v {
		v[j] = correct[j%len(correct)]
	}
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
	return HistoryWithTransitions(func(int, Time) any { return out }, never)
}

// EventuallyPerfect is the ◇P detector: eventually the output at every
// correct process is exactly the set of faulty processes. Included for
// baseline comparisons in the hierarchy experiments.
type EventuallyPerfect struct{}

var _ Detector = EventuallyPerfect{}

// Name implements Detector.
func (EventuallyPerfect) Name() string { return "EventuallyPerfect" }

// History implements Detector: after stabilization the suspected set is
// exactly the processes crashed so far (which converges to faulty(F));
// before it, arbitrary subsets.
func (EventuallyPerfect) History(p Pattern, stabilize Time, seed int64) History {
	// After stabilization the output only moves when a process crashes, so
	// the remaining transitions are exactly the crash times of the pattern.
	crashes := make([]Time, 0, p.N)
	for _, at := range p.CrashAt {
		if at != NoCrash {
			crashes = append(crashes, at)
		}
	}
	sort.Slice(crashes, func(a, b int) bool { return crashes[a] < crashes[b] })
	next := func(t Time) (Time, bool) {
		if t < stabilize {
			return t + 1, true
		}
		for _, at := range crashes {
			if at > t {
				return at, true
			}
		}
		return 0, false
	}
	return HistoryWithTransitions(func(i int, t Time) any {
		out := make([]int, 0, p.N)
		if t >= stabilize {
			for x := 0; x < p.N; x++ {
				if p.Crashed(x, t) {
					out = append(out, x)
				}
			}
			return out
		}
		noise(seed, i, t, func(rng *rand.Rand) {
			for x := 0; x < p.N; x++ {
				if rng.Intn(2) == 0 {
					out = append(out, x)
				}
			}
		})
		return out
	}, next)
}

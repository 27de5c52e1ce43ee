package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"wfadvice/internal/ids"
)

// View is the scheduler's observation of the system between steps.
type View struct {
	Step int
	NC   int
	NS   int
	// Ready lists the processes that can take the next step (parked at an
	// operation and, for S-processes, not crashed), in stable id order.
	Ready []ids.Proc
	// Started reports whether a process took at least one step (for
	// C-processes this is the paper's "participating").
	Started map[ids.Proc]bool
	// DecidedC reports which C-process indices have decided.
	DecidedC map[int]bool
	// UndecidedParticipating lists C-process indices that participate but
	// have not decided — the quantity bounded by k-concurrency.
	UndecidedParticipating []int
	// Pending maps every parked process (ready or crashed) to the operation
	// it will perform on its next granted step. Schedule explorers consult it
	// to decide which pending operations commute.
	Pending map[ids.Proc]PendingOp

	stepsOf    map[ids.Proc]int
	decisions  map[int]Value
	cRemaining int
}

// CRemaining is the number of spawned C-processes that have not decided
// (including processes that have not yet taken their first step).
func (v *View) CRemaining() int { return v.cRemaining }

// IsReady reports whether p may take the next step.
func (v *View) IsReady(p ids.Proc) bool {
	for _, q := range v.Ready {
		if q == p {
			return true
		}
	}
	return false
}

// StepsOf returns how many steps p has taken.
func (v *View) StepsOf(p ids.Proc) int { return v.stepsOf[p] }

// Scheduler picks the next process to step. Returning ok=false stops the
// run. Schedulers must pick from v.Ready.
type Scheduler interface {
	Next(v *View) (ids.Proc, bool)
}

// RoundRobin cycles through the ready processes in stable order, giving
// every live correct process infinitely many steps: the canonical fair
// scheduler.
type RoundRobin struct {
	cursor int
	order  []ids.Proc
}

var _ Scheduler = (*RoundRobin)(nil)

// Next implements Scheduler.
func (s *RoundRobin) Next(v *View) (ids.Proc, bool) {
	if len(v.Ready) == 0 {
		return ids.Proc{}, false
	}
	if s.order == nil {
		s.order = append(s.order, v.Ready...)
	}
	// Refresh the order with any processes not yet known (stable append).
	known := make(map[ids.Proc]bool, len(s.order))
	for _, p := range s.order {
		known[p] = true
	}
	for _, p := range v.Ready {
		if !known[p] {
			s.order = append(s.order, p)
		}
	}
	for i := 0; i < len(s.order); i++ {
		p := s.order[(s.cursor+i)%len(s.order)]
		if v.IsReady(p) {
			s.cursor = (s.cursor + i + 1) % len(s.order)
			return p, true
		}
	}
	return ids.Proc{}, false
}

// Random picks uniformly among ready processes with a seeded source,
// providing fair-with-probability-1 adversarial-ish interleavings.
type Random struct {
	Rng *rand.Rand
}

var _ Scheduler = (*Random)(nil)

// NewRandom returns a Random scheduler with the given seed.
func NewRandom(seed int64) *Random { return &Random{Rng: rand.New(rand.NewSource(seed))} }

// Next implements Scheduler.
func (s *Random) Next(v *View) (ids.Proc, bool) {
	if len(v.Ready) == 0 {
		return ids.Proc{}, false
	}
	return v.Ready[s.Rng.Intn(len(v.Ready))], true
}

// Bursty is the hostile counterpart of Random: it keeps whoever is running
// for a burst, and sometimes freezes the process it switches away from — the
// shape of a goroutine that runs through its quantum and is then descheduled
// while everyone else moves on. Uniform scheduling almost never builds the
// schedules an adversary would (a replica acting on knowledge hundreds of
// steps old); this one builds them on purpose. It is fair with probability
// 1: freezes end, and every pick is uniform among the candidates.
//
// At each switch the outgoing process is frozen with probability FreezeProb
// for uniform [1, FreezeLen] scheduler calls, the next process is picked
// uniformly among the ready unfrozen ones (among all ready ones when every
// one is frozen) and runs for a further uniform [0, 2·Burst) steps while it
// stays ready. Burst 0 with FreezeProb 0 is uniform Random.
type Bursty struct {
	Seed       int64
	Burst      int
	FreezeProb float64
	FreezeLen  int

	rng    *rand.Rand
	calls  int
	cur    ids.Proc
	left   int              // steps left in cur's burst
	thawAt map[ids.Proc]int // first call at which a frozen process may run again
}

var _ Scheduler = (*Bursty)(nil)

// frozen reports whether p is frozen at the current scheduler call.
func (s *Bursty) frozen(p ids.Proc) bool { return s.thawAt[p] > s.calls }

// Next implements Scheduler.
func (s *Bursty) Next(v *View) (ids.Proc, bool) {
	if len(v.Ready) == 0 {
		return ids.Proc{}, false
	}
	s.calls++
	switch {
	case s.rng == nil:
		s.rng = rand.New(rand.NewSource(s.Seed))
		s.thawAt = make(map[ids.Proc]int)
	case s.left > 0 && v.IsReady(s.cur):
		s.left--
		return s.cur, true
	case s.FreezeLen > 0 && s.rng.Float64() < s.FreezeProb:
		// Frozen for this call and up to FreezeLen-1 after it.
		s.thawAt[s.cur] = s.calls + 1 + s.rng.Intn(s.FreezeLen)
	}
	var thawed []ids.Proc
	for _, p := range v.Ready {
		if !s.frozen(p) {
			thawed = append(thawed, p)
		}
	}
	if len(thawed) == 0 {
		thawed = v.Ready
	}
	s.cur = thawed[s.rng.Intn(len(thawed))]
	delete(s.thawAt, s.cur) // a fallback pick ends that process's freeze
	s.left = 0
	if s.Burst > 0 {
		s.left = s.rng.Intn(2 * s.Burst)
	}
	return s.cur, true
}

// KGate wraps an inner scheduler and enforces k-concurrency (§2.2): a
// C-process that has not yet taken a step is admitted only while fewer than
// K participating C-processes are undecided. Runs produced under a KGate are
// k-concurrent by construction; the analyzer MaxConcurrency verifies it.
type KGate struct {
	K     int
	Inner Scheduler
}

var _ Scheduler = (*KGate)(nil)

// Next implements Scheduler.
func (s *KGate) Next(v *View) (ids.Proc, bool) {
	undecided := len(v.UndecidedParticipating)
	filtered := *v
	filtered.Ready = nil
	for _, p := range v.Ready {
		if p.IsC() && !v.Started[p] && undecided >= s.K {
			continue // hold at the gate
		}
		filtered.Ready = append(filtered.Ready, p)
	}
	if len(filtered.Ready) == 0 {
		return ids.Proc{}, false
	}
	return s.Inner.Next(&filtered)
}

// PauseWindow excludes one process from scheduling during [From, To). It
// demonstrates wait-freedom: pausing one C-process must not prevent others
// from deciding, and a paused C-process must still decide after resuming.
type PauseWindow struct {
	Proc     ids.Proc
	From, To int
	Inner    Scheduler
}

var _ Scheduler = (*PauseWindow)(nil)

// Next implements Scheduler.
func (s *PauseWindow) Next(v *View) (ids.Proc, bool) {
	if v.Step >= s.From && v.Step < s.To {
		filtered := *v
		filtered.Ready = nil
		for _, p := range v.Ready {
			if p != s.Proc {
				filtered.Ready = append(filtered.Ready, p)
			}
		}
		if len(filtered.Ready) == 0 {
			return ids.Proc{}, false
		}
		return s.Inner.Next(&filtered)
	}
	return s.Inner.Next(v)
}

// Exclude permanently removes a set of processes from scheduling. Excluding
// a C-process forever models the EFD scenario where a computation process
// simply stops taking steps without crashing.
type Exclude struct {
	Procs []ids.Proc
	Inner Scheduler
}

var _ Scheduler = (*Exclude)(nil)

// Next implements Scheduler.
func (s *Exclude) Next(v *View) (ids.Proc, bool) {
	filtered := *v
	filtered.Ready = nil
	for _, p := range v.Ready {
		skip := false
		for _, x := range s.Procs {
			if p == x {
				skip = true
				break
			}
		}
		if !skip {
			filtered.Ready = append(filtered.Ready, p)
		}
	}
	if len(filtered.Ready) == 0 {
		return ids.Proc{}, false
	}
	return s.Inner.Next(&filtered)
}

// Scripted follows an explicit schedule, one process per step; entries that
// are not ready are skipped. When the script is exhausted it falls back to
// Tail (stopping if Tail is nil). Scripted schedules realize the paper's
// "corridor" runs.
type Scripted struct {
	Seq  []ids.Proc
	Tail Scheduler
	pos  int
}

var _ Scheduler = (*Scripted)(nil)

// Next implements Scheduler.
func (s *Scripted) Next(v *View) (ids.Proc, bool) {
	for s.pos < len(s.Seq) {
		p := s.Seq[s.pos]
		s.pos++
		if v.IsReady(p) {
			return p, true
		}
	}
	if s.Tail != nil {
		return s.Tail.Next(v)
	}
	return ids.Proc{}, false
}

// Personified couples C-process scheduling to S-process liveness (§2.3): a
// C-process is scheduled only while its S-counterpart is still alive, which
// is exactly the conventional failure-detector model embedded in EFD. The
// inner scheduler sees the filtered view.
type Personified struct {
	Pattern interface{ Crashed(i, t int) bool }
	Inner   Scheduler
}

var _ Scheduler = (*Personified)(nil)

// Next implements Scheduler.
func (s *Personified) Next(v *View) (ids.Proc, bool) {
	filtered := *v
	filtered.Ready = nil
	for _, p := range v.Ready {
		if p.IsC() && s.Pattern.Crashed(p.Index, v.Step) {
			continue
		}
		filtered.Ready = append(filtered.Ready, p)
	}
	if len(filtered.Ready) == 0 {
		return ids.Proc{}, false
	}
	return s.Inner.Next(&filtered)
}

// Priority always schedules the first ready process of Procs, falling back
// to Inner when none is ready. It builds starvation adversaries.
type Priority struct {
	Procs []ids.Proc
	Inner Scheduler
}

var _ Scheduler = (*Priority)(nil)

// Next implements Scheduler.
func (s *Priority) Next(v *View) (ids.Proc, bool) {
	for _, p := range s.Procs {
		if v.IsReady(p) {
			return p, true
		}
	}
	if s.Inner != nil {
		return s.Inner.Next(v)
	}
	return ids.Proc{}, false
}

// StopWhenDecided ends the run as soon as every spawned C-process has
// decided. S-processes conceptually run forever; once the computation side
// is done, extending the run adds nothing, so bounded experiments wrap their
// scheduler in this.
type StopWhenDecided struct {
	Inner Scheduler
}

var _ Scheduler = (*StopWhenDecided)(nil)

// Next implements Scheduler.
func (s *StopWhenDecided) Next(v *View) (ids.Proc, bool) {
	if v.CRemaining() == 0 {
		return ids.Proc{}, false
	}
	return s.Inner.Next(v)
}

// Replay follows a recorded schedule exactly, one process per step. Unlike
// Scripted it never skips an entry: if the expected process is not ready the
// run has diverged from the recording, Divergence is set, and the run stops.
// It is the scheduler behind trace replay — a recorded violating run must
// reproduce step for step or fail loudly.
type Replay struct {
	Seq []ids.Proc
	pos int
	// Divergence records the first point where the recorded schedule could
	// not be followed (nil after a faithful replay).
	Divergence error
}

var _ Scheduler = (*Replay)(nil)

// Next implements Scheduler.
func (s *Replay) Next(v *View) (ids.Proc, bool) {
	if s.pos >= len(s.Seq) {
		return ids.Proc{}, false
	}
	p := s.Seq[s.pos]
	if !v.IsReady(p) {
		s.Divergence = fmt.Errorf("sim: replay diverged at step %d: %v not ready", s.pos, p)
		return ids.Proc{}, false
	}
	s.pos++
	return p, true
}

// Replayed reports how many schedule entries were granted.
func (s *Replay) Replayed() int { return s.pos }

// SortProcs sorts a process slice in the stable id order.
func SortProcs(ps []ids.Proc) {
	sort.Slice(ps, func(i, j int) bool { return ps[i].Less(ps[j]) })
}

// SortedStoreKeys returns the keys of a shared-memory snapshot in sorted
// order. Anything that hashes or renders a store (exploration state hashing,
// trace dumps) must iterate in this order, never raw map order.
func SortedStoreKeys(store map[string]Value) []string {
	keys := make([]string, 0, len(store))
	for k := range store {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

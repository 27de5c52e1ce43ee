// Package task implements the decision-task formalism of "Wait-Freedom with
// Advice" (§2.1) and the paper's task zoo: (U,k)-agreement (hence k-set
// agreement and consensus), (j,ℓ)-renaming (hence strong renaming), weak
// symmetry breaking, and the identity task.
//
// A task is a triple (I, O, ∆) of input vectors, output vectors and a total
// relation between them, subject to the paper's three structural rules:
// (1) non-participants do not decide, (2) ∆ is closed under output prefixes,
// and (3) every output for an input prefix extends to an output for the full
// input. Rather than materialize ∆, each Task validates (I, O) pairs; tasks
// additionally expose a sequential extension rule used by the Proposition 1
// solver (every task is 1-concurrently solvable).
package task

import (
	"fmt"

	"wfadvice/internal/vec"
)

// Task is a decision task over n C-processes.
type Task interface {
	// Name returns a short human-readable identifier.
	Name() string
	// N returns the number of C-processes the task is defined over.
	N() int
	// InDomain reports whether in is a legal input vector (a member of I).
	InDomain(in vec.Vector) error
	// Validate checks that (in, out) ∈ ∆ together with the structural rule
	// that non-participants have ⊥ outputs. It must accept out vectors that
	// are prefixes of acceptable full outputs (∆ is prefix-closed), because a
	// run's undecided processes leave ⊥ entries.
	Validate(in, out vec.Vector) error
}

// Check judges a run's (I, O) pair against t: the inputs lie in I and the
// outputs are ∆-related to them (undecided ⊥ entries are permitted, ∆
// being prefix-closed). Both execution backends judge their runs with it.
func Check(t Task, in, out vec.Vector) error {
	if err := t.InDomain(in); err != nil {
		return fmt.Errorf("input vector outside I: %w", err)
	}
	if err := t.Validate(in, out); err != nil {
		return fmt.Errorf("(I,O) violates ∆: %w", err)
	}
	return nil
}

// Sequential is a task with a constructive sequential specification: given
// the input vector restricted to what a process has seen and the outputs
// decided so far, Extend picks an output value for process i such that the
// partial output remains extendable. This is exactly what the Proposition 1
// algorithm needs.
type Sequential interface {
	Task
	// Extend returns an output value for process i, given i's input in[i]
	// (non-⊥), the inputs observed so far, and the outputs decided so far
	// (out[i] must be ⊥).
	Extend(in, out vec.Vector, i int) (vec.Value, error)
}

// Colorless reports whether t is a colorless task (§2.3, footnote 6): a
// process is free to adopt the input or output value of any other
// participant. Colorless tasks are exactly those for which classical and EFD
// solvability coincide (Proposition 5).
func Colorless(t Task) bool {
	type colorless interface{ Colorless() bool }
	if c, ok := t.(colorless); ok {
		return c.Colorless()
	}
	return false
}

// structural checks shared by all tasks.

func checkShape(n int, in, out vec.Vector) error {
	if len(in) != n {
		return fmt.Errorf("input vector has length %d, want %d", len(in), n)
	}
	if len(out) != n {
		return fmt.Errorf("output vector has length %d, want %d", len(out), n)
	}
	for i := range in {
		if out[i] != nil && in[i] == nil {
			return fmt.Errorf("process p%d decided %v without participating", i+1, out[i])
		}
	}
	return nil
}

// Agreement is the (U,k)-agreement task of §2.1: processes in U propose
// values and every decided value must be a proposed value, with at most k
// distinct decided values overall. U == nil means U = Π^C, giving the
// conventional k-set agreement task; k == 1 gives consensus.
type Agreement struct {
	Procs int   // number of C-processes (n)
	K     int   // maximum number of distinct decisions
	U     []int // participating subset (nil = all processes)
}

var (
	_ Task       = (*Agreement)(nil)
	_ Sequential = (*Agreement)(nil)
)

// NewSetAgreement returns the (Π^C, k)-set agreement task on n processes.
func NewSetAgreement(n, k int) *Agreement { return &Agreement{Procs: n, K: k} }

// NewConsensus returns the consensus task on n processes.
func NewConsensus(n int) *Agreement { return &Agreement{Procs: n, K: 1} }

// NewSubsetAgreement returns the (U,k)-agreement task on n processes where
// only the processes with the given (zero-based) indices may participate.
func NewSubsetAgreement(n, k int, u []int) *Agreement {
	cp := make([]int, len(u))
	copy(cp, u)
	return &Agreement{Procs: n, K: k, U: cp}
}

// Name implements Task.
func (a *Agreement) Name() string {
	if a.U != nil {
		return fmt.Sprintf("(U,%d)-agreement(|U|=%d)", a.K, len(a.U))
	}
	if a.K == 1 {
		return "consensus"
	}
	return fmt.Sprintf("%d-set-agreement", a.K)
}

// N implements Task.
func (a *Agreement) N() int { return a.Procs }

// Colorless marks agreement as a colorless task.
func (a *Agreement) Colorless() bool { return true }

func (a *Agreement) inU(i int) bool {
	if a.U == nil {
		return true
	}
	for _, u := range a.U {
		if u == i {
			return true
		}
	}
	return false
}

// InDomain implements Task.
func (a *Agreement) InDomain(in vec.Vector) error {
	if len(in) != a.Procs {
		return fmt.Errorf("input vector has length %d, want %d", len(in), a.Procs)
	}
	for i, x := range in {
		if x != nil && !a.inU(i) {
			return fmt.Errorf("process p%d participates but is outside U", i+1)
		}
	}
	if in.Count() == 0 {
		return fmt.Errorf("input vector has no participants")
	}
	return nil
}

// Validate implements Task.
func (a *Agreement) Validate(in, out vec.Vector) error {
	if err := checkShape(a.Procs, in, out); err != nil {
		return err
	}
	proposed := make(map[vec.Value]struct{})
	for _, x := range in {
		if x != nil {
			proposed[x] = struct{}{}
		}
	}
	decided := make(map[vec.Value]struct{})
	for i, y := range out {
		if y == nil {
			continue
		}
		if _, ok := proposed[y]; !ok {
			return fmt.Errorf("p%d decided %v, which was never proposed", i+1, y)
		}
		decided[y] = struct{}{}
	}
	if len(decided) > a.K {
		return fmt.Errorf("%d distinct decisions, want at most %d", len(decided), a.K)
	}
	return nil
}

// Extend implements Sequential: adopt an already-decided value if any,
// otherwise decide one's own input. Running sequentially this yields a single
// decided value, which is valid for every k ≥ 1.
func (a *Agreement) Extend(in, out vec.Vector, i int) (vec.Value, error) {
	if in[i] == nil {
		return nil, fmt.Errorf("p%d has no input", i+1)
	}
	for _, y := range out {
		if y != nil {
			return y, nil
		}
	}
	return in[i], nil
}

// Renaming is the (j,ℓ)-renaming task of §5: at most J processes participate
// and each participant must acquire a distinct name in {1..L}. L == J gives
// strong renaming.
type Renaming struct {
	Procs int // number of C-processes (n), n > J
	J     int // maximum number of participants
	L     int // name space size
}

var (
	_ Task       = (*Renaming)(nil)
	_ Sequential = (*Renaming)(nil)
)

// NewRenaming returns the (j,ℓ)-renaming task on n processes.
func NewRenaming(n, j, l int) *Renaming { return &Renaming{Procs: n, J: j, L: l} }

// NewStrongRenaming returns the strong (j,j)-renaming task on n processes.
func NewStrongRenaming(n, j int) *Renaming { return &Renaming{Procs: n, J: j, L: j} }

// Name implements Task.
func (r *Renaming) Name() string {
	if r.J == r.L {
		return fmt.Sprintf("strong-%d-renaming", r.J)
	}
	return fmt.Sprintf("(%d,%d)-renaming", r.J, r.L)
}

// N implements Task.
func (r *Renaming) N() int { return r.Procs }

// InDomain implements Task: at most J participants.
func (r *Renaming) InDomain(in vec.Vector) error {
	if len(in) != r.Procs {
		return fmt.Errorf("input vector has length %d, want %d", len(in), r.Procs)
	}
	if c := in.Count(); c > r.J {
		return fmt.Errorf("%d participants, want at most %d", c, r.J)
	}
	if in.Count() == 0 {
		return fmt.Errorf("input vector has no participants")
	}
	return nil
}

// Validate implements Task: decided names are distinct values in {1..L}.
func (r *Renaming) Validate(in, out vec.Vector) error {
	if err := checkShape(r.Procs, in, out); err != nil {
		return err
	}
	seen := make(map[int]int) // name -> first process index
	for i, y := range out {
		if y == nil {
			continue
		}
		name, ok := y.(int)
		if !ok {
			return fmt.Errorf("p%d decided %v (%T), want an int name", i+1, y, y)
		}
		if name < 1 || name > r.L {
			return fmt.Errorf("p%d decided name %d outside {1..%d}", i+1, name, r.L)
		}
		if j, dup := seen[name]; dup {
			return fmt.Errorf("p%d and p%d both decided name %d", j+1, i+1, name)
		}
		seen[name] = i
	}
	return nil
}

// Extend implements Sequential: take the smallest free name. Sequentially at
// most J names are ever used, so this stays within {1..J} ⊆ {1..L}.
func (r *Renaming) Extend(in, out vec.Vector, i int) (vec.Value, error) {
	if in[i] == nil {
		return nil, fmt.Errorf("p%d has no input", i+1)
	}
	used := make(map[int]bool, r.L)
	for _, y := range out {
		if n, ok := y.(int); ok {
			used[n] = true
		}
	}
	for name := 1; name <= r.L; name++ {
		if !used[name] {
			return name, nil
		}
	}
	return nil, fmt.Errorf("name space {1..%d} exhausted", r.L)
}

// WeakSymmetryBreaking is the WSB task mentioned in the abstract: every
// participant outputs 0 or 1, and in runs where all n processes participate
// and decide, not all outputs may be equal. It is a colored task: outputs
// cannot be adopted from other processes.
type WeakSymmetryBreaking struct {
	Procs int
}

var (
	_ Task       = (*WeakSymmetryBreaking)(nil)
	_ Sequential = (*WeakSymmetryBreaking)(nil)
)

// NewWSB returns the weak symmetry breaking task on n processes.
func NewWSB(n int) *WeakSymmetryBreaking { return &WeakSymmetryBreaking{Procs: n} }

// Name implements Task.
func (w *WeakSymmetryBreaking) Name() string { return "weak-symmetry-breaking" }

// N implements Task.
func (w *WeakSymmetryBreaking) N() int { return w.Procs }

// InDomain implements Task.
func (w *WeakSymmetryBreaking) InDomain(in vec.Vector) error {
	if len(in) != w.Procs {
		return fmt.Errorf("input vector has length %d, want %d", len(in), w.Procs)
	}
	if in.Count() == 0 {
		return fmt.Errorf("input vector has no participants")
	}
	return nil
}

// Validate implements Task.
func (w *WeakSymmetryBreaking) Validate(in, out vec.Vector) error {
	if err := checkShape(w.Procs, in, out); err != nil {
		return err
	}
	zeros, ones := 0, 0
	for i, y := range out {
		if y == nil {
			continue
		}
		b, ok := y.(int)
		if !ok || (b != 0 && b != 1) {
			return fmt.Errorf("p%d decided %v, want 0 or 1", i+1, y)
		}
		if b == 0 {
			zeros++
		} else {
			ones++
		}
	}
	if in.Count() == w.Procs && out.Count() == w.Procs {
		if zeros == 0 || ones == 0 {
			return fmt.Errorf("all %d processes decided the same bit", w.Procs)
		}
	}
	return nil
}

// Extend implements Sequential: output 0 unless this is the last undecided
// process and all previous outputs were equal, in which case flip.
func (w *WeakSymmetryBreaking) Extend(in, out vec.Vector, i int) (vec.Value, error) {
	if in[i] == nil {
		return nil, fmt.Errorf("p%d has no input", i+1)
	}
	if out.Count() == w.Procs-1 {
		allSame := true
		var first vec.Value
		for _, y := range out {
			if y == nil {
				continue
			}
			if first == nil {
				first = y
			} else if y != first {
				allSame = false
			}
		}
		if allSame && first != nil {
			return 1 - first.(int), nil
		}
	}
	return 0, nil
}

// Identity is the trivial task where each participant outputs its own input.
// It is wait-free solvable and anchors concurrency level n in the hierarchy.
type Identity struct {
	Procs int
}

var (
	_ Task       = (*Identity)(nil)
	_ Sequential = (*Identity)(nil)
)

// NewIdentity returns the identity task on n processes.
func NewIdentity(n int) *Identity { return &Identity{Procs: n} }

// Name implements Task.
func (t *Identity) Name() string { return "identity" }

// N implements Task.
func (t *Identity) N() int { return t.Procs }

// InDomain implements Task.
func (t *Identity) InDomain(in vec.Vector) error {
	if len(in) != t.Procs {
		return fmt.Errorf("input vector has length %d, want %d", len(in), t.Procs)
	}
	if in.Count() == 0 {
		return fmt.Errorf("input vector has no participants")
	}
	return nil
}

// Validate implements Task.
func (t *Identity) Validate(in, out vec.Vector) error {
	if err := checkShape(t.Procs, in, out); err != nil {
		return err
	}
	for i, y := range out {
		if y != nil && y != in[i] {
			return fmt.Errorf("p%d decided %v, want its input %v", i+1, y, in[i])
		}
	}
	return nil
}

// Extend implements Sequential.
func (t *Identity) Extend(in, out vec.Vector, i int) (vec.Value, error) {
	if in[i] == nil {
		return nil, fmt.Errorf("p%d has no input", i+1)
	}
	return in[i], nil
}

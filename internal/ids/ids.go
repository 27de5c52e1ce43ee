// Package ids defines process identities for the external-failure-detection
// (EFD) model of Delporte-Gallet et al., "Wait-Freedom with Advice" (PODC
// 2012). The system is split into computation processes (C-processes), which
// receive task inputs and must output wait-free, and synchronization
// processes (S-processes), which may crash and may query a failure detector.
package ids

import "fmt"

// Kind distinguishes computation processes from synchronization processes.
type Kind int

// Process kinds. Enums start at one so the zero Kind is invalid and easy to
// catch in tests.
const (
	KindC Kind = iota + 1 // computation process (p_i in the paper)
	KindS                 // synchronization process (q_i in the paper)
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindC:
		return "C"
	case KindS:
		return "S"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Proc identifies a single process. Index is zero-based; the paper's p_1 is
// C(0) and q_1 is S(0).
type Proc struct {
	Kind  Kind
	Index int
}

// C returns the identity of the i-th computation process (zero-based).
func C(i int) Proc { return Proc{Kind: KindC, Index: i} }

// S returns the identity of the i-th synchronization process (zero-based).
func S(i int) Proc { return Proc{Kind: KindS, Index: i} }

// IsC reports whether p is a computation process.
func (p Proc) IsC() bool { return p.Kind == KindC }

// IsS reports whether p is a synchronization process.
func (p Proc) IsS() bool { return p.Kind == KindS }

// String implements fmt.Stringer, printing the paper's one-based names
// ("p3", "q1").
func (p Proc) String() string {
	switch p.Kind {
	case KindC:
		return fmt.Sprintf("p%d", p.Index+1)
	case KindS:
		return fmt.Sprintf("q%d", p.Index+1)
	default:
		return fmt.Sprintf("?%d", p.Index+1)
	}
}

// Less imposes a deterministic total order: all C-processes before all
// S-processes, each by index. Schedulers rely on this order for
// reproducibility.
func (p Proc) Less(q Proc) bool {
	if p.Kind != q.Kind {
		return p.Kind < q.Kind
	}
	return p.Index < q.Index
}

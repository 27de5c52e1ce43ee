// Package vec implements the input/output vectors of the task formalism in
// "Wait-Freedom with Advice" (§2.1). A task is a triple (I, O, ∆) over
// m-vectors with one entry per C-process; a ⊥ entry denotes a
// non-participating (input) or undecided (output) process. Vectors here use
// nil for ⊥ and require all non-⊥ values to be comparable so that equality
// is well defined.
package vec

import "fmt"

// Value is a single vector entry. nil represents ⊥.
type Value = any

// Vector is an m-vector of task values; index i belongs to C-process p_{i+1}.
type Vector []Value

// New returns an all-⊥ vector of length n.
func New(n int) Vector { return make(Vector, n) }

// Of builds a vector from explicit values (use nil for ⊥).
func Of(vals ...Value) Vector {
	v := make(Vector, len(vals))
	copy(v, vals)
	return v
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Count returns the number of non-⊥ entries.
func (v Vector) Count() int {
	n := 0
	for _, x := range v {
		if x != nil {
			n++
		}
	}
	return n
}

// Participants returns the indices of non-⊥ entries in increasing order.
func (v Vector) Participants() []int {
	out := make([]int, 0, len(v))
	for i, x := range v {
		if x != nil {
			out = append(out, i)
		}
	}
	return out
}

// DistinctValues returns the number of distinct non-⊥ values. All non-⊥
// values must be comparable.
func (v Vector) DistinctValues() int {
	seen := make(map[Value]struct{}, len(v))
	for _, x := range v {
		if x != nil {
			seen[x] = struct{}{}
		}
	}
	return len(seen)
}

// Contains reports whether some non-⊥ entry equals val.
func (v Vector) Contains(val Value) bool {
	for _, x := range v {
		if x != nil && x == val {
			return true
		}
	}
	return false
}

// Equal reports componentwise equality (⊥ matches only ⊥).
func (v Vector) Equal(w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i := range v {
		if v[i] != w[i] {
			return false
		}
	}
	return true
}

// IsPrefixOf reports the paper's prefix relation: v has at least one non-⊥
// entry and every non-⊥ entry of v equals the corresponding entry of w.
// (§2.1: "L′ is a prefix of L if L′ contains at least one non-⊥ item and for
// all i either L′[i]=⊥ or L′[i]=L[i]".)
func (v Vector) IsPrefixOf(w Vector) bool {
	if len(v) != len(w) || v.Count() == 0 {
		return false
	}
	for i := range v {
		if v[i] != nil && v[i] != w[i] {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer, printing ⊥ for nil entries.
func (v Vector) String() string {
	s := "["
	for i, x := range v {
		if i > 0 {
			s += " "
		}
		if x == nil {
			s += "⊥"
		} else {
			s += fmt.Sprint(x)
		}
	}
	return s + "]"
}

// Prefixes enumerates every prefix of v (in the paper's sense): all vectors
// obtained by replacing a subset of v's non-⊥ entries with ⊥, keeping at
// least one non-⊥ entry. The result includes v itself.
func Prefixes(v Vector) []Vector {
	parts := v.Participants()
	if len(parts) == 0 {
		return nil
	}
	var out []Vector
	// Iterate over non-empty subsets of the participant set.
	for mask := 1; mask < 1<<uint(len(parts)); mask++ {
		p := New(len(v))
		for b, idx := range parts {
			if mask&(1<<uint(b)) != 0 {
				p[idx] = v[idx]
			}
		}
		out = append(out, p)
	}
	return out
}

// PrefixClosed reports whether the given set of vectors is prefix-closed:
// every prefix of every member is also a member.
func PrefixClosed(set []Vector) bool {
	has := func(w Vector) bool {
		for _, u := range set {
			if u.Equal(w) {
				return true
			}
		}
		return false
	}
	for _, v := range set {
		for _, p := range Prefixes(v) {
			if !has(p) {
				return false
			}
		}
	}
	return true
}

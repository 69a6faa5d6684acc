// Package types defines the fundamental vocabulary of the group
// communication service: process identifiers, views, start-change
// identifiers, cuts, and the wire-message formats exchanged between GCS
// end-points over the CO_RFIFO substrate.
//
// The definitions follow Section 2 and Section 3.1 of Keidar & Khazan,
// "A Client-Server Approach to Virtually Synchronous Group Multicast"
// (ICDCS 2000).
package types

import (
	"slices"
	"strings"
)

// ProcID identifies a process (equivalently, a GCS end-point; the paper uses
// the two words interchangeably). Identifiers are opaque strings; ordering is
// lexicographic and is used where the paper requires a deterministic choice
// (e.g., the min-copies forwarding strategy picks the minimum identifier).
type ProcID string

// ProcSet is a finite set of process identifiers.
type ProcSet map[ProcID]struct{}

// NewProcSet builds a set from the given members.
func NewProcSet(members ...ProcID) ProcSet {
	s := make(ProcSet, len(members))
	for _, m := range members {
		s[m] = struct{}{}
	}
	return s
}

// Contains reports whether p is a member of s.
func (s ProcSet) Contains(p ProcID) bool {
	_, ok := s[p]
	return ok
}

// Add inserts p into s.
func (s ProcSet) Add(p ProcID) { s[p] = struct{}{} }

// Remove deletes p from s.
func (s ProcSet) Remove(p ProcID) { delete(s, p) }

// Len returns the cardinality of s.
func (s ProcSet) Len() int { return len(s) }

// Clone returns an independent copy of s.
func (s ProcSet) Clone() ProcSet {
	c := make(ProcSet, len(s))
	for p := range s {
		c[p] = struct{}{}
	}
	return c
}

// Union returns a new set containing every member of s or t.
func (s ProcSet) Union(t ProcSet) ProcSet {
	u := s.Clone()
	for p := range t {
		u[p] = struct{}{}
	}
	return u
}

// Intersect returns a new set containing the members common to s and t.
func (s ProcSet) Intersect(t ProcSet) ProcSet {
	u := make(ProcSet)
	for p := range s {
		if t.Contains(p) {
			u[p] = struct{}{}
		}
	}
	return u
}

// Minus returns a new set containing the members of s that are not in t.
func (s ProcSet) Minus(t ProcSet) ProcSet {
	u := make(ProcSet)
	for p := range s {
		if !t.Contains(p) {
			u[p] = struct{}{}
		}
	}
	return u
}

// SubsetOf reports whether every member of s is also in t.
func (s ProcSet) SubsetOf(t ProcSet) bool {
	for p := range s {
		if !t.Contains(p) {
			return false
		}
	}
	return true
}

// Equal reports whether s and t have exactly the same members.
func (s ProcSet) Equal(t ProcSet) bool {
	return len(s) == len(t) && s.SubsetOf(t)
}

// Sorted returns the members of s in ascending order. The result is a fresh
// slice; mutating it does not affect s.
func (s ProcSet) Sorted() []ProcID {
	out := make([]ProcID, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}

// Min returns the smallest member of s, or "" if s is empty. It implements
// the deterministic selection used by the min-copies forwarding strategy
// (Section 5.2.2).
func (s ProcSet) Min() ProcID {
	var min ProcID
	first := true
	for p := range s {
		if first || p < min {
			min = p
			first = false
		}
	}
	return min
}

// String renders the set as "{a, b, c}" in sorted order.
func (s ProcSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range s.Sorted() {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(string(p))
	}
	b.WriteByte('}')
	return b.String()
}

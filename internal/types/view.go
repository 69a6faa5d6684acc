package types

import (
	"fmt"
	"maps"
	"sort"
	"strconv"
	"strings"
)

// ViewID identifies a membership view. The paper requires only a partial
// order with a least element vid0; we use totally ordered integers ("e.g.,
// integers" per Section 3.1), with InitialViewID as vid0.
type ViewID int64

// StartChangeID is the locally unique, monotonically increasing identifier
// carried by start_change notifications (Section 3.1). Identifiers issued to
// different processes are independent: they are never compared across
// processes, only echoed back inside the view's StartID map.
type StartChangeID int64

const (
	// InitialViewID is vid0, the identifier of every process's initial
	// singleton view.
	InitialViewID ViewID = 0

	// InitialStartChangeID is cid0, the smallest start-change identifier.
	InitialStartChangeID StartChangeID = 0
)

// View is the output of the membership service: an increasing identifier, a
// member set, and the startId function mapping each member to the identifier
// of the last start_change it received before this view (Section 3.1).
//
// Two views are the same view if and only if they consist of identical
// triples (Section 3.1, Section 9); use Key or Equal for identity, never the
// ID alone — a partitionable membership service may issue distinct concurrent
// views.
//
// A View is immutable once constructed. Copying the struct shares the member
// set and the startId map, and every layer relies on that: the end-point
// hands its current view to each delivery event and each outgoing message by
// value, without cloning. Holders Clone before mutating, and because Clone
// carries the cached key rather than recomputing it, a mutated clone is a
// scratch triple, not a view: pass it through NewView before anything reads
// its Key.
type View struct {
	ID      ViewID
	Members ProcSet
	StartID map[ProcID]StartChangeID

	// key caches the canonical triple key; views built through the
	// package's constructors carry it, zero-valued views compute it on
	// demand.
	key string
}

// InitialView returns v_p, the default singleton view every end-point starts
// in: ⟨vid0, {p}, {p → cid0}⟩.
func InitialView(p ProcID) View {
	v := View{
		ID:      InitialViewID,
		Members: NewProcSet(p),
		StartID: map[ProcID]StartChangeID{p: InitialStartChangeID},
	}
	v.key = computeViewKey(v)
	return v
}

// NewView constructs a view from its triple, copying both the member set and
// the startId map so the caller retains ownership of its arguments.
func NewView(id ViewID, members ProcSet, startID map[ProcID]StartChangeID) View {
	sid := make(map[ProcID]StartChangeID, len(startID))
	for p, c := range startID {
		sid[p] = c
	}
	v := View{ID: id, Members: members.Clone(), StartID: sid}
	v.key = computeViewKey(v)
	return v
}

// Clone returns a deep copy of v: a fresh member set and startId map that
// the caller owns. The cached key is carried over, not re-sorted and
// re-formatted (see the immutability contract on View).
func (v View) Clone() View {
	return View{ID: v.ID, Members: v.Members.Clone(), StartID: maps.Clone(v.StartID), key: v.key}
}

// Key returns a canonical string identifying the full view triple. Views are
// the same view iff their keys are equal.
func (v View) Key() string {
	if v.key != "" {
		return v.key
	}
	return computeViewKey(v)
}

func computeViewKey(v View) string {
	var b strings.Builder
	b.Grow(8 + 16*v.Members.Len())
	b.WriteString(strconv.FormatInt(int64(v.ID), 10))
	b.WriteByte('|')
	for i, p := range v.Members.Sorted() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(p))
		b.WriteByte('=')
		b.WriteString(strconv.FormatInt(int64(v.StartID[p]), 10))
	}
	return b.String()
}

// Equal reports whether v and w are the same view (identical triples).
func (v View) Equal(w View) bool {
	if v.ID != w.ID || !v.Members.Equal(w.Members) || len(v.StartID) != len(w.StartID) {
		return false
	}
	for p, c := range v.StartID {
		if wc, ok := w.StartID[p]; !ok || wc != c {
			return false
		}
	}
	return true
}

// Contains reports whether p is a member of v.
func (v View) Contains(p ProcID) bool { return v.Members.Contains(p) }

// String renders the view for logs and test failures.
func (v View) String() string {
	return fmt.Sprintf("view<%d %s>", v.ID, v.Members)
}

// StartChange records a start_change_p(cid, set) notification: the membership
// service's announcement that it is attempting to form a new view with the
// processes in Set (Section 3.1).
type StartChange struct {
	ID  StartChangeID
	Set ProcSet

	// Trace is the cluster-wide reconfiguration trace identifier stamped by
	// the membership servers so one reconfiguration's events can be
	// correlated across every end-point. Zero when the membership source
	// does not stamp (e.g. the controllable test oracle). It is
	// observability metadata: the algorithm never branches on it.
	Trace uint64
}

// Clone returns a deep copy of c.
func (c StartChange) Clone() StartChange {
	return StartChange{ID: c.ID, Set: c.Set.Clone(), Trace: c.Trace}
}

// Cut maps each process to the index of the last message from that process
// that the cut's owner commits to deliver before installing the next view
// (Section 5.2). Indices are 1-based; 0 means "no messages".
type Cut map[ProcID]int

// Clone returns an independent copy of c.
func (c Cut) Clone() Cut {
	out := make(Cut, len(c))
	for p, i := range c {
		out[p] = i
	}
	return out
}

// Max returns, for each process that appears in any of the cuts, the maximum
// committed index across all cuts. It implements the
// max_{r∈T} sync_msg[r].cut(q) computation used by the view-delivery
// precondition (Figure 10).
func MaxCut(cuts []Cut) Cut {
	out := make(Cut)
	for _, c := range cuts {
		for p, i := range c {
			if i > out[p] {
				out[p] = i
			}
		}
	}
	return out
}

// Equal reports whether two cuts commit exactly the same indices.
func (c Cut) Equal(d Cut) bool {
	if len(c) != len(d) {
		return false
	}
	for p, i := range c {
		if d[p] != i {
			return false
		}
	}
	return true
}

// String renders the cut in sorted process order.
func (c Cut) String() string {
	procs := make([]ProcID, 0, len(c))
	for p := range c {
		procs = append(procs, p)
	}
	sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
	var b strings.Builder
	b.WriteByte('[')
	for i, p := range procs {
		if i > 0 {
			b.WriteString(" ")
		}
		fmt.Fprintf(&b, "%s:%d", p, c[p])
	}
	b.WriteByte(']')
	return b.String()
}

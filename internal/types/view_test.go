package types

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestInitialView(t *testing.T) {
	v := InitialView("p")
	if v.ID != InitialViewID {
		t.Errorf("id = %d, want %d", v.ID, InitialViewID)
	}
	if !v.Contains("p") || v.Members.Len() != 1 {
		t.Errorf("members = %s, want {p}", v.Members)
	}
	if v.StartID["p"] != InitialStartChangeID {
		t.Errorf("startId = %d, want %d", v.StartID["p"], InitialStartChangeID)
	}
}

func TestViewIdentityIsTheWholeTriple(t *testing.T) {
	members := NewProcSet("a", "b")
	v1 := NewView(5, members, map[ProcID]StartChangeID{"a": 1, "b": 2})
	v2 := NewView(5, members, map[ProcID]StartChangeID{"a": 1, "b": 2})
	v3 := NewView(5, members, map[ProcID]StartChangeID{"a": 1, "b": 3})
	v4 := NewView(5, NewProcSet("a", "b", "c"),
		map[ProcID]StartChangeID{"a": 1, "b": 2, "c": 1})
	v5 := NewView(6, members, map[ProcID]StartChangeID{"a": 1, "b": 2})

	if !v1.Equal(v2) || v1.Key() != v2.Key() {
		t.Error("identical triples must be the same view")
	}
	for name, w := range map[string]View{"startId": v3, "members": v4, "id": v5} {
		if v1.Equal(w) {
			t.Errorf("views differing in %s compare equal", name)
		}
		if v1.Key() == w.Key() {
			t.Errorf("views differing in %s share a key", name)
		}
	}
}

func TestViewKeyCacheMatchesComputed(t *testing.T) {
	v := NewView(9, NewProcSet("x", "y"), map[ProcID]StartChangeID{"x": 4, "y": 7})
	// A structurally identical view built without the constructor computes
	// its key on demand; the two must agree.
	w := View{ID: 9, Members: NewProcSet("x", "y"),
		StartID: map[ProcID]StartChangeID{"x": 4, "y": 7}}
	if v.Key() != w.Key() {
		t.Fatalf("cached key %q != computed key %q", v.Key(), w.Key())
	}
}

func TestViewCloneIsDeep(t *testing.T) {
	v := NewView(1, NewProcSet("a"), map[ProcID]StartChangeID{"a": 1})
	w := v.Clone()
	w.Members.Add("b")
	w.StartID["b"] = 2
	if v.Contains("b") || len(v.StartID) != 1 {
		t.Fatal("clone shares structure with the original")
	}
}

// TestViewCloneCarriesKey pins the immutability contract's corollary: Clone
// copies the cached key instead of recomputing it, so a clone that has been
// mutated is only a view again once it went through NewView.
func TestViewCloneCarriesKey(t *testing.T) {
	v := NewView(1, NewProcSet("a"), map[ProcID]StartChangeID{"a": 1})
	w := v.Clone()
	if w.Key() != v.Key() || !w.Equal(v) {
		t.Fatalf("clone key %q / equality differ from the original %q", w.Key(), v.Key())
	}
	w.Members.Add("b")
	w.StartID["b"] = 2
	if rebuilt := NewView(w.ID, w.Members, w.StartID); rebuilt.Key() == v.Key() || rebuilt.Key() != computeViewKey(w) {
		t.Fatalf("rebuilt key %q does not describe the mutated triple", rebuilt.Key())
	}
}

func TestStartChangeClone(t *testing.T) {
	sc := StartChange{ID: 3, Set: NewProcSet("a", "b")}
	cp := sc.Clone()
	cp.Set.Add("c")
	if sc.Set.Contains("c") {
		t.Fatal("clone shares the set")
	}
}

func TestMaxCut(t *testing.T) {
	got := MaxCut([]Cut{
		{"a": 3, "b": 1},
		{"a": 2, "b": 5, "c": 1},
		{},
	})
	want := Cut{"a": 3, "b": 5, "c": 1}
	if !got.Equal(want) {
		t.Fatalf("max cut = %v, want %v", got, want)
	}
	if len(MaxCut(nil)) != 0 {
		t.Fatal("max of no cuts should be empty")
	}
}

func TestCutEqualAndClone(t *testing.T) {
	c := Cut{"a": 1, "b": 0}
	d := c.Clone()
	if !c.Equal(d) {
		t.Fatal("clone not equal")
	}
	d["a"] = 2
	if c.Equal(d) || c["a"] != 1 {
		t.Fatal("clone shares storage")
	}
	// Note: Cut.Equal is structural; an explicit zero entry differs from an
	// absent one (the checkers use their own zero-tolerant comparison).
	if (Cut{"a": 0}).Equal(Cut{}) {
		t.Fatal("structural equality should distinguish explicit zero")
	}
	if c.String() != "[a:1 b:0]" {
		t.Fatalf("string = %q", c.String())
	}
}

func TestMaxCutProperties(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			cuts := make([]Cut, r.Intn(4)+1)
			for i := range cuts {
				c := make(Cut)
				for j := 0; j < r.Intn(5); j++ {
					c[ProcID(string(rune('a'+r.Intn(5))))] = r.Intn(10)
				}
				cuts[i] = c
			}
			vals[0] = reflect.ValueOf(cuts)
		},
	}
	dominates := func(cuts []Cut) bool {
		m := MaxCut(cuts)
		for _, c := range cuts {
			for p, i := range c {
				if m[p] < i {
					return false
				}
			}
		}
		// And every entry of the max is witnessed by some cut.
		for p, i := range m {
			witnessed := false
			for _, c := range cuts {
				if c[p] == i {
					witnessed = true
					break
				}
			}
			if !witnessed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(dominates, cfg); err != nil {
		t.Errorf("max-cut property: %v", err)
	}
}

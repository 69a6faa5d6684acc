package spec

import (
	"errors"
	"fmt"
	"strings"

	"vsgm/internal/core"
	"vsgm/internal/types"
)

// Suite runs a set of checkers over one trace and aggregates violations. It
// also retains the raw trace so liveness (an end-to-end property of whole
// executions) can be evaluated after the fact.
type Suite struct {
	checkers []Checker
	trace    []Event
	keep     bool
}

// SuiteOption configures a Suite.
type SuiteOption func(*Suite)

// WithTrace makes the suite retain the full event trace (required by
// CheckLiveness and useful in test failure output).
func WithTrace() SuiteOption {
	return func(s *Suite) { s.keep = true }
}

// NewSuite builds a suite over the given checkers.
func NewSuite(checkers []Checker, opts ...SuiteOption) *Suite {
	s := &Suite{checkers: checkers}
	for _, o := range opts {
		o(s)
	}
	return s
}

// FullSuite returns the checkers for a complete GCS-level run: MBRSHP,
// WV_RFIFO, VS_RFIFO, TRANS_SET, SELF, and the blocking-client contract.
func FullSuite(opts ...SuiteOption) *Suite {
	return NewSuite([]Checker{
		NewMembership(),
		NewWVRFIFO(),
		NewVSRFIFO(),
		NewTransSet(),
		NewSelfDelivery(),
		NewBlockingClient(),
	}, opts...)
}

// VSSuite returns the checkers valid for a VS_RFIFO+TS-level run (no Self
// Delivery, no blocking contract).
func VSSuite(opts ...SuiteOption) *Suite {
	return NewSuite([]Checker{
		NewMembership(),
		NewWVRFIFO(),
		NewVSRFIFO(),
		NewTransSet(),
	}, opts...)
}

// WVSuite returns the checkers valid for a WV_RFIFO-level run.
func WVSuite(opts ...SuiteOption) *Suite {
	return NewSuite([]Checker{
		NewMembership(),
		NewWVRFIFO(),
	}, opts...)
}

// SuiteFor returns the checkers valid for a run at the given automaton
// level: WVSuite, VSSuite, or FullSuite for LevelGCS and for the zero level,
// which end-points read as LevelGCS.
func SuiteFor(level core.Level, opts ...SuiteOption) *Suite {
	switch level {
	case core.LevelWV:
		return WVSuite(opts...)
	case core.LevelVS:
		return VSSuite(opts...)
	default:
		return FullSuite(opts...)
	}
}

// OnEvent feeds one trace event to every checker.
func (s *Suite) OnEvent(ev Event) {
	if s.keep {
		s.trace = append(s.trace, ev)
	}
	for _, c := range s.checkers {
		c.OnEvent(ev)
	}
}

// Trace returns the retained trace (empty unless WithTrace was given).
func (s *Suite) Trace() []Event { return s.trace }

// Err finalizes every checker and returns an aggregate error listing all
// violations, or nil if the trace satisfies every specification.
func (s *Suite) Err() error {
	var msgs []string
	for _, c := range s.checkers {
		c.Finalize()
		for _, v := range c.Violations() {
			msgs = append(msgs, fmt.Sprintf("[%s] %s", c.Name(), v))
		}
	}
	if len(msgs) == 0 {
		return nil
	}
	return errors.New(strings.Join(msgs, "\n"))
}

// CheckLiveness evaluates Property 4.2 on a finished trace: given that the
// membership delivered view v to every member of v.set with no later
// membership events at those members (the caller's responsibility to
// arrange), every member must deliver v through the GCS, and every message
// sent after that delivery must be delivered by every member.
func CheckLiveness(trace []Event, v types.View) error {
	var msgs []string

	gcsViewAt := make(map[types.ProcID]int)
	for i, ev := range trace {
		if e, ok := ev.(EView); ok && e.View.Key() == v.Key() {
			gcsViewAt[e.P] = i
		}
	}
	for _, p := range v.Members.Sorted() {
		if _, ok := gcsViewAt[p]; !ok {
			msgs = append(msgs, fmt.Sprintf("%s never delivered GCS view %s", p, v))
		}
	}

	// Every message sent by a member after it installed v must reach every
	// member of v.
	delivered := make(map[types.ProcID]map[int64]bool)
	for _, ev := range trace {
		if e, ok := ev.(EDeliver); ok {
			row := delivered[e.P]
			if row == nil {
				row = make(map[int64]bool)
				delivered[e.P] = row
			}
			row[e.MsgID] = true
		}
	}
	for i, ev := range trace {
		e, ok := ev.(ESend)
		if !ok || !v.Members.Contains(e.P) {
			continue
		}
		at, installed := gcsViewAt[e.P]
		if !installed || i < at {
			continue
		}
		for _, q := range v.Members.Sorted() {
			if !delivered[q][e.MsgID] {
				msgs = append(msgs, fmt.Sprintf(
					"message #%d sent by %s in final view was not delivered at %s", e.MsgID, e.P, q))
			}
		}
	}

	if len(msgs) == 0 {
		return nil
	}
	return errors.New(strings.Join(msgs, "\n"))
}

// RenderTrace formats a retained trace as one event per line, prefixed with
// a sequence number — a readable whole-execution log for debugging and for
// the scenario runner's -trace flag.
func RenderTrace(trace []Event) string {
	var b strings.Builder
	for i, ev := range trace {
		fmt.Fprintf(&b, "%5d  %s\n", i, ev)
	}
	return b.String()
}

// Package totalorder layers a totally ordered multicast on top of the
// virtually synchronous FIFO service, substantiating the paper's remark
// (Section 4.1.1) that WV_RFIFO is a base on which stronger ordering
// services — like the totally ordered multicast of Chockler-Huleihel-Dolev —
// are built.
//
// The algorithm is sequencer-based within each view: the minimum-identifier
// member of the current view decides the order. Every member receives the
// sequencer's stream in FIFO order, so a data message the sequencer itself
// sent needs no assignment: it takes its slot at the point it is delivered.
// For every other sender's message the sequencer multicasts an assignment
// naming the (sender, per-sender index) pair, as an ordinary application
// message. Every member releases data messages to the application in slot
// order. Virtual Synchrony makes view changes safe: processes moving together
// deliver the same set of data and assignment messages in the old view, so
// the deterministic flush at a view boundary (remaining unassigned messages,
// sorted by sender and index) yields the identical order at every member of
// the transitional set.
//
// An assignment carries the identifier of the view its sender's session was
// in. The end-point may install the next view before the session has been
// handed the old view's last deliveries, and an assignment computed from one
// of those goes out — and is delivered — in the new view, where its pair names
// a different message or none. Receivers drop an assignment tagged with any
// view but their own; the boundary flush has already ordered the message it
// was for, at every member that held it.
package totalorder

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"vsgm/internal/core"
	"vsgm/internal/types"
)

// SendFunc multicasts a raw payload through the underlying GCS end-point.
type SendFunc func(payload []byte) error

// DeliverFunc receives one totally ordered application message. payload
// aliases the end-point's stored copy of the message, as a DeliverEvent's
// does: it may be kept, never changed.
type DeliverFunc func(sender types.ProcID, payload []byte)

// ViewFunc observes view changes after the boundary flush.
type ViewFunc func(v types.View, transitionalSet types.ProcSet)

const (
	tagData  byte = 1
	tagOrder byte = 2
)

// ErrBlocked is returned by Send while the underlying end-point is blocked
// for a view change.
var ErrBlocked = core.ErrBlocked

// msgKey names a data message within a view: its sender and its position in
// that sender's stream.
type msgKey struct {
	sender types.ProcID
	index  int
}

// Session is one process's total-order layer. Feed it every event of the
// underlying GCS end-point via HandleEvent, and send through Send. Not safe
// for concurrent use.
type Session struct {
	id      types.ProcID
	send    SendFunc
	deliver DeliverFunc
	onView  ViewFunc

	view      types.View
	sequencer types.ProcID // view.Members.Min()

	// Per view. seen counts each sender's data messages; assigned is the
	// highest index of each sender that has a slot (the sequencer assigns a
	// sender's messages in the order it delivers them, so one mark per sender
	// tells a repeated assignment from a new one). pending holds data that is
	// delivered but not released, order[head:] the slots not yet released.
	seen     map[types.ProcID]int
	assigned map[types.ProcID]int
	pending  map[msgKey][]byte
	order    []msgKey
	head     int
}

// New builds a session for end-point id. deliver is required; onView may be
// nil.
func New(id types.ProcID, send SendFunc, deliver DeliverFunc, onView ViewFunc) (*Session, error) {
	if send == nil || deliver == nil {
		return nil, errors.New("totalorder: send and deliver functions are required")
	}
	s := &Session{
		id:      id,
		send:    send,
		deliver: deliver,
		onView:  onView,
	}
	s.enterView(types.InitialView(id))
	return s, nil
}

func (s *Session) enterView(v types.View) {
	s.view = v
	s.sequencer = v.Members.Min()
	s.seen = make(map[types.ProcID]int)
	s.assigned = make(map[types.ProcID]int)
	s.pending = make(map[msgKey][]byte)
	s.order, s.head = nil, 0
}

// Send multicasts payload in total order.
func (s *Session) Send(payload []byte) error {
	buf := make([]byte, 1+len(payload))
	buf[0] = tagData
	copy(buf[1:], payload)
	return s.send(buf)
}

// HandleEvent feeds one event from the underlying GCS end-point.
func (s *Session) HandleEvent(ev core.Event) error {
	switch e := ev.(type) {
	case core.DeliverEvent:
		return s.onDeliver(e)
	case core.ViewEvent:
		s.flush()
		s.enterView(e.View)
		if s.onView != nil {
			s.onView(e.View, e.TransitionalSet)
		}
		return nil
	default:
		return nil
	}
}

func (s *Session) onDeliver(e core.DeliverEvent) error {
	if len(e.Msg.Payload) == 0 {
		return fmt.Errorf("totalorder: empty payload from %s", e.Sender)
	}
	switch body := e.Msg.Payload[1:]; e.Msg.Payload[0] {
	case tagData:
		s.seen[e.Sender]++
		k := msgKey{e.Sender, s.seen[e.Sender]}
		if e.Sender == s.sequencer {
			// The sequencer's own message orders itself: every member meets
			// it at the same point of the sequencer's stream.
			if s.head == len(s.order) {
				s.deliver(e.Sender, body)
				return nil
			}
			s.pending[k] = body
			s.order = append(s.order, k)
			return nil
		}
		s.pending[k] = body
		if s.sequencer == s.id {
			if err := s.sendAssignment(k); err != nil && !errors.Is(err, ErrBlocked) {
				return err
			}
			// ErrBlocked: a view change is in progress; the boundary flush
			// will order this message deterministically instead.
		}
		s.release()
		return nil
	case tagOrder:
		vid, k, err := decodeAssignment(body)
		if err != nil {
			return err
		}
		if vid != s.view.ID || k.index <= s.assigned[k.sender] {
			return nil // from a view already flushed, or a repeat
		}
		s.assigned[k.sender] = k.index
		s.order = append(s.order, k)
		s.release()
		return nil
	default:
		return fmt.Errorf("totalorder: unknown tag %d from %s", e.Msg.Payload[0], e.Sender)
	}
}

// release delivers every message that has a slot and whose data has arrived,
// in slot order, stopping at the first gap.
func (s *Session) release() {
	for s.head < len(s.order) {
		k := s.order[s.head]
		payload, ok := s.pending[k]
		if !ok {
			return // data not here yet; FIFO guarantees it will arrive
		}
		s.head++
		delete(s.pending, k)
		s.deliver(k.sender, payload)
	}
	s.order, s.head = s.order[:0], 0
}

// flush deterministically drains the layer at a view boundary: first the
// slotted backlog in slot order (skipping assignments whose data never
// arrived — possible only when the assigner itself disconnected), then the
// never-assigned remainder sorted by sender and index. Virtual Synchrony
// guarantees every member of the transitional set holds the identical sets,
// so the flushed order agrees everywhere.
func (s *Session) flush() {
	for _, k := range s.order[s.head:] {
		if payload, ok := s.pending[k]; ok {
			delete(s.pending, k)
			s.deliver(k.sender, payload)
		}
	}
	rest := make([]msgKey, 0, len(s.pending))
	for k := range s.pending {
		rest = append(rest, k)
	}
	sort.Slice(rest, func(i, j int) bool {
		if rest[i].sender != rest[j].sender {
			return rest[i].sender < rest[j].sender
		}
		return rest[i].index < rest[j].index
	})
	for _, k := range rest {
		s.deliver(k.sender, s.pending[k])
	}
}

// An assignment is tagOrder | u64 view id | u64 index | sender.
const assignmentHeader = 8 + 8

func (s *Session) sendAssignment(k msgKey) error {
	buf := make([]byte, 1+assignmentHeader+len(k.sender))
	buf[0] = tagOrder
	binary.BigEndian.PutUint64(buf[1:9], uint64(s.view.ID))
	binary.BigEndian.PutUint64(buf[9:17], uint64(k.index))
	copy(buf[17:], k.sender)
	return s.send(buf)
}

func decodeAssignment(b []byte) (types.ViewID, msgKey, error) {
	if len(b) < assignmentHeader {
		return 0, msgKey{}, fmt.Errorf("totalorder: short assignment payload (%d bytes)", len(b))
	}
	vid := types.ViewID(binary.BigEndian.Uint64(b[:8]))
	idx := int(binary.BigEndian.Uint64(b[8:16]))
	return vid, msgKey{types.ProcID(b[16:]), idx}, nil
}

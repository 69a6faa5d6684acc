// Package wire is a compact, deterministic binary codec for the service's
// wire messages — the hand-rolled alternative to encoding/gob for the live
// TCP transport. Unlike gob it needs no per-connection type negotiation, is
// reflection-free on the hot path, and its output sizes track the abstract
// size model of types.WireMsg.Size.
//
// Layout conventions: integers are big-endian fixed width; strings and
// byte slices are length-prefixed (uint16 for identifiers, uint32 for
// payloads); sets, maps, and lists are count-prefixed and encoded in sorted
// order so equal values always yield identical bytes.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"vsgm/internal/types"
)

// ErrTruncated reports an input shorter than its own framing claims.
var ErrTruncated = errors.New("wire: truncated input")

// buffer is an append-only encoder.
type buffer struct {
	b []byte
}

func (w *buffer) u8(v uint8) { w.b = append(w.b, v) }

// bool encodes v as one byte. A branch, not a map literal: this runs once
// per bool field on the marshal hot path, and a map composite would allocate
// on every call.
func (w *buffer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *buffer) u16(v uint16) { w.b = binary.BigEndian.AppendUint16(w.b, v) }
func (w *buffer) u32(v uint32) { w.b = binary.BigEndian.AppendUint32(w.b, v) }
func (w *buffer) u64(v uint64) { w.b = binary.BigEndian.AppendUint64(w.b, v) }

func (w *buffer) id(p types.ProcID) error {
	if len(p) > math.MaxUint16 {
		// A clipped copy, so the report holds no reference to p itself: p is
		// a field of the frame being encoded, and an argument that escapes
		// here moves each caller's whole frame — message included — to the
		// heap.
		return fmt.Errorf("wire: identifier %q... too long (%d bytes)", strings.Clone(string(p[:32])), len(p))
	}
	w.u16(uint16(len(p)))
	w.b = append(w.b, p...)
	return nil
}

func (w *buffer) bytes(b []byte) error {
	if len(b) > math.MaxUint32 {
		return errors.New("wire: payload too large")
	}
	w.u32(uint32(len(b)))
	w.b = append(w.b, b...)
	return nil
}

// reader is the matching decoder. A reader with a DecodeState attached
// interns repeated identifiers; with alias set, byte-slice fields
// are returned as subslices of the input instead of copies (the caller then
// owns the input's lifetime).
type reader struct {
	b     []byte
	st    *DecodeState
	alias bool
}

func (r *reader) take(n int) ([]byte, error) {
	if len(r.b) < n {
		return nil, ErrTruncated
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out, nil
}

func (r *reader) u8() (uint8, error) {
	b, err := r.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) bool() (bool, error) {
	v, err := r.u8()
	return v != 0, err
}

func (r *reader) u16() (uint16, error) {
	b, err := r.take(2)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint16(b), nil
}

func (r *reader) u32() (uint32, error) {
	b, err := r.take(4)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint32(b), nil
}

func (r *reader) u64() (uint64, error) {
	b, err := r.take(8)
	if err != nil {
		return 0, err
	}
	return binary.BigEndian.Uint64(b), nil
}

func (r *reader) id() (types.ProcID, error) {
	n, err := r.u16()
	if err != nil {
		return "", err
	}
	b, err := r.take(int(n))
	if err != nil {
		return "", err
	}
	if r.st != nil {
		return r.st.internID(b), nil
	}
	return types.ProcID(b), nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	b, err := r.take(int(n))
	if err != nil {
		return nil, err
	}
	if r.alias {
		return b[:len(b):len(b)], nil
	}
	return append([]byte(nil), b...), nil
}

// hint clamps a wire-declared element count to what the remaining input
// could possibly hold (elemSize is the minimum encoded size of one element),
// so a corrupt count cannot force a huge up-front map allocation.
func (r *reader) hint(n uint32, elemSize int) int {
	most := len(r.b)/elemSize + 1
	if int(n) < most {
		return int(n)
	}
	return most
}

// ---- composite encoders ----

func (w *buffer) view(v types.View) error {
	w.u64(uint64(v.ID))
	members := v.Members.Sorted()
	w.u32(uint32(len(members)))
	for _, p := range members {
		if err := w.id(p); err != nil {
			return err
		}
		w.u64(uint64(v.StartID[p]))
	}
	return nil
}

func (r *reader) view() (types.View, error) {
	id, err := r.u64()
	if err != nil {
		return types.View{}, err
	}
	n, err := r.u32()
	if err != nil {
		return types.View{}, err
	}
	members := types.NewProcSet()
	startID := make(map[types.ProcID]types.StartChangeID, r.hint(n, 10))
	for i := uint32(0); i < n; i++ {
		p, err := r.id()
		if err != nil {
			return types.View{}, err
		}
		cid, err := r.u64()
		if err != nil {
			return types.View{}, err
		}
		members.Add(p)
		startID[p] = types.StartChangeID(cid)
	}
	return types.NewView(types.ViewID(id), members, startID), nil
}

func (w *buffer) cut(c types.Cut) error {
	procs := make([]types.ProcID, 0, len(c))
	for p := range c {
		procs = append(procs, p)
	}
	slices.Sort(procs)
	w.u32(uint32(len(procs)))
	for _, p := range procs {
		if err := w.id(p); err != nil {
			return err
		}
		w.u64(uint64(c[p]))
	}
	return nil
}

func (r *reader) cut() (types.Cut, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	c := make(types.Cut, r.hint(n, 10))
	for i := uint32(0); i < n; i++ {
		p, err := r.id()
		if err != nil {
			return nil, err
		}
		v, err := r.u64()
		if err != nil {
			return nil, err
		}
		c[p] = int(v)
	}
	return c, nil
}

func (w *buffer) procSet(s types.ProcSet) error {
	members := s.Sorted()
	w.u32(uint32(len(members)))
	for _, p := range members {
		if err := w.id(p); err != nil {
			return err
		}
	}
	return nil
}

func (r *reader) procSet() (types.ProcSet, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	s := types.NewProcSet()
	for i := uint32(0); i < n; i++ {
		p, err := r.id()
		if err != nil {
			return nil, err
		}
		s.Add(p)
	}
	return s, nil
}

func (w *buffer) appMsg(m types.AppMsg) error {
	w.u64(uint64(m.ID))
	return w.bytes(m.Payload)
}

func (r *reader) appMsg() (types.AppMsg, error) {
	id, err := r.u64()
	if err != nil {
		return types.AppMsg{}, err
	}
	payload, err := r.bytes()
	if err != nil {
		return types.AppMsg{}, err
	}
	return types.AppMsg{ID: int64(id), Payload: payload}, nil
}

func (w *buffer) syncEntry(e types.SyncEntry) error {
	if err := w.id(e.From); err != nil {
		return err
	}
	w.u64(uint64(e.CID))
	w.bool(e.Small)
	if err := w.view(e.View); err != nil {
		return err
	}
	return w.cut(e.Cut)
}

func (r *reader) syncEntry() (types.SyncEntry, error) {
	from, err := r.id()
	if err != nil {
		return types.SyncEntry{}, err
	}
	cid, err := r.u64()
	if err != nil {
		return types.SyncEntry{}, err
	}
	small, err := r.bool()
	if err != nil {
		return types.SyncEntry{}, err
	}
	v, err := r.view()
	if err != nil {
		return types.SyncEntry{}, err
	}
	cut, err := r.cut()
	if err != nil {
		return types.SyncEntry{}, err
	}
	return types.SyncEntry{From: from, CID: types.StartChangeID(cid), Small: small, View: v, Cut: cut}, nil
}

// MarshalMsg encodes a wire message.
func MarshalMsg(m types.WireMsg) ([]byte, error) {
	w := &buffer{}
	if err := appendMsg(w, m); err != nil {
		return nil, err
	}
	return w.b, nil
}

func appendMsg(w *buffer, m types.WireMsg) error {
	w.u8(uint8(m.Kind))
	switch m.Kind {
	case types.KindView:
		return w.view(m.View)
	case types.KindApp:
		// The history tags are not encoded: no receiver reads them (§3 of
		// docs/WIRE.md).
		return w.appMsg(m.App)
	case types.KindFwd:
		if err := w.appMsg(m.App); err != nil {
			return err
		}
		if err := w.id(m.Origin); err != nil {
			return err
		}
		if err := w.view(m.View); err != nil {
			return err
		}
		w.u64(uint64(m.Index))
		return nil
	case types.KindSync:
		w.u64(uint64(m.CID))
		w.u64(m.Trace)
		w.bool(m.Small)
		w.bool(m.ElideView)
		w.bool(m.Probe)
		if err := w.view(m.View); err != nil {
			return err
		}
		return w.cut(m.Cut)
	case types.KindAck:
		return w.cut(m.Cut)
	case types.KindHeartbeat:
		// The sender's reachability bitmap (nil encodes as an empty set);
		// receivers feed it to the detector's gray-failure reconciliation.
		return w.procSet(m.Reach)
	case types.KindPropose:
		return w.view(m.View)
	case types.KindMembProposal:
		if m.MembProp == nil {
			return errors.New("wire: membership proposal without payload")
		}
		w.u64(uint64(m.MembProp.Attempt))
		w.u64(uint64(m.MembProp.MinVid))
		w.u64(m.MembProp.Trace)
		if err := w.procSet(m.MembProp.Servers); err != nil {
			return err
		}
		clients := make([]types.ProcID, 0, len(m.MembProp.Clients))
		for p := range m.MembProp.Clients {
			clients = append(clients, p)
		}
		slices.Sort(clients)
		w.u32(uint32(len(clients)))
		for _, p := range clients {
			if err := w.id(p); err != nil {
				return err
			}
			w.u64(uint64(m.MembProp.Clients[p]))
		}
		epochs := make([]types.ProcID, 0, len(m.MembProp.Epochs))
		for p := range m.MembProp.Epochs {
			epochs = append(epochs, p)
		}
		slices.Sort(epochs)
		w.u32(uint32(len(epochs)))
		for _, p := range epochs {
			if err := w.id(p); err != nil {
				return err
			}
			w.u64(uint64(m.MembProp.Epochs[p]))
		}
		return nil
	case types.KindSyncBundle:
		w.u32(uint32(len(m.Bundle)))
		for _, e := range m.Bundle {
			if err := w.syncEntry(e); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("wire: unknown message kind %d", int(m.Kind))
	}
}

// UnmarshalMsg decodes a wire message, returning the remaining bytes.
func UnmarshalMsg(b []byte) (types.WireMsg, []byte, error) {
	r := &reader{b: b}
	m, err := readMsg(r)
	if err != nil {
		return types.WireMsg{}, nil, err
	}
	return m, r.b, nil
}

func readMsg(r *reader) (types.WireMsg, error) {
	var m types.WireMsg
	err := readMsgInto(r, &m)
	return m, err
}

// readMsgInto decodes one message into m, which is fully overwritten — the
// scratch-reuse entry point for the zero-copy receive path.
func readMsgInto(r *reader, m *types.WireMsg) error {
	kind, err := r.u8()
	if err != nil {
		return err
	}
	*m = types.WireMsg{Kind: types.MsgKind(kind)}
	switch m.Kind {
	case types.KindView:
		m.View, err = r.view()
		return err
	case types.KindApp:
		m.App, err = r.appMsg()
		return err
	case types.KindFwd:
		if m.App, err = r.appMsg(); err != nil {
			return err
		}
		if m.Origin, err = r.id(); err != nil {
			return err
		}
		if m.View, err = r.view(); err != nil {
			return err
		}
		idx, err := r.u64()
		m.Index = int(idx)
		return err
	case types.KindSync:
		cid, err := r.u64()
		if err != nil {
			return err
		}
		m.CID = types.StartChangeID(cid)
		if m.Trace, err = r.u64(); err != nil {
			return err
		}
		if m.Small, err = r.bool(); err != nil {
			return err
		}
		if m.ElideView, err = r.bool(); err != nil {
			return err
		}
		if m.Probe, err = r.bool(); err != nil {
			return err
		}
		if m.View, err = r.view(); err != nil {
			return err
		}
		m.Cut, err = r.cut()
		return err
	case types.KindAck:
		m.Cut, err = r.cut()
		return err
	case types.KindHeartbeat:
		var reach types.ProcSet
		if reach, err = r.procSet(); err != nil {
			return err
		}
		// An empty bitmap decodes to nil, so a bitmap-less heartbeat
		// round-trips unchanged.
		if reach.Len() > 0 {
			m.Reach = reach
		}
		return nil
	case types.KindPropose:
		m.View, err = r.view()
		return err
	case types.KindMembProposal:
		prop := &types.MembProposal{Clients: make(map[types.ProcID]types.StartChangeID)}
		attempt, err := r.u64()
		if err != nil {
			return err
		}
		prop.Attempt = int64(attempt)
		minVid, err := r.u64()
		if err != nil {
			return err
		}
		prop.MinVid = types.ViewID(minVid)
		if prop.Trace, err = r.u64(); err != nil {
			return err
		}
		if prop.Servers, err = r.procSet(); err != nil {
			return err
		}
		n, err := r.u32()
		if err != nil {
			return err
		}
		for i := uint32(0); i < n; i++ {
			p, err := r.id()
			if err != nil {
				return err
			}
			cid, err := r.u64()
			if err != nil {
				return err
			}
			prop.Clients[p] = types.StartChangeID(cid)
		}
		ne, err := r.u32()
		if err != nil {
			return err
		}
		if ne > 0 {
			prop.Epochs = make(map[types.ProcID]int64, ne)
		}
		for i := uint32(0); i < ne; i++ {
			p, err := r.id()
			if err != nil {
				return err
			}
			e, err := r.u64()
			if err != nil {
				return err
			}
			prop.Epochs[p] = int64(e)
		}
		m.MembProp = prop
		return nil
	case types.KindSyncBundle:
		n, err := r.u32()
		if err != nil {
			return err
		}
		for i := uint32(0); i < n; i++ {
			e, err := r.syncEntry()
			if err != nil {
				return err
			}
			m.Bundle = append(m.Bundle, e)
		}
		return nil
	default:
		return fmt.Errorf("wire: unknown message kind %d", kind)
	}
}

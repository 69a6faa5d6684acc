package wire

import (
	"vsgm/internal/membership"
	"vsgm/internal/types"
)

// DecodeState is the allocation-amortizing companion of a single frame
// stream: intern tables for the identifiers and views that repeat frame
// after frame, plus reusable scratch for the Frame's pointer fields. One
// DecodeState belongs to one connection (or one event-loop parser) and must
// not be shared across goroutines.
//
// Frames decoded through a DecodeState are BORROWED: their pointer fields
// (Msg, Notify, Attach, Credit) alias the state's scratch and are valid only
// until the next decode through the same state. Receivers keep what they
// need by value — exactly the discipline the live node and server already
// follow — and must not stash the pointers.
type DecodeState struct {
	ids   map[string]types.ProcID
	views map[string]types.View

	msg     types.WireMsg
	notify  membership.Notification
	attach  Attach
	credit  Credit
	handoff Handoff
}

// Bounds on the intern tables: identifiers are per-process names (small,
// stable set), views repeat until the next reconfiguration. When a table
// fills — an adversary minting unique names, or an extremely churny group —
// it is reset rather than grown without bound.
const (
	maxInternedIDs   = 4096
	maxInternedViews = 64
)

// NewDecodeState returns an empty per-stream decode state.
func NewDecodeState() *DecodeState {
	return &DecodeState{
		ids:   make(map[string]types.ProcID),
		views: make(map[string]types.View),
	}
}

// internID returns the interned ProcID for the raw bytes, allocating only on
// the first sighting of a given identifier.
func (st *DecodeState) internID(b []byte) types.ProcID {
	if p, ok := st.ids[string(b)]; ok {
		return p
	}
	if len(st.ids) >= maxInternedIDs {
		st.ids = make(map[string]types.ProcID)
	}
	p := types.ProcID(b)
	st.ids[string(p)] = p
	return p
}

// internView returns the cached decode of an encoded view, keyed by its raw
// bytes. Steady-state traffic repeats the same view on every data frame, so
// after the first decode the per-member maps and identifier strings are
// shared instead of reallocated. Cached views are shared structures: callers
// must treat them as immutable (the core endpoint already ignores or clones
// every view it keeps).
func (st *DecodeState) internView(raw []byte, decode func() (types.View, error)) (types.View, error) {
	if v, ok := st.views[string(raw)]; ok {
		return v, nil
	}
	v, err := decode()
	if err != nil {
		return v, err
	}
	if len(st.views) >= maxInternedViews {
		st.views = make(map[string]types.View)
	}
	st.views[string(append([]byte(nil), raw...))] = v
	return v, nil
}

// skipView advances past one encoded view without decoding it, returning the
// number of bytes it occupies, so the view-intern cache can key on the raw
// encoding before deciding whether a decode is needed at all.
func skipView(b []byte) (int, error) {
	r := reader{b: b}
	if _, err := r.take(8); err != nil { // view id
		return 0, err
	}
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	for i := uint32(0); i < n; i++ {
		l, err := r.u16()
		if err != nil {
			return 0, err
		}
		if _, err := r.take(int(l) + 8); err != nil { // member id + start-change id
			return 0, err
		}
	}
	return len(b) - len(r.b), nil
}

// viewCached decodes one view through the reader's intern cache (plain
// decode when the reader has no state attached).
func (r *reader) viewCached() (types.View, error) {
	if r.st == nil {
		return r.view()
	}
	n, err := skipView(r.b)
	if err != nil {
		return types.View{}, err
	}
	raw := r.b[:n]
	v, err := r.st.internView(raw, func() (types.View, error) {
		vr := reader{b: raw, st: r.st}
		return vr.view()
	})
	if err != nil {
		return types.View{}, err
	}
	r.b = r.b[n:]
	return v, nil
}

// unmarshalFrameInto decodes one frame from b into f. The Frame's pointer
// fields are a DecodeState's scratch: st's when one is attached (borrowed
// until the next decode through it), a fresh state's otherwise, which the
// frame then owns — either way no per-kind value is allocated only to be
// thrown away. With alias set, byte-slice fields of the frame (application
// payloads) alias b instead of being copied — the caller owns b's lifetime and
// must keep it alive for as long as the payload is in use.
func unmarshalFrameInto(b []byte, f *Frame, st *DecodeState, alias bool) error {
	r := reader{b: b, st: st, alias: alias}
	from, err := r.id()
	if err != nil {
		return err
	}
	*f = Frame{From: from}
	tag, err := r.u8()
	if err != nil {
		return err
	}
	if tag == frameHandshake {
		return nil
	}
	sc := st
	if sc == nil {
		sc = new(DecodeState)
	}
	switch tag {
	case frameMsg:
		if err := readMsgInto(&r, &sc.msg); err != nil {
			return err
		}
		f.Msg = &sc.msg
	case frameNotify:
		if err := readNotifyInto(&r, &sc.notify); err != nil {
			return err
		}
		f.Notify = &sc.notify
	case frameAttach:
		if err := readAttachInto(&r, &sc.attach); err != nil {
			return err
		}
		f.Attach = &sc.attach
	case frameCredit:
		if sc.credit.Grant, err = r.u64(); err != nil {
			return err
		}
		f.Credit = &sc.credit
	case frameHandoff:
		if err := readHandoffInto(&r, &sc.handoff); err != nil {
			return err
		}
		f.Handoff = &sc.handoff
	default:
		return errUnknownFrameTag(tag)
	}
	return nil
}

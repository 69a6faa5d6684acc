package wire

import (
	"vsgm/internal/membership"
	"vsgm/internal/types"
)

// DecodeState is the allocation-amortizing companion of a single frame
// stream: an intern table for the identifiers that repeat frame after frame,
// plus reusable scratch for the Frame's pointer fields. One
// DecodeState belongs to one connection (or one event-loop parser) and must
// not be shared across goroutines.
//
// Frames decoded through a DecodeState are BORROWED: their pointer fields
// (Msg, Notify, Attach, Credit) alias the state's scratch and are valid only
// until the next decode through the same state. Receivers keep what they
// need by value — exactly the discipline the live node and server already
// follow — and must not stash the pointers.
type DecodeState struct {
	ids map[string]types.ProcID

	msg    types.WireMsg
	notify membership.Notification
	attach Attach
	credit Credit
}

// maxInternedIDs bounds the intern table: identifiers are per-process names
// (a small, stable set). When the table fills — an adversary minting unique
// names — it is reset rather than grown without bound.
const maxInternedIDs = 4096

// NewDecodeState returns an empty per-stream decode state.
func NewDecodeState() *DecodeState {
	return &DecodeState{ids: make(map[string]types.ProcID)}
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

// unmarshalFrameInto decodes one frame from b into f. The Frame's pointer
// fields are a DecodeState's scratch: st's when one is attached (borrowed
// until the next decode through it), a fresh state's otherwise, which the
// frame then owns — either way no per-kind value is allocated only to be
// thrown away. With alias set, byte-slice fields of the frame (application
// payloads) alias b instead of being copied — the caller owns b's lifetime and
// must keep it alive for as long as the payload is in use.
func unmarshalFrameInto(b []byte, f *Frame, st *DecodeState, alias bool) error {
	r := reader{b: b, st: st, alias: alias}
	*f = Frame{}
	tag, err := r.u8()
	if err != nil {
		return err
	}
	if tag == frameHandshake {
		f.From, err = r.id()
		return err
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
	default:
		return errUnknownFrameTag(tag)
	}
	return nil
}

package core

import (
	"fmt"

	"vsgm/internal/types"
	"vsgm/internal/wire/pool"
)

// Event is an output action of the GCS end-point directed at its application
// client: message delivery, view delivery (with transitional set), or a
// block request.
type Event interface {
	isEvent()
	String() string
}

// DeliverEvent is deliver_p(q, m): message Msg from Sender is delivered to
// the application, in view InView (the delivering end-point's current view,
// which — per the within-view property — is also the view the message was
// sent in). InView shares the end-point's view, which is immutable: read it,
// Clone it before changing anything.
//
// Msg.Payload is the application's to read while it handles the event; a
// handler that keeps the bytes copies them. Hold is the runtime's business:
// when the payload lies in pooled memory — the buffer the end-point was handed
// it in (SendHeld, HandleMessageHeld), or the one it copied it into
// (Config.Pool) — Hold is that buffer, and the event owns one reference to it.
// Whoever takes the event from the end-point releases it once the application
// is done — a live Node after OnEvent returns. It is nil for an empty payload
// and for every message an end-point without a pool copied to the heap, which
// is all of them unless the runtime passes holders.
type DeliverEvent struct {
	Sender types.ProcID
	Msg    types.AppMsg
	InView types.View
	Hold   *pool.Buf
}

func (DeliverEvent) isEvent() {}

func (e DeliverEvent) String() string {
	return fmt.Sprintf("deliver(from=%s #%d in %s)", e.Sender, e.Msg.ID, e.InView)
}

// ViewEvent is view_p(v, T): the application learns the new view View
// together with its transitional set (Property 4.1).
type ViewEvent struct {
	View            types.View
	TransitionalSet types.ProcSet
}

func (ViewEvent) isEvent() {}

func (e ViewEvent) String() string {
	return fmt.Sprintf("view(%s T=%s)", e.View, e.TransitionalSet)
}

// BlockEvent is block_p(): the end-point asks the application to stop
// sending until the next view is delivered (Section 5.3). The application
// must respond with Endpoint.BlockOK and then refrain from sending; a
// blocked Send returns ErrBlocked.
type BlockEvent struct{}

func (BlockEvent) isEvent() {}

func (BlockEvent) String() string { return "block()" }

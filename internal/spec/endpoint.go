package spec

import (
	"vsgm/internal/core"
	"vsgm/internal/types"
)

// EndpointActions hands emit, in order, the external actions at p that the
// end-point output ev stands for: deliver_p(q, m); view_p(v, T), carrying a
// transitional set exactly when the end-point delivered one (a WV_RFIFO-level
// end-point delivers none); or block_p, followed by the client's block_ok_p
// when the client acknowledges on its own (core.Config.AutoBlock). This is the
// one place an end-point's outputs become spec events; every harness that
// feeds a Suite calls it.
func EndpointActions(p types.ProcID, ev core.Event, autoBlockOK bool, emit func(Event)) {
	switch e := ev.(type) {
	case core.DeliverEvent:
		emit(EDeliver{P: p, From: e.Sender, MsgID: e.Msg.ID})
	case core.ViewEvent:
		emit(EView{P: p, View: e.View, Trans: e.TransitionalSet, HasTrans: e.TransitionalSet != nil})
	case core.BlockEvent:
		emit(EBlock{P: p})
		if autoBlockOK {
			emit(EBlockOK{P: p})
		}
	}
}

// MbrshpAction is the MBRSHP output at p that a membership notification
// stands for: view_p(v) when isView, start_change_p(sc) otherwise. It takes
// the notification's fields rather than the notification itself because the
// membership package's own tests import this one.
func MbrshpAction(p types.ProcID, isView bool, sc types.StartChange, v types.View) Event {
	if isView {
		return EMView{P: p, View: v}
	}
	return EMStartChange{P: p, SC: sc}
}

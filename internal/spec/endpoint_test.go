package spec

import (
	"reflect"
	"testing"

	"vsgm/internal/core"
	"vsgm/internal/types"
)

// TestEndpointAndMbrshpActions pins the one translation of an end-point's
// outputs and of a membership notification into the trace alphabet that
// every harness calls.
func TestEndpointAndMbrshpActions(t *testing.T) {
	v := view(2, "a", "b")
	sc := types.StartChange{ID: 3, Set: types.NewProcSet("a", "b")}
	endpoint := func(ev core.Event, autoBlockOK bool) func() []Event {
		return func() []Event {
			var got []Event
			EndpointActions("a", ev, autoBlockOK, func(ev Event) { got = append(got, ev) })
			return got
		}
	}
	mbrshp := func(isView bool) func() []Event {
		return func() []Event { return []Event{MbrshpAction("a", isView, sc, v)} }
	}
	cases := []struct {
		name string
		run  func() []Event
		want []Event
	}{
		{"wv view has no transitional set", endpoint(core.ViewEvent{View: v}, true),
			[]Event{EView{P: "a", View: v}}},
		{"gcs view with empty transitional set", endpoint(core.ViewEvent{View: v, TransitionalSet: types.NewProcSet()}, true),
			[]Event{EView{P: "a", View: v, Trans: types.NewProcSet(), HasTrans: true}}},
		{"gcs view with transitional set", endpoint(core.ViewEvent{View: v, TransitionalSet: types.NewProcSet("a", "b")}, true),
			[]Event{EView{P: "a", View: v, Trans: types.NewProcSet("a", "b"), HasTrans: true}}},
		{"delivery", endpoint(core.DeliverEvent{Sender: "b", Msg: types.AppMsg{ID: 7}}, true),
			[]Event{EDeliver{P: "a", From: "b", MsgID: 7}}},
		{"block, acknowledged by the client on its own", endpoint(core.BlockEvent{}, true),
			[]Event{EBlock{P: "a"}, EBlockOK{P: "a"}}},
		{"block, acknowledged by hand later", endpoint(core.BlockEvent{}, false),
			[]Event{EBlock{P: "a"}}},
		{"start_change notification", mbrshp(false),
			[]Event{EMStartChange{P: "a", SC: sc}}},
		{"view notification", mbrshp(true),
			[]Event{EMView{P: "a", View: v}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("got %v, want %v", got, tc.want)
			}
		})
	}
}

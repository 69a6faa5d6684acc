package sim

import (
	"fmt"
	"time"

	"vsgm/internal/core"
	"vsgm/internal/corfifo"
	"vsgm/internal/membership"
	"vsgm/internal/spec"
	"vsgm/internal/types"
)

// Metrics aggregates execution measurements.
type Metrics struct {
	Sent         int64
	Delivered    int64
	ViewInstalls int64

	installTimes map[string]map[types.ProcID]time.Duration
	blockStart   map[types.ProcID]time.Duration
	BlockedTotal map[types.ProcID]time.Duration
}

// InstallTimes returns the per-process virtual times at which the view with
// the given key was delivered to the application.
func (m *Metrics) InstallTimes(viewKey string) map[types.ProcID]time.Duration {
	out := make(map[types.ProcID]time.Duration, len(m.installTimes[viewKey]))
	for p, t := range m.installTimes[viewKey] {
		out[p] = t
	}
	return out
}

// harness is the end-point half of a simulated world, shared by Cluster and
// ServerWorld: the member table, the network input and membership
// notifications routed to each member, and the draining of each member's
// outputs into the metrics, the spec suite and the observer callback. The
// worlds differ only in what produces the notifications (the oracle, or the
// membership servers) and in how members come and go.
type harness struct {
	*engine

	suite         *spec.Suite                         // optional
	onAppEvent    func(p types.ProcID, ev core.Event) // optional
	autoBlockOK   bool                                // the clients acknowledge block on their own
	notifyLatency LatencyModel
	members       map[types.ProcID]*member
	crashes       map[types.ProcID]int // crashes per member, to drop what was in flight to it
	metrics       Metrics
}

// member is one end-point of a world with drain's re-entrancy guard.
type member struct {
	id       types.ProcID
	node     Node
	draining bool // drain is handing out this end-point's events
}

func newHarness(e *engine, suite *spec.Suite, notifyLatency LatencyModel, autoBlockOK bool) harness {
	return harness{
		engine:        e,
		suite:         suite,
		autoBlockOK:   autoBlockOK,
		notifyLatency: notifyLatency,
		members:       make(map[types.ProcID]*member),
		crashes:       make(map[types.ProcID]int),
		metrics: Metrics{
			installTimes: make(map[string]map[types.ProcID]time.Duration),
			blockStart:   make(map[types.ProcID]time.Duration),
			BlockedTotal: make(map[types.ProcID]time.Duration),
		},
	}
}

// newEndpoint builds p's core end-point from cfg's end-point fields, with its
// message identifiers based at seq × 10⁹ so that no two end-points of one
// execution share one.
func newEndpoint(cfg Config, p types.ProcID, seq int, tr *corfifo.Handle) (*core.Endpoint, error) {
	epCfg := core.Config{
		ID:                 p,
		Transport:          tr,
		Level:              cfg.Level,
		Forwarding:         cfg.Forwarding,
		AutoBlock:          !cfg.ManualBlock,
		SmallSync:          cfg.SmallSync,
		AckInterval:        cfg.AckInterval,
		HierarchyGroupSize: cfg.HierarchyGroupSize,
		MsgIDBase:          int64(seq) * 1_000_000_000,
	}
	if cfg.TraceFor != nil {
		epCfg.Trace = cfg.TraceFor(p)
	}
	return core.NewEndpoint(epCfg)
}

// add makes node p's member and routes p's network input to it.
func (h *harness) add(p types.ProcID, node Node) {
	m := &member{id: p, node: node}
	h.members[p] = m
	h.listen(m)
}

// listen routes m's network input to its node, draining the node after each
// message.
func (h *harness) listen(m *member) {
	h.net.Register(m.id, corfifo.HandlerFunc(func(from types.ProcID, msg types.WireMsg) {
		m.node.HandleMessage(from, msg)
		h.drain(m)
	}))
}

func (h *harness) specEvent(ev spec.Event) {
	if h.suite != nil {
		h.suite.OnEvent(ev)
	}
}

// relay hands a membership notification to client p after the notification
// latency, in order with p's earlier notifications. The MBRSHP outputs are
// linked to CO_RFIFO.live_p as in Figure 8. The suite sees the notification
// even when p has no end-point (a client without one, or one detached since).
// A notification still in flight when p crashes dies with it: neither the
// suite nor p's recovered end-point sees it, since the recovered p starts
// from its initial state and has been told of no change.
func (h *harness) relay(p types.ProcID, n membership.Notification) {
	crashes := h.crashes[p]
	h.schedule(channel{chanNotify, pair{p, p}}, 0, h.notifyLatency, func() {
		if h.crashes[p] != crashes {
			return
		}
		isView := n.Kind == membership.NotifyView
		h.specEvent(spec.MbrshpAction(p, isView, n.StartChange, n.View))
		m := h.members[p]
		if m == nil {
			return
		}
		if isView {
			h.net.SetLive(p, n.View.Members)
			m.node.HandleView(n.View)
		} else {
			h.net.SetLive(p, n.StartChange.Set)
			m.node.HandleStartChange(n.StartChange)
		}
		h.drain(m)
	})
}

// memberOf returns p's member, or an error when p has no end-point.
func (h *harness) memberOf(p types.ProcID) (*member, error) {
	if m := h.members[p]; m != nil {
		return m, nil
	}
	return nil, fmt.Errorf("sim: %s has no end-point", p)
}

// Send multicasts payload from p in p's current view. p must have an
// end-point: a ServerWorld's clients have one only with WithEndpoints.
func (h *harness) Send(p types.ProcID, payload []byte) (types.AppMsg, error) {
	m, err := h.memberOf(p)
	if err != nil {
		return types.AppMsg{}, err
	}
	msg, err := m.node.Send(payload)
	if err != nil {
		return types.AppMsg{}, err
	}
	h.metrics.Sent++
	h.specEvent(spec.ESend{P: p, MsgID: msg.ID})
	h.drain(m)
	return msg, nil
}

// drain hands the application events an end-point produced to the metrics,
// the spec suite and the observer callback, in the end-point's order. It does
// not re-enter: a handler that calls back into the world for the same process
// (Send, BlockOK) queues more events, and the nested drain returns at once,
// leaving them to the outermost call, which keeps taking until the end-point
// has none. So Send from inside a handler no longer sees its own self-delivery
// on return; it sees it after the events that precede it. The suite is fed a
// whole batch before the batch's first handler runs, because that is the order
// of the end-point's external actions: everything in the batch happened before
// any send a handler makes in response.
func (h *harness) drain(m *member) {
	if m.draining {
		return
	}
	m.draining = true
	defer func() { m.draining = false }()
	for {
		evs := m.node.TakeEvents()
		if len(evs) == 0 {
			return
		}
		for _, ev := range evs {
			h.observe(m.id, ev)
		}
		if h.onAppEvent != nil {
			for _, ev := range evs {
				h.onAppEvent(m.id, ev)
			}
		}
	}
}

// observe feeds one application event to the metrics and the spec suite.
func (h *harness) observe(p types.ProcID, ev core.Event) {
	switch e := ev.(type) {
	case core.DeliverEvent:
		h.metrics.Delivered++
	case core.ViewEvent:
		h.metrics.ViewInstalls++
		row := h.metrics.installTimes[e.View.Key()]
		if row == nil {
			row = make(map[types.ProcID]time.Duration)
			h.metrics.installTimes[e.View.Key()] = row
		}
		row[p] = h.now
		if start, ok := h.metrics.blockStart[p]; ok {
			h.metrics.BlockedTotal[p] += h.now - start
			delete(h.metrics.blockStart, p)
		}
	case core.BlockEvent:
		h.metrics.blockStart[p] = h.now
	}
	if h.suite != nil {
		spec.EndpointActions(p, ev, h.autoBlockOK, h.suite.OnEvent)
	}
}

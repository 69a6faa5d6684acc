package main

import (
	"sync"
	"sync/atomic"

	"vsgm/internal/core"
	"vsgm/internal/membership"
	"vsgm/internal/spec"
	"vsgm/internal/types"
)

// stageTrace is what a traced run adds on top of the tracker: it stamps the
// boundaries the live node already exposes as hooks and tiles one multicast's
// life, as seen by the member that delivered it last, into four stages that
// sum to its delivery latency exactly:
//
//	admit    stamp in the payload (Send entry, or due time) -> OnSend hook:
//	         flow-control gates, the block during a view change, the automaton
//	         step up to the hook (open loop: plus generator lateness)
//	enqueue  OnSend -> Node.Send returns: encode once, fan out to the mailboxes
//	transit  Send returned -> receiver's Observe(DeliverEvent): queue, flush,
//	         kernel, assemble, decode, automaton
//	pump     Observe -> OnEvent: the receiver's serialized event pump
//
// It also feeds the full specification suite exactly as the soak harness
// does, so a traced run checks every safety property of the paper.
type stageTrace struct {
	t      *tracker
	onSend [][]atomic.Int64 // [sender][slot] OnSend stamp
	back   [][]atomic.Int64 // [sender][slot] Send-returned stamp, 0 until then

	// observed[r] carries Observe stamps to member r's event pump in delivery
	// order. It holds at most what the pump has not consumed yet, which credit
	// flow control bounds at one 1024-frame window per peer link plus the
	// member's own outstanding sends; 8192 leaves room to spare.
	observed []chan int64

	stage []*tiling // per completing member: admit, enqueue, transit, pump

	mu    sync.Mutex
	suite *spec.Suite

	// View-change boundaries; the churn driver reads them after each change.
	firstStartChange atomic.Int64   // first start_change notification since armed
	viewNotifyAt     []atomic.Int64 // per member: its latest view notification
	viewObservedAt   []atomic.Int64 // per member: its latest Observe(ViewEvent)
}

func newStageTrace(t *tracker, members, senders int) *stageTrace {
	st := &stageTrace{
		t:              t,
		onSend:         make([][]atomic.Int64, senders),
		back:           make([][]atomic.Int64, senders),
		observed:       make([]chan int64, members),
		stage:          make([]*tiling, members),
		suite:          spec.FullSuite(),
		viewNotifyAt:   make([]atomic.Int64, members),
		viewObservedAt: make([]atomic.Int64, members),
	}
	for s := 0; s < senders; s++ {
		st.onSend[s] = make([]atomic.Int64, t.ring)
		st.back[s] = make([]atomic.Int64, t.ring)
	}
	for r := range st.observed {
		st.observed[r] = make(chan int64, 8192)
		st.stage[r] = newTiling(4)
	}
	t.stages = st
	return st
}

// hooks returns the traced callbacks of member i; sender is its index among
// the sending members, or -1.
func (st *stageTrace) hooks(i int, id types.ProcID, sender int) memberHooks {
	h := memberHooks{
		observe: func(ev core.Event) {
			now := st.t.now()
			st.mu.Lock()
			switch e := ev.(type) {
			case core.DeliverEvent:
				st.suite.OnEvent(spec.EDeliver{P: id, From: e.Sender, MsgID: e.Msg.ID})
			case core.ViewEvent:
				st.suite.OnEvent(spec.EView{P: id, View: e.View, Trans: e.TransitionalSet, HasTrans: true})
			case core.BlockEvent:
				st.suite.OnEvent(spec.EBlock{P: id})
				st.suite.OnEvent(spec.EBlockOK{P: id})
			}
			st.mu.Unlock()
			switch ev.(type) {
			case core.DeliverEvent:
				st.observed[i] <- now
			case core.ViewEvent:
				st.viewObservedAt[i].Store(now)
			}
		},
		observeNotify: func(n membership.Notification) {
			now := st.t.now()
			st.mu.Lock()
			switch n.Kind {
			case membership.NotifyStartChange:
				st.suite.OnEvent(spec.EMStartChange{P: id, SC: n.StartChange})
			case membership.NotifyView:
				st.suite.OnEvent(spec.EMView{P: id, View: n.View})
			}
			st.mu.Unlock()
			switch n.Kind {
			case membership.NotifyStartChange:
				st.firstStartChange.CompareAndSwap(0, now)
			case membership.NotifyView:
				st.viewNotifyAt[i].Store(now)
			}
		},
	}
	if sender >= 0 {
		var seq uint64 // OnSend runs on the sending goroutine, in send order
		h.onSend = func(m types.AppMsg) {
			st.onSend[sender][seq&uint64(st.t.ring-1)].Store(st.t.now())
			seq++
			st.mu.Lock()
			st.suite.OnEvent(spec.ESend{P: id, MsgID: m.ID})
			st.mu.Unlock()
		}
	}
	return h
}

// sendReturned records that Node.Send came back for (sender, seq).
func (st *stageTrace) sendReturned(sender int, seq uint64) {
	st.back[sender][seq&uint64(st.t.ring-1)].Store(st.t.now())
}

func (st *stageTrace) popObserved(r int) int64 { return <-st.observed[r] }

// complete tiles one finished multicast; r delivered it last.
func (st *stageTrace) complete(r, s int, seq uint64, sent, observedAt, now int64) {
	slot := seq & uint64(st.t.ring-1)
	hooked := st.onSend[s][slot].Load()
	back := st.back[s][slot].Swap(0)
	if back < hooked || back > observedAt {
		// The receiver got there before Node.Send returned to its caller (the
		// slot is empty or still holds the previous lap's stamp): the whole
		// stretch up to Observe was spent with the sender inside the call.
		back = observedAt
	}
	st.stage[r].add(hooked-sent, back-hooked, observedAt-back, now-observedAt)
}

// stages merges the members' tilings once their event pumps have exited.
func (st *stageTrace) stages() *tiling {
	all := newTiling(4)
	for _, t := range st.stage {
		all.merge(t)
	}
	return all
}

func (st *stageTrace) specErr() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.suite.Err()
}

package live

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vsgm/internal/core"
	"vsgm/internal/spec"
	"vsgm/internal/types"
)

// pairGroup is two clients and one server on loopback, grouped, counting
// deliveries per member: the smallest group a multicast crosses a socket in.
// It is wired by hand rather than on a Deployment because the allocation
// ceilings it serves count the whole process's allocations, and a
// Deployment's spec suite allocates for every event it checks.
type pairGroup struct {
	nodes     []*Node
	delivered [2]atomic.Int64
}

func newPairGroup(t *testing.T) *pairGroup {
	t.Helper()
	g := &pairGroup{}
	dir := make(map[types.ProcID]string)
	srv, err := NewServerNode(ServerConfig{ID: "srv0", Addr: "127.0.0.1:0", Servers: types.NewProcSet("srv0")})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	dir["srv0"] = srv.Addr()
	for i := 0; i < 2; i++ {
		id := types.ProcID(fmt.Sprintf("cli%d", i))
		node, err := NewNode(NodeConfig{ID: id, Addr: "127.0.0.1:0", AutoBlock: true, MsgIDBase: int64(i+1) * 1_000_000,
			OnEvent: func(ev core.Event) {
				if _, ok := ev.(core.DeliverEvent); ok {
					g.delivered[i].Add(1)
				}
			}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(node.Close)
		g.nodes = append(g.nodes, node)
		dir[id] = node.Addr()
	}
	srv.SetPeers(dir)
	for _, n := range g.nodes {
		n.SetPeers(dir)
		srv.AddClient(n.ID())
	}
	srv.SetReachable(types.NewProcSet("srv0"))
	waitUntil(t, "both members to install the pair view", 10*time.Second, func() bool {
		return g.nodes[0].CurrentView().Members.Len() == 2 && g.nodes[1].CurrentView().Members.Len() == 2
	})
	return g
}

// stream multicasts payload n times from the first member, at most burst
// messages ahead of the slower member's deliveries.
func (g *pairGroup) stream(t *testing.T, payload []byte, n, burst int) {
	t.Helper()
	for n > 0 {
		k := min(n, burst)
		n -= k
		target := g.delivered[0].Load() + int64(k)
		for i := 0; i < k; i++ {
			if _, err := g.nodes[0].Send(payload); err != nil {
				t.Fatalf("send: %v", err)
			}
		}
		waitUntil(t, "both members to deliver the stream", 30*time.Second, func() bool {
			return g.delivered[0].Load() >= target && g.delivered[1].Load() >= target
		})
	}
}

// TestLiveBulkReceiveAllocBytes streams 2 000 multicasts of 16 KiB through a
// two-member group and bounds the bytes the whole process allocates per
// delivery. A large payload is written into user memory once at each member —
// by the sender's copy into a pooled buffer, by the kernel into the receiver's
// — and held there, so what is left to allocate per delivery is the boxed
// event and amortized bookkeeping: a few hundred bytes. One copy of the
// payload into fresh memory anywhere on the path is 16 KiB per delivery (8 KiB
// if only one side makes it) and fails here.
func TestLiveBulkReceiveAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation volume is not meaningful under the race detector")
	}
	const (
		warm    = 400
		msgs    = 2_000
		burst   = 100 // what the sender runs ahead by; the pool's working set is sized by it
		ceiling = 2 << 10
	)
	t.Run("goroutine", func(t *testing.T) {
		g := newPairGroup(t)
		payload := make([]byte, 16<<10)
		g.stream(t, payload, warm, burst) // fills the pool's rings and every lazily grown queue
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g.stream(t, payload, msgs, burst)
		runtime.ReadMemStats(&after)
		perDelivery := float64(after.TotalAlloc-before.TotalAlloc) / float64(2*msgs)
		t.Logf("%.0f bytes allocated per delivered 16 KiB message", perDelivery)
		if perDelivery > ceiling {
			t.Errorf("%.0f bytes allocated per delivered 16 KiB message, ceiling %d", perDelivery, ceiling)
		}
	})
}

// integrityTable is the source of every payload in TestHeldPayloadIntegrity: a
// message's bytes are a window of it chosen by (sender, sequence number), so a
// receiver checks all of them with one comparison.
var integrityTable = func() []byte {
	b := make([]byte, 128<<10)
	rand.New(rand.NewSource(19)).Read(b)
	return b
}()

const integrityHeader = 16 // sender, sequence number

func integrityPayload(buf []byte, sender, seq uint64, size int) []byte {
	buf = buf[:size]
	binary.BigEndian.PutUint64(buf, sender)
	binary.BigEndian.PutUint64(buf[8:], seq)
	copy(buf[integrityHeader:], integrityWindow(sender, seq, size))
	return buf
}

func integrityWindow(sender, seq uint64, size int) []byte {
	off := int((sender*7919 + seq*104729) % (64 << 10))
	return integrityTable[off : off+size-integrityHeader]
}

// integrityCheck reports what is wrong with a delivered payload, "" if nothing.
func integrityCheck(p []byte) string {
	if len(p) < integrityHeader {
		return fmt.Sprintf("%d-byte payload", len(p))
	}
	sender, seq := binary.BigEndian.Uint64(p), binary.BigEndian.Uint64(p[8:])
	if sender > 16 || seq > 1<<32 {
		return fmt.Sprintf("header reads sender %#x seq %#x", sender, seq)
	}
	if !bytes.Equal(p[integrityHeader:], integrityWindow(sender, seq, len(p))) {
		return fmt.Sprintf("body of message %d from sender %d (%d bytes) does not match", seq, sender, len(p))
	}
	return ""
}

// TestHeldPayloadIntegrity is the use-after-release hunt. Four members
// multicast 20 000 messages whose every byte is a function of (sender, sequence
// number) — of 16–40 KiB, each held in the buffer it arrived in, and again of
// 16 B–2 KiB, each copied into a chunk it shares with its neighbours or (past a
// quarter of a chunk) a buffer of its own — and every OnEvent checks the whole
// payload, with the pools set to overwrite a slab the moment its last reference
// goes, so that a payload read after its buffer was given back is wrong on the
// spot and not only when another connection happens to reuse the memory. The
// run takes the held bytes through each way their owner can die under them:
// stability collection while the event is still queued (in the large run one
// handler is parked until the slot it was delivered from has been collected,
// then reads its payload again; a small payload's chunk is also referenced by
// the neighbours queued behind a parked handler, so its count says nothing
// about the slot — core's TestPooledEndpointPacksSmallPayloads steps through
// that case), a view change under traffic that discards buffers with
// half-filled chunks open, and an end-point crash and recovery. It ends with
// every pooled buffer back on every node.
func TestHeldPayloadIntegrity(t *testing.T) {
	t.Run("goroutine", func(t *testing.T) { heldPayloadIntegrity(t, 16<<10, 40<<10) })
	t.Run("small", func(t *testing.T) { heldPayloadIntegrity(t, integrityHeader, 2<<10) })
}

func heldPayloadIntegrity(t *testing.T, minSize, maxSize int) {
	total := 20_000
	if raceEnabled || testing.Short() {
		total = 3_000
	}
	const members = 4
	var (
		checked, held atomic.Int64
		parkOnce      sync.Once
		parked        atomic.Bool
	)
	w := deploy(t, DeploymentConfig{Servers: 2, Clients: members, Node: func(_ int, c *NodeConfig) {
		id := c.ID
		c.OnEvent = func(ev core.Event) {
			de, ok := ev.(core.DeliverEvent)
			if !ok {
				return
			}
			if bad := integrityCheck(de.Msg.Payload); bad != "" {
				t.Errorf("%s: delivery from %s: %s", id, de.Sender, bad)
			}
			checked.Add(1)
			if de.Hold == nil {
				return
			}
			held.Add(1)
			if id == "cli1" && de.Sender != id && checked.Load() > 200 && dedicated(de.Hold) {
				// Sit on one event until the slot it came from is gone — the
				// acknowledgments of the other members and this member's own
				// (sent by the automaton, which does not wait for this
				// handler) make it stable — so that only the event's
				// reference keeps the buffer from the poisoner.
				parkOnce.Do(func() {
					for deadline := time.Now().Add(20 * time.Second); de.Hold.Refs() > 1; time.Sleep(time.Millisecond) {
						if time.Now().After(deadline) {
							t.Errorf("%s: parked for 20s and the slot was never collected (%d references)", id, de.Hold.Refs())
							return
						}
					}
					if bad := integrityCheck(de.Msg.Payload); bad != "" {
						t.Errorf("%s: payload after its slot was collected under a parked handler: %s", id, bad)
					}
					parked.Store(true)
				})
			}
		}
	}})
	closed := false
	defer func() {
		if !closed {
			w.close()
		}
	}()
	for _, node := range w.Clients() {
		node.fabric.pool.PoisonOnRelease(true)
	}
	w.SetReachable()
	w.waitGroupFormed()

	// send runs one sender per listed member until, together, they have
	// multicast n messages; a send that fails (the end-point is between
	// crash and recovery, say) is simply not counted.
	var seq [members]uint64
	send := func(n int, who ...int) {
		var (
			wg   sync.WaitGroup
			left atomic.Int64
		)
		left.Store(int64(n))
		for _, s := range who {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(s) + 1))
				node := w.Client(types.ProcID(fmt.Sprintf("cli%d", s)))
				buf := make([]byte, 40<<10)
				for left.Add(-1) >= 0 {
					seq[s]++
					size := minSize + rng.Intn(maxSize-minSize+1)
					if _, err := node.Send(integrityPayload(buf, uint64(s), seq[s], size)); err != nil && err != core.ErrCrashed {
						t.Errorf("cli%d: send: %v", s, err)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	settle := func(what string, floor int64) {
		t.Helper()
		waitUntil(t, what, 60*time.Second, func() bool { return checked.Load() >= floor })
	}

	// One view, everyone sending; the parked handler is in here.
	send(total*2/5, 0, 1, 2, 3)
	settle("the first phase to be delivered everywhere", int64(total*2/5*members))
	if !parked.Load() && minSize >= stagingSlabSize {
		t.Error("no handler was ever parked across a collection")
	}

	// A view change under traffic: a member leaves while the others send.
	var phase sync.WaitGroup
	phase.Add(1)
	go func() {
		defer phase.Done()
		send(total/5, 0, 1, 2)
	}()
	for _, sn := range w.Servers() {
		sn.RemoveClient("cli3")
	}
	w.Servers()[0].Reconfigure()
	rest := types.NewProcSet("cli0", "cli1", "cli2")
	w.waitFor("the survivors to install the reduced view", func() bool {
		for p := range rest {
			if !w.Client(p).CurrentView().Members.Equal(rest) {
				return false
			}
		}
		return true
	})
	phase.Wait()

	// An end-point crash and recovery under traffic (Section 8: everything
	// it buffered is forgotten), then the view change that takes the
	// recovered member back in.
	phase.Add(1)
	go func() {
		defer phase.Done()
		send(total/5, 0, 1, 2)
	}()
	time.Sleep(20 * time.Millisecond)
	victim := w.Client("cli2")
	victim.mu.Lock()
	w.Record(spec.ECrash{P: "cli2"}, spec.ERecover{P: "cli2"})
	victim.ep.Crash()
	victim.ep.Recover()
	victim.dispatchNow()
	victim.mu.Unlock()
	vid := w.MaxViewID()
	w.Servers()[0].Reconfigure()
	w.waitFor("the group to re-form around the recovered member", func() bool {
		for p := range rest {
			if v := w.Client(p).CurrentView(); !v.Members.Equal(rest) || v.ID <= vid {
				return false
			}
		}
		return true
	})
	phase.Wait()

	before := checked.Load()
	send(total/5, 0, 1, 2)
	settle("the last phase to be delivered everywhere", before+int64(total/5*3))

	if held.Load() != checked.Load() {
		t.Errorf("%d of %d deliveries carried a held buffer, want all: a payload reached OnEvent from the heap", held.Load(), checked.Load())
	}
	t.Logf("%d deliveries checked in full, %d of them from held buffers", checked.Load(), held.Load())
	if err := w.SpecErr(); err != nil {
		t.Errorf("spec violations:\n%v", err)
	}
	closed = true
	w.close() // fails the test unless PoolStats().Outstanding == 0 on every node
}

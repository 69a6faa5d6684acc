package live

// Transport data-path benchmarks. BenchmarkFabricBroadcast measures one
// multicast through the real fabric — encode, fan-out across per-peer
// queues, supervised writers, TCP sockets — against raw discard sinks, so
// the numbers isolate the sender path.

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"vsgm/internal/types"
	"vsgm/internal/wire"
	"vsgm/internal/wire/pool"
)

// startSink runs a raw TCP server that accepts connections and discards
// every byte: the cheapest possible peer, so sender-side cost dominates.
func startSink(b *testing.B) (addr string, closeFn func()) {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				select {
				case <-done:
					return
				default:
				}
				io.Copy(io.Discard, conn)
			}()
		}
	}()
	return ln.Addr().String(), func() { close(done); ln.Close() }
}

func benchBroadcast(b *testing.B, fanout, payload int) {
	cfg := TransportConfig{
		DialTimeout: 2 * time.Second, WriteTimeout: 5 * time.Second,
		BackoffBase: 5 * time.Millisecond, BackoffMax: 100 * time.Millisecond,
	}
	dests := make([]types.ProcID, fanout)
	dir := make(map[types.ProcID]string, fanout)
	for i := range dests {
		q := types.ProcID(fmt.Sprintf("sink%02d", i))
		addr, closeSink := startSink(b)
		defer closeSink()
		dests[i] = q
		dir[q] = addr
	}
	fa, err := newFabric("bench", "127.0.0.1:0", cfg, dropFrame, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer fa.Close()
	fa.SetPeers(dir)

	msg := types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: 0, Payload: make([]byte, payload)}}

	// Drain-wait: every link has put target frames on the wire.
	drained := func(target int64, deadline time.Duration) bool {
		limit := time.Now().Add(deadline)
		for time.Now().Before(limit) {
			ok := true
			for _, q := range dests {
				if linkCounts(fa, q)["frames_sent"] < target {
					ok = false
				}
			}
			if ok {
				return true
			}
			time.Sleep(200 * time.Microsecond)
		}
		return false
	}

	// Prime the links so dial/backoff stays out of the timed region.
	fa.Send(dests, msg)
	if !drained(1, 10*time.Second) {
		b.Fatal("links never came up")
	}

	// Backpressure: bound the in-flight backlog to 16 Ki multicasts or 16 MiB
	// of payload, whichever is less.
	window := min(1<<14, (16<<20)/payload)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg.App.ID = int64(i + 1)
		fa.Send(dests, msg)
		if i%window == window-1 {
			if !drained(int64(i+2-window), 30*time.Second) {
				b.Fatal("writers fell too far behind")
			}
		}
	}
	if !drained(int64(b.N+1), 60*time.Second) {
		b.Fatal("benchmark frames never fully drained")
	}
	b.StopTimer()
	b.SetBytes(int64(fanout * len(msg.App.Payload)))
}

// BenchmarkFabricBroadcast: one multicast to N destinations through the
// live transport (single marshal, shared pooled buffer, one vectored write per
// batch run). The 64-byte cases put many frames in a run; payload=16K puts a
// few large ones in each, the shape of mcast_bulk.
func BenchmarkFabricBroadcast(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("fanout-%d/encode-once", n), func(b *testing.B) {
			benchBroadcast(b, n, 64)
		})
	}
	b.Run("fanout-3/payload=16K", func(b *testing.B) {
		benchBroadcast(b, 3, 16<<10)
	})
}

// BenchmarkSendUnderBackpressure drives the full credit cycle: a sender
// with a small window blocks in admitData whenever the window shuts, the
// receiver marks every arriving data frame consumed, and the resulting
// credit frames reopen the window and wake the parked sender. This is the
// steady state of a loaded deployment — send, park, credit, wake — so the
// per-op allocation count is enforced with a hard ceiling: an allocation
// regression on this path multiplies across every message a busy cluster
// carries.
func BenchmarkSendUnderBackpressure(b *testing.B) {
	// Whole-process allocs per op (sender + receiver + credit return).
	// The path currently costs ~8; the ceiling leaves headroom for noise
	// but fails the build on anything resembling a per-frame copy creep.
	const allocCeiling = 40

	cfg := TransportConfig{
		DialTimeout: 2 * time.Second, WriteTimeout: 5 * time.Second,
		BackoffBase: 5 * time.Millisecond, BackoffMax: 100 * time.Millisecond,
		Window: 8,
	}
	var got atomic.Int64
	var fb *fabric
	recv := func(from types.ProcID, fr frame, body *pool.Buf) {
		defer releaseBody(body)
		if fr.Msg != nil && fr.Msg.Kind == types.KindApp {
			got.Add(1)
			fb.consumedData(from, 1)
		}
	}
	fa, err := newFabric("a", "127.0.0.1:0", cfg, dropFrame, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer fa.Close()
	fb, err = newFabric("b", "127.0.0.1:0", cfg, recv, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer fb.Close()
	fa.SetPeers(map[types.ProcID]string{"b": fb.Addr()})
	fb.SetPeers(map[types.ProcID]string{"a": fa.Addr()})

	dests := []types.ProcID{"b"}
	msg := types.WireMsg{Kind: types.KindApp, App: types.AppMsg{Payload: make([]byte, 64)}}

	// Prime the links (dial, handshake) outside the timed region.
	if err := fa.admitData(dests, true); err != nil {
		b.Fatal(err)
	}
	fa.Send(dests, msg)
	deadline := time.Now().Add(10 * time.Second)
	for got.Load() < 1 {
		if time.Now().After(deadline) {
			b.Fatal("links never came up")
		}
		time.Sleep(200 * time.Microsecond)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg.App.ID = int64(i + 1)
		if err := fa.admitData(dests, true); err != nil {
			b.Fatal(err)
		}
		fa.Send(dests, msg)
	}
	// Drain inside the timed region: the credit returns are part of the op.
	target := int64(b.N + 1)
	deadline = time.Now().Add(60 * time.Second)
	for got.Load() < target {
		if time.Now().After(deadline) {
			b.Fatalf("only %d of %d frames consumed", got.Load(), target)
		}
		time.Sleep(200 * time.Microsecond)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.SetBytes(int64(len(msg.App.Payload)))

	if s := linkCounts(fa, "b"); s["chaos_drops"] > 0 {
		b.Fatalf("backpressured sender shed frames: %v", s)
	}
	if perOp := float64(after.Mallocs-before.Mallocs) / float64(b.N); perOp > allocCeiling {
		b.Fatalf("allocation ceiling breached: %.1f allocs/op > %d", perOp, allocCeiling)
	}
}

// benchLinkScale measures the receive path at connection scale: `links` raw
// TCP peers complete handshakes against one fabric and stay attached, then a
// small band of hot senders blasts pre-encoded frames while the rest sit
// idle — the many-idle/few-hot shape of a large group. The op is one frame
// received; the run also reports resident goroutines (one reader per link)
// and the slab pool's hit ratio.
func benchLinkScale(b *testing.B, links int) {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err == nil && rl.Cur < rl.Max {
		rl.Cur = rl.Max
		syscall.Setrlimit(syscall.RLIMIT_NOFILE, &rl)
		syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl)
	}
	if need := uint64(2*links + 256); rl.Cur < need {
		b.Skipf("%d links need ~%d fds, RLIMIT_NOFILE allows %d", links, need, rl.Cur)
	}

	var frames atomic.Int64
	rx, err := newFabric("rx", "127.0.0.1:0",
		TransportConfig{},
		func(_ types.ProcID, fr frame, body *pool.Buf) {
			if fr.Msg != nil && fr.Msg.Kind == types.KindApp {
				frames.Add(1)
			}
			if body != nil {
				body.Release()
			}
		}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer rx.Close()

	// Attach every link: dial and handshake concurrently, then leave the
	// connection open (and silent) for the duration.
	conns := make([]net.Conn, links)
	var dialWG sync.WaitGroup
	dialErr := make(chan error, links)
	sem := make(chan struct{}, 64)
	for i := range conns {
		dialWG.Add(1)
		go func(i int) {
			defer dialWG.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			conn, err := net.Dial("tcp", rx.Addr())
			if err != nil {
				dialErr <- err
				return
			}
			hello, err := wire.EncodeFrame(frame{From: types.ProcID(fmt.Sprintf("peer%05d", i))})
			if err != nil {
				dialErr <- err
				conn.Close()
				return
			}
			_, err = conn.Write(hello.Wire())
			hello.Release()
			if err != nil {
				dialErr <- err
				conn.Close()
				return
			}
			conns[i] = conn
		}(i)
	}
	dialWG.Wait()
	select {
	case err := <-dialErr:
		b.Fatalf("attaching %d links: %v", links, err)
	default:
	}
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()

	// Pre-encode one frame and a write batch of them.
	m := types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: 1, Payload: make([]byte, 128)}}
	fb, err := wire.EncodeFrame(frame{Msg: &m})
	if err != nil {
		b.Fatal(err)
	}
	one := append([]byte(nil), fb.Wire()...)
	fb.Release()
	const batchFrames = 64
	batch := bytes.Repeat(one, batchFrames)

	hot := min(32, links)
	perSender := make([]int, hot)
	baseline := frames.Load()
	goroutines := runtime.NumGoroutine()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	for j := range perSender {
		perSender[j] = b.N / hot
		if j < b.N%hot {
			perSender[j]++
		}
	}
	var sendWG sync.WaitGroup
	for j := 0; j < hot; j++ {
		n := perSender[j]
		if n == 0 {
			continue
		}
		sendWG.Add(1)
		go func(conn net.Conn, n int) {
			defer sendWG.Done()
			for n >= batchFrames {
				if _, err := conn.Write(batch); err != nil {
					b.Errorf("hot sender: %v", err)
					return
				}
				n -= batchFrames
			}
			for ; n > 0; n-- {
				if _, err := conn.Write(one); err != nil {
					b.Errorf("hot sender: %v", err)
					return
				}
			}
		}(conns[j], n)
	}
	sendWG.Wait()
	target := baseline + int64(b.N)
	deadline := time.Now().Add(120 * time.Second)
	for frames.Load() < target {
		if time.Now().After(deadline) {
			b.Fatalf("received %d of %d frames across %d links", frames.Load()-baseline, b.N, links)
		}
		time.Sleep(100 * time.Microsecond)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.SetBytes(int64(len(m.App.Payload)))
	b.ReportMetric(float64(goroutines), "goroutines")
	ps := rx.PoolStats()
	if ps.Gets > 0 {
		b.ReportMetric(float64(ps.Hits)/float64(ps.Gets), "pool-hit-ratio")
	}
	// Zero-copy regression guard (make bench-smoke): the receive path must
	// stay at ~1 alloc per frame — a payload copy sneaking back in shows up
	// immediately. Enforced only at steady state, where setup allocations
	// (slab misses, goroutine stacks) have amortized away.
	const receiveAllocCeiling = 2
	if b.N >= 50_000 {
		if perOp := float64(after.Mallocs-before.Mallocs) / float64(b.N); perOp > receiveAllocCeiling {
			b.Fatalf("receive-path allocation ceiling breached: %.2f allocs/op > %d", perOp, receiveAllocCeiling)
		}
	}
}

// BenchmarkLinkScale: frames received per second with 1k and 10k attached
// links. The 10k point needs ~20k file descriptors and skips (with the
// required rlimit in the message) on hosts that cannot hold both socket ends.
func BenchmarkLinkScale(b *testing.B) {
	for _, links := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("links=%d", links), func(b *testing.B) {
			benchLinkScale(b, links)
		})
	}
}

// BenchmarkAssemblerBulk runs a stream of back-to-back 16 KiB multicasts
// through a frame assembler the way a socket with a backlog feeds it — every
// read gets as much as it is offered — and reports, per frame, the reads it
// took (advances/op) and the bytes the assembler itself moved between buffers
// (copied-B/op). A large body is written where it stays: one read, and only
// the few surplus bytes of the next frame's head change buffers.
func BenchmarkAssemblerBulk(b *testing.B) {
	m := types.WireMsg{Kind: types.KindApp, App: types.AppMsg{ID: 1, Payload: make([]byte, 16<<10)}}
	fb, err := wire.EncodeFrame(frame{Msg: &m})
	if err != nil {
		b.Fatal(err)
	}
	const perRound = 64
	stream := bytes.Repeat(fb.Wire(), perRound)
	fb.Release()

	a := newFrameAssembler(pool.New())
	defer a.close()
	var (
		fr       frame
		frames   int
		advances int
	)
	b.SetBytes(int64(len(stream) / perRound))
	b.ReportAllocs()
	b.ResetTimer()
	for frames < b.N {
		for rest := stream; len(rest) > 0; {
			n := copy(a.writable(), rest)
			rest = rest[n:]
			a.advance(n)
			advances++
			for {
				body, done, err := a.next(&fr)
				if err != nil {
					b.Fatal(err)
				}
				if done {
					break
				}
				body.Release()
				frames++
			}
		}
	}
	b.ReportMetric(float64(advances)/float64(frames), "advances/op")
	b.ReportMetric(float64(a.copied)/float64(frames), "copied-B/op")
}

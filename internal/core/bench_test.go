package core

import (
	"fmt"
	"testing"

	"vsgm/internal/types"
	"vsgm/internal/wire/pool"
)

// BenchmarkEndpointReceivePath measures the per-message cost of the
// end-point's input handling plus delivery (buffering, FIFO bookkeeping,
// step loop, stability collection every 64 messages) in a stable two-member
// view. The 64-byte cases are the same borrowed message retained both ways: as
// a heap copy, and packed into a pooled chunk (what a live node's end-point
// does). The 16 KiB cases likewise: copied out of borrowed memory, and held in
// the pooled buffer it arrived in.
func BenchmarkEndpointReceivePath(b *testing.B) {
	b.Run("payload=64", func(b *testing.B) { benchReceivePath(b, 64, false, nil) })
	b.Run("payload=64/pooled", func(b *testing.B) { benchReceivePath(b, 64, false, pool.New()) })
	b.Run("payload=16K/copied", func(b *testing.B) { benchReceivePath(b, 16<<10, false, nil) })
	b.Run("payload=16K/held", func(b *testing.B) { benchReceivePath(b, 16<<10, true, nil) })
}

func benchReceivePath(b *testing.B, size int, held bool, own *pool.Pool) {
	const ackEvery = 64
	ep, ids := stableEndpoint(b, 2, func(c *Config) { c.AckInterval, c.Pool = ackEvery, own })
	p := pool.New()
	borrowed := make([]byte, size)
	m := types.WireMsg{Kind: types.KindApp}
	ack := types.WireMsg{Kind: types.KindAck, Cut: types.Cut{ids[0]: 0}}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.App.ID = int64(i)
		var hold *pool.Buf
		if held {
			// The transport's part: the body already lies in a buffer of its
			// own, and the reference is dropped once the frame is handled.
			hold = p.Get(size)
			m.App.Payload = hold.B()
		} else {
			m.App.Payload = borrowed
		}
		ep.HandleMessageHeld(ids[1], m, hold)
		releaseHolds(ep.TakeEvents())
		if hold != nil {
			hold.Release()
		}
		if i%ackEvery == ackEvery-1 {
			ack.Cut[ids[1]] = i + 1
			ep.HandleMessage(ids[1], ack)
		}
	}
}

// BenchmarkEndpointSendPath measures the application send path (buffering,
// multicast fan-out through a transport that discards, self-delivery); the
// pooled case stores the payload in a pooled chunk instead of a heap copy.
func BenchmarkEndpointSendPath(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) { benchSendPath(b, n, nil) })
	}
	b.Run("N=8/pooled", func(b *testing.B) { benchSendPath(b, 8, pool.New()) })
}

func benchSendPath(b *testing.B, n int, own *pool.Pool) {
	ep, _ := stableEndpoint(b, n, func(c *Config) { c.Pool = own })
	payload := make([]byte, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ep.Send(payload); err != nil {
			b.Fatal(err)
		}
		releaseHolds(ep.TakeEvents())
	}
}

// BenchmarkMsgBufGrowth measures msgBuf.set's buffer-growth cost: the
// contiguous FIFO fill of a sender's own stream, and the forwarded-hole jump
// where one message lands far past the current end. Growth is a reslice or
// one doubling allocation per step, never an element-at-a-time nil append.
func BenchmarkMsgBufGrowth(b *testing.B) {
	const n = 1024
	msg := types.AppMsg{ID: 1, Payload: []byte("x")}
	b.Run("contiguous", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf msgBuf
			for j := 1; j <= n; j++ {
				buf.set(j, msg, nil)
			}
		}
	})
	b.Run("hole-jump", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf msgBuf
			buf.set(n, msg, nil)
		}
	})
}

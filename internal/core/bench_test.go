package core

import (
	"fmt"
	"testing"

	"vsgm/internal/types"
)

// BenchmarkEndpointReceivePath measures the per-message cost of the
// end-point's input handling plus delivery (buffering, FIFO bookkeeping,
// step loop) in a stable two-member view.
func BenchmarkEndpointReceivePath(b *testing.B) {
	ep, ids := stableEndpoint(b, 2, nil)
	m := types.WireMsg{Kind: types.KindApp, App: types.AppMsg{Payload: make([]byte, 64)}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.App.ID = int64(i)
		ep.HandleMessage(ids[1], m)
		ep.TakeEvents()
	}
}

// BenchmarkEndpointSendPath measures the application send path (buffering,
// multicast fan-out through a transport that discards, self-delivery).
func BenchmarkEndpointSendPath(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			ep, _ := stableEndpoint(b, n, nil)
			payload := make([]byte, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ep.Send(payload); err != nil {
					b.Fatal(err)
				}
				ep.TakeEvents()
			}
		})
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
				buf.set(j, msg)
			}
		}
	})
	b.Run("hole-jump", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var buf msgBuf
			buf.set(n, msg)
		}
	})
}

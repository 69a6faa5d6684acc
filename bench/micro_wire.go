package main

import (
	"math/rand"
	"testing"
	"time"

	"vsgm/internal/types"
	"vsgm/internal/wire"
)

// microWire times the frame codec on the two multicast frames the workloads
// put on the wire: 256 B (mcast_stream, churn_paced) and 16 KiB (mcast_bulk).
func microWire(rng *rand.Rand, budget time.Duration, out metrics) {
	for _, size := range []struct {
		payload int
		suffix  string
	}{{256, ""}, {16 << 10, "_16k"}} {
		members := types.NewProcSet(memberIDs...)
		startIDs := make(map[types.ProcID]types.StartChangeID)
		for _, p := range memberIDs {
			startIDs[p] = 1
		}
		msg := types.WireMsg{
			Kind:      types.KindApp,
			App:       types.AppMsg{ID: 42, Payload: fillPayload(rng, size.payload, 0)},
			HistView:  types.NewView(1, members, startIDs),
			HistIndex: 7,
		}
		frame := wire.Frame{From: memberIDs[0], Msg: &msg}
		buf := make([]byte, 0, size.payload+512)
		encode := func() {
			b, err := wire.AppendFrame(buf[:0], frame)
			if err != nil {
				panic(err) // a frame built from constants cannot fail to encode
			}
			buf = b
		}
		ns, n := perOp(budget, encode)
		out.set("wire.encode"+size.suffix+"_ns_per_frame", ns, "ns", int64(n))

		encoded := append([]byte(nil), buf...)
		var decoded wire.Frame
		state := wire.NewDecodeState()
		decode := func() {
			if err := wire.UnmarshalFrameBorrow(encoded, &decoded, state); err != nil {
				panic(err) // decoding what AppendFrame just produced
			}
		}
		ns, n = perOp(budget, decode)
		out.set("wire.decode"+size.suffix+"_ns_per_frame", ns, "ns", int64(n))

		if size.suffix == "" {
			out.set("wire.encode_allocs_per_frame", testing.AllocsPerRun(1000, encode), "count", 1000)
			out.set("wire.decode_allocs_per_frame", testing.AllocsPerRun(1000, decode), "count", 1000)
		}
	}
}

package corfifo

import "vsgm/internal/types"

// Stats aggregates traffic counters by message kind. Sent counts each
// (message, destination) pair; Delivered and Lost likewise. Bytes uses the
// deterministic size model of types.WireMsg.Size.
type Stats struct {
	Sent      KindCounts
	Delivered KindCounts
	Lost      KindCounts

	SentBytes int64
}

// KindCounts holds one counter per wire-message kind.
type KindCounts struct {
	View    int64
	App     int64
	Fwd     int64
	Sync    int64
	Propose int64
	Memb    int64
	Ack     int64
	Beat    int64
	Bundle  int64
}

// Total returns the sum across all kinds.
func (k KindCounts) Total() int64 {
	return k.View + k.App + k.Fwd + k.Sync + k.Propose + k.Memb + k.Ack + k.Beat + k.Bundle
}

// Control returns the non-application traffic (view + sync messages): the
// protocol overhead measured by experiments E2 and E9.
func (k KindCounts) Control() int64 { return k.View + k.Sync + k.Propose + k.Bundle }

func (k *KindCounts) add(kind types.MsgKind) {
	switch kind {
	case types.KindView:
		k.View++
	case types.KindApp:
		k.App++
	case types.KindFwd:
		k.Fwd++
	case types.KindSync:
		k.Sync++
	case types.KindPropose:
		k.Propose++
	case types.KindMembProposal:
		k.Memb++
	case types.KindAck:
		k.Ack++
	case types.KindHeartbeat:
		k.Beat++
	case types.KindSyncBundle:
		k.Bundle++
	}
}

func (s *Stats) record(m types.WireMsg) {
	s.Sent.add(m.Kind)
	s.SentBytes += int64(m.Size())
}

func (s *Stats) recordDelivered(m types.WireMsg) { s.Delivered.add(m.Kind) }

func (s *Stats) recordLost(m types.WireMsg) { s.Lost.add(m.Kind) }

// Sub returns the component-wise difference s - t, used to measure traffic
// within a benchmark phase.
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Sent:      s.Sent.sub(t.Sent),
		Delivered: s.Delivered.sub(t.Delivered),
		Lost:      s.Lost.sub(t.Lost),
		SentBytes: s.SentBytes - t.SentBytes,
	}
}

func (k KindCounts) sub(t KindCounts) KindCounts {
	return KindCounts{
		View:    k.View - t.View,
		App:     k.App - t.App,
		Fwd:     k.Fwd - t.Fwd,
		Sync:    k.Sync - t.Sync,
		Propose: k.Propose - t.Propose,
		Memb:    k.Memb - t.Memb,
		Ack:     k.Ack - t.Ack,
		Beat:    k.Beat - t.Beat,
		Bundle:  k.Bundle - t.Bundle,
	}
}

// Package live is the concurrent deployment runtime: GCS end-points and
// membership servers running as goroutines and communicating over real TCP
// connections with compact binary frames (internal/wire). It is the
// production-flavored counterpart of the deterministic simulator in
// internal/sim — the same automata (internal/core, internal/membership)
// drive both; only the scheduling and transport differ.
//
// Topology: every process (client end-point or membership server) is a
// listener with a static address directory. A sender lazily dials one
// outbound connection per destination; per-destination FIFO order — the
// CO_RFIFO contract — follows from TCP's in-order byte stream plus the
// per-destination outbox goroutine. Membership notifications travel over
// the same fabric as dedicated frames.
//
// Data path: a multicast is marshaled exactly once and the pooled encoding
// is shared (reference-counted) across every destination's queue;
// each link writer drains its queue in batches and hands a batch to the
// socket as one vectored write per run, a run closing once it holds
// maxBatchBytes. See DESIGN.md
// "Transport performance".
package live

import "vsgm/internal/wire"

// frame is the unit of the wire protocol; see wire.Frame. The first frame
// on every connection is the handshake, which names the dialer in From; no
// later frame on the connection carries a sender.
type frame = wire.Frame

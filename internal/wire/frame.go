package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"vsgm/internal/membership"
	"vsgm/internal/types"
)

// Frame is the live transport's unit: a wire message, a membership
// notification, an attach-protocol frame, or a flow-control credit grant. A
// frame with none of them is the connection handshake, and From — the
// dialer's identifier — is its payload: it goes on the wire in the handshake
// alone, because every later frame on the connection comes from the peer the
// handshake named. The encoder ignores From on every other frame, and the
// decoder leaves it empty there.
type Frame struct {
	From   types.ProcID
	Msg    *types.WireMsg
	Notify *membership.Notification
	Attach *membership.Attach
	Credit *Credit
}

// Credit is one end-to-end flow-control grant: the sender of the frame
// permits its peer to have transmitted up to Grant application data frames
// toward it, cumulatively since the pair first spoke. Grants are monotone
// (receivers take the max), so duplicated, reordered, or re-sent credit
// frames are harmless — exactly the robustness a frame that rides a
// reconnecting transport needs.
type Credit struct {
	Grant uint64
}

const (
	frameHandshake uint8 = 0
	frameMsg       uint8 = 1
	frameNotify    uint8 = 2
	frameAttach    uint8 = 3
	frameCredit    uint8 = 4

	notifyStartChange uint8 = 1
	notifyView        uint8 = 2

	// maxFrameSize bounds a frame on the wire (16 MiB), protecting readers
	// from hostile or corrupt length prefixes.
	maxFrameSize = 16 << 20
)

// MaxFrameSize is the transport's frame size bound, exported for readers
// that parse the length-prefixed stream themselves (the live transport's
// frame assembler).
const MaxFrameSize = maxFrameSize

// ErrFrameTooLarge reports a frame exceeding the transport bound.
var ErrFrameTooLarge = errors.New("wire: frame exceeds size bound")

// MarshalFrame encodes a frame into a fresh buffer.
func MarshalFrame(f Frame) ([]byte, error) {
	return AppendFrame(nil, f)
}

// AppendFrame encodes a frame onto dst and returns the extended slice. It is
// the allocation-frugal entry point: callers that reuse dst (or obtain one
// through EncodeFrame's pool) marshal without per-call buffer allocations.
func AppendFrame(dst []byte, f Frame) ([]byte, error) {
	w := buffer{b: dst}
	switch {
	case f.Msg != nil:
		w.u8(frameMsg)
		if err := appendMsg(&w, *f.Msg); err != nil {
			return nil, err
		}
	case f.Notify != nil:
		w.u8(frameNotify)
		switch f.Notify.Kind {
		case membership.NotifyStartChange:
			w.u8(notifyStartChange)
			w.u64(uint64(f.Notify.StartChange.ID))
			if err := w.procSet(f.Notify.StartChange.Set); err != nil {
				return nil, err
			}
			w.u64(f.Notify.Trace)
		case membership.NotifyView:
			w.u8(notifyView)
			if err := w.view(f.Notify.View); err != nil {
				return nil, err
			}
			w.u64(f.Notify.Trace)
		default:
			return nil, fmt.Errorf("wire: unknown notification kind %d", int(f.Notify.Kind))
		}
	case f.Attach != nil:
		w.u8(frameAttach)
		if k := f.Attach.Kind; k < membership.AttachRequest || k > membership.AttachSuspect {
			return nil, fmt.Errorf("wire: unknown attach kind %d", int(k))
		}
		w.u8(uint8(f.Attach.Kind))
		if err := w.id(f.Attach.Client); err != nil {
			return nil, err
		}
		w.u64(uint64(f.Attach.Epoch))
		w.u64(uint64(f.Attach.CID))
		w.u64(uint64(f.Attach.Vid))
	case f.Credit != nil:
		w.u8(frameCredit)
		w.u64(f.Credit.Grant)
	default:
		w.u8(frameHandshake)
		if err := w.id(f.From); err != nil {
			return nil, err
		}
	}
	return w.b, nil
}

// UnmarshalFrame decodes a frame into fully owned storage.
func UnmarshalFrame(b []byte) (Frame, error) {
	var f Frame
	if err := unmarshalFrameInto(b, &f, nil, false); err != nil {
		return Frame{}, err
	}
	return f, nil
}

// UnmarshalFrameBorrow decodes a frame body zero-copy: byte-slice fields of
// f alias b, and with st non-nil the pointer fields are st's reusable
// scratch. The caller owns b's lifetime and must treat f as invalid after
// the next decode through the same state. This is the receive entry point of
// the live transport, which assembles frames from the stream itself (one
// socket read is many frames) and decodes each in place.
func UnmarshalFrameBorrow(b []byte, f *Frame, st *DecodeState) error {
	return unmarshalFrameInto(b, f, st, true)
}

func errUnknownFrameTag(tag uint8) error {
	return fmt.Errorf("wire: unknown frame tag %d", tag)
}

// readNotifyInto decodes one notification frame body into ntf (fully
// overwritten).
func readNotifyInto(r *reader, ntf *membership.Notification) error {
	kind, err := r.u8()
	if err != nil {
		return err
	}
	switch kind {
	case notifyStartChange:
		cid, err := r.u64()
		if err != nil {
			return err
		}
		set, err := r.procSet()
		if err != nil {
			return err
		}
		trace, err := r.u64()
		if err != nil {
			return err
		}
		*ntf = membership.Notification{
			Kind:        membership.NotifyStartChange,
			StartChange: types.StartChange{ID: types.StartChangeID(cid), Set: set, Trace: trace},
			Trace:       trace,
		}
		return nil
	case notifyView:
		v, err := r.view()
		if err != nil {
			return err
		}
		trace, err := r.u64()
		if err != nil {
			return err
		}
		*ntf = membership.Notification{Kind: membership.NotifyView, View: v, Trace: trace}
		return nil
	default:
		return fmt.Errorf("wire: unknown notification tag %d", kind)
	}
}

// readAttachInto decodes one attach frame body into a (fully overwritten).
func readAttachInto(r *reader, a *membership.Attach) error {
	kind, err := r.u8()
	if err != nil {
		return err
	}
	if k := membership.AttachKind(kind); k < membership.AttachRequest || k > membership.AttachSuspect {
		return fmt.Errorf("wire: unknown attach tag %d", kind)
	}
	client, err := r.id()
	if err != nil {
		return err
	}
	epoch, err := r.u64()
	if err != nil {
		return err
	}
	cid, err := r.u64()
	if err != nil {
		return err
	}
	vid, err := r.u64()
	if err != nil {
		return err
	}
	*a = membership.Attach{
		Kind:   membership.AttachKind(kind),
		Client: client,
		Epoch:  int64(epoch),
		CID:    types.StartChangeID(cid),
		Vid:    types.ViewID(vid),
	}
	return nil
}

// FrameBuf is a pooled, reference-counted encoded frame. EncodeFrame returns
// one holding a single reference; a fan-out sender calls Retain once per
// additional consumer, and every consumer calls Release exactly once when it
// is done (after the frame was written, dropped, or evicted). The final
// Release returns the buffer to the pool, after which Bytes and Wire must no
// longer be read. This is what lets a multicast marshal once and share the
// encoded bytes across every destination queue without copies.
//
// The buffer holds the frame as it goes on the stream — the 4-byte length
// prefix, then the body — so a writer hands the frame to the socket as is
// instead of framing it per destination.
type FrameBuf struct {
	b     []byte // length prefix + body
	class FrameClass
	refs  atomic.Int32
}

// prefixLen is the size of the stream's length prefix.
const prefixLen = 4

// FrameClass partitions encoded frames for the transport's queueing policy.
// Only application data is credit-gated and sheddable; every control-plane
// frame (views, sync, proposals, acks, notifications, attach, credit) is
// reliable — a bounded queue must never drop one. Heartbeats are control
// too, but a newer heartbeat supersedes a queued older one, so writers may
// coalesce them instead of letting them accumulate toward a dead peer.
type FrameClass uint8

const (
	// ClassControl frames are reliable: never shed, never credit-gated.
	ClassControl FrameClass = iota
	// ClassData frames (application multicasts) consume credit and are the
	// only frames a full queue may evict.
	ClassData
	// ClassHeartbeat frames are reliable but superseding: at most the
	// newest needs to be queued per link.
	ClassHeartbeat
)

// classify buckets a frame by its queueing policy.
func classify(f Frame) FrameClass {
	if f.Msg == nil {
		return ClassControl
	}
	switch f.Msg.Kind {
	case types.KindApp:
		return ClassData
	case types.KindHeartbeat:
		return ClassHeartbeat
	default:
		return ClassControl
	}
}

// maxPooledFrame caps the capacity retained by the pool; occasional giant
// frames are released to the GC instead of pinning their backing arrays.
const maxPooledFrame = 64 << 10

var framePool = sync.Pool{New: func() any { return new(FrameBuf) }}

// EncodeFrame marshals f into a pooled buffer holding one reference. A
// frame exceeding the transport bound is rejected here, before it can enter
// any outbound queue, so writers never face an unsendable frame.
func EncodeFrame(f Frame) (*FrameBuf, error) {
	fb := framePool.Get().(*FrameBuf)
	b, err := AppendFrame(append(fb.b[:0], 0, 0, 0, 0), f)
	if err == nil && len(b)-prefixLen > maxFrameSize {
		err = ErrFrameTooLarge
	}
	if err != nil {
		framePool.Put(fb)
		return nil, err
	}
	binary.BigEndian.PutUint32(b, uint32(len(b)-prefixLen))
	fb.b = b
	fb.class = classify(f)
	fb.refs.Store(1)
	return fb, nil
}

// Bytes returns the encoded frame body. Valid until the final Release.
func (fb *FrameBuf) Bytes() []byte { return fb.b[prefixLen:] }

// Wire returns the frame as it goes on the stream: length prefix, then body.
// Valid until the final Release.
func (fb *FrameBuf) Wire() []byte { return fb.b }

// Class reports the frame's queueing class. Valid until the final Release.
func (fb *FrameBuf) Class() FrameClass { return fb.class }

// Retain adds n references.
func (fb *FrameBuf) Retain(n int32) { fb.refs.Add(n) }

// Release drops one reference, recycling the buffer on the last one.
func (fb *FrameBuf) Release() {
	switch n := fb.refs.Add(-1); {
	case n > 0:
	case n == 0:
		if cap(fb.b) > maxPooledFrame {
			fb.b = nil
		}
		framePool.Put(fb)
	default:
		panic("wire: FrameBuf over-released")
	}
}

// WriteDeadliner is the subset of net.Conn needed to arm write deadlines.
type WriteDeadliner interface {
	SetWriteDeadline(t time.Time) error
}

// BuffersWriter is a stream that takes several buffers in one call — on a
// socket, one writev(2). Like net.Buffers.WriteTo it consumes what it wrote
// from *bufs. The live transport's socket wrapper is the one implementation;
// the encoder hands any other writer the buffers one Write at a time.
type BuffersWriter interface {
	WriteBuffers(bufs *net.Buffers) (int64, error)
}

// Encoder writes length-prefixed frames to a stream. It copies nothing: each
// run of frames goes to the stream straight from the caller's buffers, as one
// vectored write when the stream is a BuffersWriter.
type Encoder struct {
	w  io.Writer
	bw BuffersWriter // w, when it takes a run in one call

	// iov is the run being written and bufs its header as handed to the
	// stream, which consumes it. Both live here so a write allocates nothing.
	iov  [][]byte
	bufs net.Buffers

	dl        WriteDeadliner
	dlTimeout time.Duration
}

// NewEncoder wraps w.
func NewEncoder(w io.Writer) *Encoder {
	bw, _ := w.(BuffersWriter)
	return &Encoder{w: w, bw: bw}
}

// ArmWriteDeadline makes every subsequent flush arm a write deadline of
// timeout on c before writing, so a peer that stops draining its socket can
// stall a writer for at most timeout instead of forever. A non-positive
// timeout disarms.
func (e *Encoder) ArmWriteDeadline(c WriteDeadliner, timeout time.Duration) {
	e.dl, e.dlTimeout = c, timeout
}

// Encode writes one frame and flushes. The marshal buffer comes from the
// frame pool, so steady-state encoding allocates nothing.
func (e *Encoder) Encode(f Frame) error {
	fb, err := EncodeFrame(f)
	if err != nil {
		return err
	}
	defer fb.Release()
	_, _, err = e.WriteBatch([][]byte{fb.Wire()}, 0)
	return err
}

// WriteBatch writes pre-encoded frames in stream form (FrameBuf.Wire), one
// flush per run: a run takes frames until it holds maxBytes (<=0: no cap) or
// the batch ends, and goes to the stream in one write — whatever the frame
// sizes — behind a write deadline armed for it alone. A frame over the
// transport bound fails the batch before anything is written. It returns how
// many leading frames went out in complete runs — on error a caller retries
// frames[sent:] on a fresh connection — and how many runs did. Framing is
// untouched: each frame keeps its own length prefix, only the syscall
// boundaries move.
func (e *Encoder) WriteBatch(frames [][]byte, maxBytes int) (sent, flushes int, err error) {
	for _, w := range frames {
		if len(w)-prefixLen > maxFrameSize {
			return 0, 0, ErrFrameTooLarge
		}
	}
	for sent < len(frames) {
		end, n := sent, 0
		for end < len(frames) && (maxBytes <= 0 || n < maxBytes) {
			n += len(frames[end])
			end++
		}
		if err := e.writeRun(frames[sent:end]); err != nil {
			return sent, flushes, err
		}
		sent = end
		flushes++
	}
	return sent, flushes, nil
}

// writeRun arms the write deadline and puts one run on the stream.
func (e *Encoder) writeRun(run [][]byte) error {
	if e.dl != nil && e.dlTimeout > 0 {
		if err := e.dl.SetWriteDeadline(time.Now().Add(e.dlTimeout)); err != nil {
			return err
		}
	}
	// Rebuilt every time: a write consumes the header and nils out what it
	// wrote, so the backing array pins no frame once the run is out.
	e.iov = append(e.iov[:0], run...)
	e.bufs = e.iov
	var err error
	if e.bw != nil {
		_, err = e.bw.WriteBuffers(&e.bufs)
	} else {
		_, err = e.bufs.WriteTo(e.w)
	}
	return err
}

package live

// The fabric's front door: what a connection can cost before it has named
// itself (readHandshake), and what a listener that cannot accept costs while
// it cannot (acceptLoop).

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"vsgm/internal/types"
	"vsgm/internal/wire"
)

// TestHandshakeBoundsHello: the hello is the one frame read for a peer nobody
// has identified, so its length claim is bounded by what connect can send, not
// by what the transport can carry. A MaxFrameSize claim is refused before
// anything is allocated for it; the largest hello connect can produce — a
// 65 535-byte identifier — still gets through.
func TestHandshakeBoundsHello(t *testing.T) {
	t.Run("hostile-claim", func(t *testing.T) {
		victim, attacker := net.Pipe()
		defer victim.Close()
		defer attacker.Close()
		const claim = wire.MaxFrameSize
		go attacker.Write(binary.BigEndian.AppendUint32(nil, claim))

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readHandshake(victim, time.Second)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, wire.ErrFrameTooLarge) {
			t.Errorf("hello claiming %d bytes: got err %v, want ErrFrameTooLarge", claim, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 128<<10 {
			t.Errorf("hello claiming %d bytes cost %d bytes of allocation before a body byte arrived", claim, got)
		}
	})

	t.Run("largest-identifier", func(t *testing.T) {
		victim, peer := net.Pipe()
		defer victim.Close()
		defer peer.Close()
		id := types.ProcID(strings.Repeat("n", 65535))
		hello, err := wire.EncodeFrame(frame{From: id})
		if err != nil {
			t.Fatal(err)
		}
		defer hello.Release()
		go peer.Write(hello.Wire())
		from, err := readHandshake(victim, 5*time.Second)
		if err != nil || from != id {
			t.Fatalf("hello with a %d-byte identifier: got %d bytes, err %v", len(id), len(from), err)
		}
	})
}

// TestSilentConnectionIsClosed: with ReadIdleTimeout off — the default — a
// connection that never says hello must still be dropped, on the clock its
// dialer would have worked to, rather than hold a goroutine and a descriptor
// until the fabric closes.
func TestSilentConnectionIsClosed(t *testing.T) {
	f, err := newFabric("victim", "127.0.0.1:0", TransportConfig{DialTimeout: 200 * time.Millisecond},
		func(types.ProcID, frame) {}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	victim, silent := net.Pipe()
	defer silent.Close()
	f.wg.Add(1)
	go f.readLoop(victim)

	silent.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := silent.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("silent connection: read ended with %v, want EOF from the victim closing it", err)
	}
}

// exhaustedListener fails every Accept the way a process out of descriptors
// does, until it is closed.
type exhaustedListener struct {
	calls  atomic.Int64
	closed chan struct{}
}

func (l *exhaustedListener) Accept() (net.Conn, error) {
	l.calls.Add(1)
	select {
	case <-l.closed:
		return nil, net.ErrClosed
	default:
		return nil, errors.New("accept: too many open files")
	}
}

func (l *exhaustedListener) Close() error   { close(l.closed); return nil }
func (l *exhaustedListener) Addr() net.Addr { return &net.TCPAddr{} }

// TestAcceptLoopBacksOff: a persistent Accept error must cost a handful of
// retries, not a spinning core, and must not delay Close by the backoff it is
// sleeping out.
func TestAcceptLoopBacksOff(t *testing.T) {
	f, err := buildFabric("victim", "127.0.0.1:0", TransportConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f.ln.Close()
	ln := &exhaustedListener{closed: make(chan struct{})}
	f.ln = ln
	f.start()
	defer f.Close()

	time.Sleep(100 * time.Millisecond)
	if n := ln.calls.Load(); n < 2 || n > 10 {
		t.Errorf("Accept called %d times in 100 ms of a persistent error, want a handful (5 ms doubling)", n)
	}
	// Seven failures in, the loop is sleeping out 320 ms.
	waitUntil(t, "the backoff to grow", 5*time.Second, func() bool { return ln.calls.Load() >= 7 })
	start := time.Now()
	f.Close()
	if took := time.Since(start); took > 150*time.Millisecond {
		t.Errorf("Close took %v with the accept loop mid-backoff", took)
	}
}

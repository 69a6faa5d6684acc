package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"vsgm/internal/types"
)

// net.Pipe is unbuffered: a write blocks until the far side reads, which
// makes it a precise stand-in for a peer that stopped draining its socket.

func TestEncoderWriteDeadlineUnsticksWriter(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()

	enc := NewEncoder(a)
	enc.ArmWriteDeadline(a, 30*time.Millisecond)
	start := time.Now()
	err := enc.Encode(Frame{From: "stuck"})
	if err == nil {
		t.Fatal("Encode to a non-draining peer succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("Encode error = %v, want a net timeout", err)
	}
	if took := time.Since(start); took > 2*time.Second {
		t.Fatalf("deadline took %v to fire", took)
	}
}

func TestDecoderReadDeadlineUnsticksReader(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()

	dec := NewDecoder(a)
	dec.ArmReadDeadline(a, 30*time.Millisecond)
	var fr Frame
	err := dec.Decode(&fr)
	if err == nil {
		t.Fatal("Decode from a silent peer succeeded")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("Decode error = %v, want a net timeout", err)
	}
}

func TestEncoderNoDeadlineByDefault(t *testing.T) {
	// Without arming, Encode to a buffer must still work unchanged.
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	m := types.WireMsg{Kind: types.KindHeartbeat}
	if err := enc.Encode(Frame{From: "a", Msg: &m}); err != nil {
		t.Fatal(err)
	}
	var got Frame
	if err := NewDecoder(&buf).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Msg == nil || got.Msg.Kind != types.KindHeartbeat {
		t.Fatalf("round trip mangled: %+v", got)
	}
}

func TestDecodeTruncatedBodyReturnsUnexpectedEOF(t *testing.T) {
	// Header claims 15 MiB; only 16 bytes follow. The decoder must report a
	// truncation error without reserving anywhere near the claimed size.
	claimed := 15 << 20
	input := []byte{byte(claimed >> 24), byte(claimed >> 16), byte(claimed >> 8), byte(claimed)}
	input = append(input, make([]byte, 16)...)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var fr Frame
	err := NewDecoder(bytes.NewReader(input)).Decode(&fr)
	runtime.ReadMemStats(&after)

	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("Decode = %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("truncated 15 MiB claim allocated %d bytes", grew)
	}
}

func TestDecodeOversizeFrameRejected(t *testing.T) {
	input := []byte{0xff, 0xff, 0xff, 0xff, 0x00}
	var fr Frame
	if err := NewDecoder(bytes.NewReader(input)).Decode(&fr); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("Decode = %v, want ErrFrameTooLarge", err)
	}
}

func TestDecodeCorruptCountsDoNotOverAllocate(t *testing.T) {
	// A view body whose member count claims 2^32-1 entries but carries none:
	// the decoder must fail on truncation with only a clamped allocation.
	body := []byte{frameMsg, byte(types.KindView)}
	body = append(body, 0, 0, 0, 0, 0, 0, 0, 9) // view id
	body = append(body, 0xff, 0xff, 0xff, 0xff) // member count
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := UnmarshalFrame(body)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("corrupt member count decoded successfully")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("corrupt count allocated %d bytes", grew)
	}
}

package wire

import (
	"bytes"
	"errors"
	"net"
	"os"
	"reflect"
	"testing"
	"time"

	"vsgm/internal/types"
)

func testAppFrame(t testing.TB, payload []byte) Frame {
	t.Helper()
	members := types.NewProcSet()
	start := map[types.ProcID]types.StartChangeID{}
	for i, p := range []types.ProcID{"s1", "s2", "c-alpha"} {
		members.Add(p)
		start[p] = types.StartChangeID(i + 1)
	}
	v := types.NewView(7, members, start)
	return Frame{
		From: "c-alpha",
		Msg: &types.WireMsg{
			Kind:      types.KindApp,
			App:       types.AppMsg{ID: 42, Payload: payload},
			HistView:  v,
			HistIndex: 5,
		},
	}
}

// frameStream returns n copies of f's on-the-wire encoding (length prefix +
// body) concatenated.
func frameStream(t testing.TB, f Frame, n int) []byte {
	t.Helper()
	body, err := MarshalFrame(f)
	if err != nil {
		t.Fatalf("MarshalFrame: %v", err)
	}
	var s bytes.Buffer
	for i := 0; i < n; i++ {
		s.Write([]byte{byte(len(body) >> 24), byte(len(body) >> 16), byte(len(body) >> 8), byte(len(body))})
		s.Write(body)
	}
	return s.Bytes()
}

// sliceWithin reports whether sub's backing memory lies inside outer's.
func sliceWithin(sub, outer []byte) bool {
	if len(sub) == 0 || len(outer) == 0 {
		return false
	}
	for i := range outer {
		if &outer[i] == &sub[0] {
			return true
		}
	}
	return false
}

// TestBorrowAliasesInput pins the zero-copy contract: the decoded application
// payload must be a window into the caller's buffer, not a copy.
func TestBorrowAliasesInput(t *testing.T) {
	payload := bytes.Repeat([]byte("zc"), 600)
	f := testAppFrame(t, payload)
	body, err := MarshalFrame(f)
	if err != nil {
		t.Fatal(err)
	}
	var got Frame
	if err := UnmarshalFrameBorrow(body, &got, NewDecodeState()); err != nil {
		t.Fatalf("UnmarshalFrameBorrow: %v", err)
	}
	if got.Msg == nil || !bytes.Equal(got.Msg.App.Payload, payload) {
		t.Fatal("decoded payload mismatch")
	}
	if !sliceWithin(got.Msg.App.Payload, body) {
		t.Fatal("payload does not alias the input: the receive path copied")
	}
	if got.From != f.From || got.Msg.App.ID != 42 || got.Msg.HistView.ID != 7 {
		t.Fatalf("frame fields mismatch: %+v", got)
	}
}

// TestBorrowScratchReuse pins the borrow contract: successive decodes through
// one DecodeState reuse the same scratch Msg, so receivers must copy what they
// keep — and in exchange pay no per-frame allocation for the pointer fields.
// A decode without a state owns its pointer fields.
func TestBorrowScratchReuse(t *testing.T) {
	body, err := MarshalFrame(testAppFrame(t, []byte("hello")))
	if err != nil {
		t.Fatal(err)
	}
	st := NewDecodeState()
	var a, b Frame
	if err := UnmarshalFrameBorrow(body, &a, st); err != nil {
		t.Fatalf("first decode: %v", err)
	}
	msg1 := a.Msg
	if err := UnmarshalFrameBorrow(body, &b, st); err != nil {
		t.Fatalf("second decode: %v", err)
	}
	if b.Msg != msg1 {
		t.Fatal("Msg scratch not reused across decodes through one state")
	}
	if !bytes.Equal(b.Msg.App.Payload, []byte("hello")) {
		t.Fatal("second decode corrupted")
	}
	own1, err := UnmarshalFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	own2, err := UnmarshalFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	if own1.Msg == own2.Msg || own1.Msg == msg1 {
		t.Fatal("owned decodes share pointer fields")
	}
}

// TestBorrowInternsViews: the repeated history view on every data frame must
// decode once and then be served from the intern table, sharing member maps
// across frames.
func TestBorrowInternsViews(t *testing.T) {
	body, err := MarshalFrame(testAppFrame(t, []byte("x")))
	if err != nil {
		t.Fatal(err)
	}
	st := NewDecodeState()
	var a, b Frame
	if err := UnmarshalFrameBorrow(body, &a, st); err != nil {
		t.Fatalf("first decode: %v", err)
	}
	v1 := a.Msg.HistView
	if err := UnmarshalFrameBorrow(body, &b, st); err != nil {
		t.Fatalf("second decode: %v", err)
	}
	if reflect.ValueOf(v1.StartID).Pointer() != reflect.ValueOf(b.Msg.HistView.StartID).Pointer() {
		t.Fatal("second frame's history view was re-decoded instead of interned")
	}
	if v1.StartID["s1"] != b.Msg.HistView.StartID["s1"] || b.Msg.HistView.ID != 7 {
		t.Fatal("interned view decoded incorrectly")
	}
}

// TestBorrowDecodeAllocs is the receive path's codec ceiling: steady-state
// decode of a 256 B application frame through a DecodeState allocates nothing
// (payload aliased, identifiers and views interned, scratch reused). The
// throwaway WireMsg the decoder used to allocate before looking at the state
// made this 1.
func TestBorrowDecodeAllocs(t *testing.T) {
	body, err := MarshalFrame(testAppFrame(t, bytes.Repeat([]byte("a"), 256)))
	if err != nil {
		t.Fatal(err)
	}
	st := NewDecodeState()
	var got Frame
	decode := func() {
		if err := UnmarshalFrameBorrow(body, &got, st); err != nil {
			t.Fatalf("UnmarshalFrameBorrow: %v", err)
		}
	}
	decode() // warm the intern tables
	if allocs := testing.AllocsPerRun(200, decode); allocs != 0 {
		t.Fatalf("borrowed decode allocates %.1f/op, want 0", allocs)
	}
}

// TestDecodeRearmsDeadlinePerLeg: a header that arrives late must not eat
// the body's deadline budget — each read leg gets its own arming. Before the
// fix, the deadline was armed once before the header, so a frame whose
// header consumed most of the timeout failed in the body even though both
// legs individually made timely progress.
func TestDecodeRearmsDeadlinePerLeg(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()

	f := testAppFrame(t, []byte("late"))
	stream := frameStream(t, f, 1)
	const timeout = 250 * time.Millisecond

	go func() {
		time.Sleep(150 * time.Millisecond) // header lands late in its leg
		srv.Write(stream[:4])
		time.Sleep(150 * time.Millisecond) // body lands in the re-armed leg
		srv.Write(stream[4:])
	}()

	d := NewDecoder(cli)
	d.ArmReadDeadline(cli, timeout)
	var got Frame
	if err := d.Decode(&got); err != nil {
		t.Fatalf("Decode with per-leg arming failed: %v (total frame time exceeded one timeout, but each leg was within it)", err)
	}
	if !bytes.Equal(got.Msg.App.Payload, []byte("late")) {
		t.Fatal("payload mismatch")
	}
}

// TestDecodeBodyStallStillTimesOut: per-leg re-arming must not make the body
// leg unbounded — a peer that sends a header and then goes silent is cut off
// after one more timeout.
func TestDecodeBodyStallStillTimesOut(t *testing.T) {
	cli, srv := net.Pipe()
	defer cli.Close()
	defer srv.Close()

	f := testAppFrame(t, []byte("stall"))
	stream := frameStream(t, f, 1)
	go srv.Write(stream[:6]) // header plus two body bytes, then silence

	d := NewDecoder(cli)
	d.ArmReadDeadline(cli, 100*time.Millisecond)
	var got Frame
	start := time.Now()
	err := d.Decode(&got)
	if err == nil {
		t.Fatal("Decode succeeded on a stalled body")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stalled body error = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stalled body took %v to time out", elapsed)
	}
}

package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"time"
)

// Decoder is the plain, copying reference reader of the length-prefixed
// stream: one frame per Decode, into fully owned storage. The live transport
// parses the stream with its own frame assembler; the tests and fuzzers read
// what the encoder wrote through this one and compare.
type Decoder struct {
	r   *bufio.Reader
	buf bytes.Buffer
	hdr [4]byte // length-prefix scratch; a local would escape through io.ReadFull

	dl        ReadDeadliner
	dlTimeout time.Duration
}

// ReadDeadliner is the subset of net.Conn needed to arm read deadlines.
type ReadDeadliner interface {
	SetReadDeadline(t time.Time) error
}

// NewDecoder wraps r.
func NewDecoder(r io.Reader) *Decoder {
	return &Decoder{r: bufio.NewReader(r)}
}

// ArmReadDeadline makes every subsequent Decode arm a read deadline of
// timeout on c before blocking, turning a silent peer into a timeout error
// after at most timeout of idleness. The deadline is re-armed per read leg
// (header, then body), so each leg must individually make progress to
// completion within timeout; a peer trickling a frame body cannot stretch
// one frame past two timeouts. A non-positive timeout disarms.
func (d *Decoder) ArmReadDeadline(c ReadDeadliner, timeout time.Duration) {
	d.dl, d.dlTimeout = c, timeout
}

// armLeg (re-)arms the read deadline ahead of one read leg.
func (d *Decoder) armLeg() error {
	if d.dl != nil && d.dlTimeout > 0 {
		return d.dl.SetReadDeadline(time.Now().Add(d.dlTimeout))
	}
	return nil
}

// initialBodyAlloc caps the up-front buffer reservation per frame; larger
// bodies grow as their bytes actually arrive, so a corrupt or hostile length
// prefix cannot force a large allocation on its own.
const initialBodyAlloc = 64 << 10

// Decode reads one frame into fully owned storage.
func (d *Decoder) Decode(f *Frame) error {
	if err := d.armLeg(); err != nil {
		return err
	}
	if _, err := io.ReadFull(d.r, d.hdr[:]); err != nil {
		return err
	}
	n := int(d.hdr[0])<<24 | int(d.hdr[1])<<16 | int(d.hdr[2])<<8 | int(d.hdr[3])
	if n > maxFrameSize {
		return ErrFrameTooLarge
	}
	if err := d.readBodyCopy(n); err != nil {
		return err
	}
	got, err := UnmarshalFrame(d.buf.Bytes())
	if err != nil {
		return err
	}
	*f = got
	return nil
}

// readBodyCopy reads an n-byte frame body into the decoder's own buffer,
// growing it only as bytes actually arrive.
func (d *Decoder) readBodyCopy(n int) error {
	if err := d.armLeg(); err != nil {
		return err
	}
	d.buf.Reset()
	d.buf.Grow(min(n, initialBodyAlloc))
	if _, err := io.CopyN(&d.buf, d.r, int64(n)); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

package wire

import (
	"encoding/binary"
	"errors"

	"vsgm/internal/types"
)

// errWALBodyLength reports a WAL record body shorter or longer than its fields.
var errWALBodyLength = errors.New("wire: WAL record body has the wrong length")

// WALRecord is one entry of a membership server's durable per-client
// identifier state: the last start-change identifier issued to the client,
// the last view identifier delivered to it, and the attach epoch its
// registration is held under. A server replays its records on restart so a
// bounced server rejoins the static server set without regressing any
// identifier it handed out before the crash (Local Monotonicity, Section 8
// extended to server failures).
//
// This file is the record's body codec — u16-length-prefixed identifier,
// then three u64s. Framing, checksums and everything else about the file the
// bodies are kept in belong to internal/wal.
type WALRecord struct {
	Client types.ProcID
	CID    types.StartChangeID
	Vid    types.ViewID
	Epoch  int64
}

// AppendWALBody encodes rec onto dst as one record body and returns the
// extended slice.
func AppendWALBody(dst []byte, rec WALRecord) ([]byte, error) {
	w := buffer{b: dst}
	if err := w.id(rec.Client); err != nil {
		return nil, err
	}
	w.u64(uint64(rec.CID))
	w.u64(uint64(rec.Vid))
	w.u64(uint64(rec.Epoch))
	return w.b, nil
}

// DecodeWALBody decodes b as exactly one record body: the identifier and
// then 24 bytes, no fewer and no more. A body that checksums but is not a
// WALRecord — a record of some other log, say — is refused, not half-read.
func DecodeWALBody(b []byte) (WALRecord, error) {
	r := &reader{b: b}
	client, err := r.id()
	if err != nil {
		return WALRecord{}, err
	}
	if len(r.b) != 3*8 {
		return WALRecord{}, errWALBodyLength
	}
	return WALRecord{
		Client: client,
		CID:    types.StartChangeID(binary.BigEndian.Uint64(r.b)),
		Vid:    types.ViewID(binary.BigEndian.Uint64(r.b[8:])),
		Epoch:  int64(binary.BigEndian.Uint64(r.b[16:])),
	}, nil
}

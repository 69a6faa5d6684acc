// Package wal is the tree's one durable record log: the checksummed record
// frame, the skip-and-resync scanner that reads it back from arbitrary bytes,
// the repair pass that converges a state directory from whatever a crash or a
// bad disk left in it, the temp/fsync/rename file replacement, and the rule
// for when an append is fsynced. Record bodies are opaque here: the membership
// servers' identifier store (internal/live) and the shard replicas' command
// store (internal/shard) are body codecs over a Log, and cmd/vsgm-fsck serves
// either kind of directory. The package imports nothing from the tree.
package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
)

// A record on disk is 0xA9 | u32 bodyLen | u32 crc32c(body) | body,
// big-endian; the length is a u32 because a shard replica's snapshot is one
// record. Which kind of body a record holds is the body decoder's business:
// both codecs refuse a body that is not exactly one of theirs. A body is never
// empty: the CRC32C of no bytes is zero, so an empty record's frame would be
// the magic byte and eight zeros, which is also what a record torn after its
// first header byte reads as in front of an open log's zero tail.
const (
	magic byte = 0xA9
	// HeaderSize is what a record takes on disk beyond its body.
	HeaderSize = 1 + 4 + 4
	// maxBody is the longest body the length field can carry.
	maxBody = 1<<32 - 1
)

// castagnoli is the CRC32C table (hardware-accelerated on amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendRecord frames body onto dst and returns the extended slice. The body
// must be non-empty and fit the u32 length field; Log checks both for its
// callers.
func AppendRecord(dst, body []byte) []byte {
	var hdr [HeaderSize]byte
	hdr[0] = magic
	binary.BigEndian.PutUint32(hdr[1:5], uint32(len(body)))
	binary.BigEndian.PutUint32(hdr[5:9], crc32.Checksum(body, castagnoli))
	return append(append(dst, hdr[:]...), body...)
}

// decodeRecord reads the record at the front of b, returning its body
// (aliasing b) and the bytes the whole record takes. Anything short of a
// complete, non-empty record whose checksum holds is not a record.
func decodeRecord(b []byte) (body []byte, size int, ok bool) {
	if len(b) < HeaderSize || b[0] != magic {
		return nil, 0, false
	}
	n := binary.BigEndian.Uint32(b[1:5])
	if n == 0 || uint64(n) > uint64(len(b)-HeaderSize) {
		return nil, 0, false
	}
	size = HeaderSize + int(n)
	body = b[HeaderSize:size:size]
	if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(b[5:9]) {
		return nil, 0, false
	}
	return body, size, true
}

// DamagedRange is one contiguous span of bytes a scan could not read as
// records; offsets are relative to the start of the scanned input.
type DamagedRange struct {
	Off int
	Len int
}

// End returns the offset one past the damaged span.
func (d DamagedRange) End() int { return d.Off + d.Len }

// Scan is what ScanRecords found: every record that decoded, where each
// sat, every byte range that decoded as nothing, and the zero bytes that end
// the input. Records, damaged ranges and the unwritten tail together cover
// the input exactly once.
type Scan struct {
	// Records holds the record bodies in stream order; they alias the input.
	Records [][]byte
	// Offsets holds the offset each record's frame starts at (parallel to
	// Records).
	Offsets []int
	// Damaged lists the skipped byte ranges in stream order.
	Damaged []DamagedRange
	// Unwritten is the length of the all-zero run that ends the input after
	// its last record and its last non-zero damaged byte. An open log, or
	// one whose process died, is its records followed by zeros to the end
	// of the mapped window appends are copied into (see Log); no record
	// starts with a zero byte, so the run holds none, and it is not damage.
	Unwritten int
}

// ScanRecords reads a concatenation of records with skip-and-resync: where
// no record decodes it advances to the next magic byte until a record does,
// recording the span it skipped as damage. A flipped bit therefore costs the
// record it sits in and a torn tail costs the partial record, never the
// records after them. Resynchronization trusts a record wherever its checksum
// holds — a false positive inside damage needs the magic byte, a length that
// fits and a 1-in-2^32 CRC collision. Trailing zeros are the unwritten tail,
// not damage, so a torn record's own bytes are damage only up to its last
// non-zero byte.
func ScanRecords(b []byte) Scan {
	var s Scan
	end := 0 // one past the last record; a record found beyond it ends a damaged span
	for off := 0; off < len(b); {
		body, size, ok := decodeRecord(b[off:])
		if !ok {
			// No record starts before the next magic byte.
			next := bytes.IndexByte(b[off+1:], magic)
			if next < 0 {
				break
			}
			off += 1 + next
			continue
		}
		if off > end {
			s.Damaged = append(s.Damaged, DamagedRange{Off: end, Len: off - end})
		}
		s.Records = append(s.Records, body)
		s.Offsets = append(s.Offsets, off)
		off += size
		end = off
	}
	written := len(bytes.TrimRight(b[end:], "\x00"))
	if written > 0 {
		s.Damaged = append(s.Damaged, DamagedRange{Off: end, Len: written})
	}
	s.Unwritten = len(b) - end - written
	return s
}

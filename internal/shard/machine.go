package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"vsgm/internal/rsm"
	"vsgm/internal/types"
	"vsgm/internal/wal"
)

// KVOp is the command vocabulary of a shard group's state machine. Besides
// the client-facing set/del it carries the resharding data plane: chunked
// range installs, the handoff marker, and the post-cutover prune.
type KVOp struct {
	Op    string // "set", "del", "install", "marker", "prune"; "get" on the request path only
	Key   string
	Value string
	// Data is one chunk of a migrating key range ("install").
	Data map[string]string
	// Reshard is the proposal id a marker seals ("marker").
	Reshard string
	// SlotLo/SlotHi/NSlots describe the pruned range ("prune"): keys whose
	// slot under an NSlots-sized slot space falls inside [SlotLo, SlotHi]
	// are deleted. NSlots rides in the command so the machine needs no
	// access to the shard map.
	SlotLo int
	SlotHi int
	NSlots int
}

// A command on the wire is one op byte followed by the op's fields. A string
// is its length as a uvarint and then its bytes; an integer is a uvarint.
//
//	set      key value
//	del      key
//	install  count, then count × (key value), keys ascending
//	marker   reshard-id
//	prune    slot-lo slot-hi n-slots
const (
	opSet byte = 1 + iota
	opDel
	opInstall
	opMarker
	opPrune
)

var opNames = [...]string{opSet: "set", opDel: "del", opInstall: "install", opMarker: "marker", opPrune: "prune"}

// errMalformed is what every decoder in this file returns for bytes it did
// not write.
var errMalformed = errors.New("malformed encoding")

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendPairs appends m as count × (key value) in ascending key order, so the
// same map always encodes to the same bytes.
func appendPairs(b []byte, m map[string]string) []byte {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendString(appendString(b, k), m[k])
	}
	return b
}

// pairsSize is an upper bound on what appendPairs adds for m.
func pairsSize(m map[string]string) int {
	n := binary.MaxVarintLen64
	for k, v := range m {
		n += 2*binary.MaxVarintLen32 + len(k) + len(v)
	}
	return n
}

// reader consumes an encoding front to back. The first field that does not
// fit marks it bad, and everything read after that is zero.
type reader struct {
	b   []byte
	bad bool
}

func (r *reader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.bad, r.b = true, nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

// count reads an integer that has to fit an int.
func (r *reader) count() int {
	v := r.uvarint()
	if v > math.MaxInt {
		r.bad, r.b = true, nil
		return 0
	}
	return int(v)
}

func (r *reader) str() string {
	n := r.uvarint()
	if n > uint64(len(r.b)) {
		r.bad, r.b = true, nil
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// pairs reads what appendPairs wrote. A pair is at least two bytes, so a
// count the remaining bytes cannot hold is refused at once, and the map is
// left to grow with what is really there: nothing is sized by a number the
// input merely claims.
func (r *reader) pairs() map[string]string {
	n := r.uvarint()
	if n > uint64(len(r.b)/2) {
		r.bad, r.b = true, nil
		return nil
	}
	m := make(map[string]string)
	for i := uint64(0); i < n && !r.bad; i++ {
		k := r.str()
		m[k] = r.str()
	}
	return m
}

// done reports whether the encoding was read without damage and to its end.
func (r *reader) done() bool { return !r.bad && len(r.b) == 0 }

// EncodeSet returns the command setting key to value.
func EncodeSet(key, value string) []byte {
	b := make([]byte, 0, 1+2*binary.MaxVarintLen32+len(key)+len(value))
	return appendString(appendString(append(b, opSet), key), value)
}

// EncodeDel returns the command deleting key.
func EncodeDel(key string) []byte {
	return appendString([]byte{opDel}, key)
}

// EncodeInstall returns the command installing one chunk of a migrated
// range.
func EncodeInstall(data map[string]string) []byte {
	b := make([]byte, 0, 1+pairsSize(data))
	return appendPairs(append(b, opInstall), data)
}

// EncodeMarker returns the handoff marker for a reshard proposal.
func EncodeMarker(reshardID string) []byte {
	return appendString([]byte{opMarker}, reshardID)
}

// EncodePrune returns the command deleting every key in the given slot
// range (post-cutover cleanup on the source group).
func EncodePrune(slotLo, slotHi, nslots int) []byte {
	b := []byte{opPrune}
	for _, v := range [...]int{slotLo, slotHi, nslots} {
		b = binary.AppendUvarint(b, uint64(v))
	}
	return b
}

// decodeOp reads one command. Anything but exactly one well-formed command
// is an error, and the caller changes nothing.
func decodeOp(cmd []byte) (KVOp, error) {
	if len(cmd) == 0 || int(cmd[0]) >= len(opNames) || opNames[cmd[0]] == "" {
		return KVOp{}, errMalformed
	}
	op := KVOp{Op: opNames[cmd[0]]}
	r := reader{b: cmd[1:]}
	switch cmd[0] {
	case opSet:
		op.Key = r.str()
		op.Value = r.str()
	case opDel:
		op.Key = r.str()
	case opInstall:
		op.Data = r.pairs()
	case opMarker:
		op.Reshard = r.str()
	case opPrune:
		op.SlotLo, op.SlotHi, op.NSlots = r.count(), r.count(), r.count()
	}
	if !r.done() {
		return KVOp{}, errMalformed
	}
	return op, nil
}

// compactMinLog is the least log a replica writes between two snapshots. A
// replica compacts once the commands appended since its last snapshot take
// more room than that snapshot did, or than this, whichever is larger. A
// snapshot is therefore at most twice the log that paid for it (the state
// grows no faster than the log that writes it), so the snapshot bytes written
// per command byte stay below a constant however large the state becomes, and
// a restart reads one snapshot plus a log no longer than max(compactMinLog,
// that snapshot): at most twice the snapshotted state and compactMinLog.
const compactMinLog = 1 << 20

// Machine is the state machine one shard replica runs: a key-value map plus
// the resharding bookkeeping (last handoff marker seen), optionally written
// through to a durable Store on every apply.
type Machine struct {
	kv         map[string]string
	lastMarker string
	applied    int64
	store      Store
	storeErr   error

	// Compaction accounting, see compactMinLog: the size of the store's
	// snapshot and of the log appended (or, after a restart, replayed) on top
	// of it.
	snapBytes int64
	logBytes  int64
}

// NewMachine builds an empty machine. store may be nil (no durability).
func NewMachine(store Store) *Machine {
	return &Machine{kv: make(map[string]string), store: store}
}

// LoadMachine builds a machine from the durable store's contents (snapshot
// replay plus WAL replay) — the cold-restart path. Commands the snapshot
// already covers may be in the log again (a crash between the snapshot's
// rename and the log's truncation leaves them there); replaying them over the
// snapshot ends in the snapshot's state, because the last write to each key is
// the same in both.
func LoadMachine(store Store) (*Machine, error) {
	m := NewMachine(store)
	snap, cmds, err := store.Load()
	if err != nil {
		return nil, err
	}
	if snap != nil {
		if err := m.restore(snap); err != nil {
			return nil, err
		}
		m.snapBytes = int64(len(snap))
	}
	for _, cmd := range cmds {
		m.apply(cmd)
		m.logBytes += logSize(cmd)
	}
	return m, nil
}

// logSize is the room one command takes in the log.
func logSize(cmd []byte) int64 { return int64(wal.HeaderSize + len(cmd)) }

// Get reads a key from the local state.
func (m *Machine) Get(key string) (string, bool) {
	v, ok := m.kv[key]
	return v, ok
}

// Len returns the number of keys held.
func (m *Machine) Len() int { return len(m.kv) }

// LastMarker returns the id of the last handoff marker applied.
func (m *Machine) LastMarker() string { return m.lastMarker }

// Applied returns the number of commands applied.
func (m *Machine) Applied() int64 { return m.applied }

// StoreErr surfaces the first durable-store write error (nil when healthy).
func (m *Machine) StoreErr() error { return m.storeErr }

// RangeSnapshot extracts the keys whose slot under an nslots-sized slot
// space falls in [lo, hi] — the migrating range of a slot move.
func (m *Machine) RangeSnapshot(lo, hi, nslots int) map[string]string {
	out := make(map[string]string)
	for k, v := range m.kv {
		if s := SlotForKey(k, nslots); s >= lo && s <= hi {
			out[k] = v
		}
	}
	return out
}

// Fingerprint renders the whole state deterministically, for comparing
// replicas in tests and the verify pass.
func (m *Machine) Fingerprint() string {
	keys := make([]string, 0, len(m.kv))
	for k := range m.kv {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf("%s=%s;", k, m.kv[k])
	}
	if m.lastMarker != "" {
		out += "marker=" + m.lastMarker + ";"
	}
	return out
}

// apply executes one command against the in-memory state (no durability).
func (m *Machine) apply(cmd []byte) {
	op, err := decodeOp(cmd)
	if err != nil {
		return // ignoring garbage is deterministic; diverging on it is not
	}
	switch op.Op {
	case "set":
		m.kv[op.Key] = op.Value
	case "del":
		delete(m.kv, op.Key)
	case "install":
		for k, v := range op.Data {
			m.kv[k] = v
		}
	case "marker":
		m.lastMarker = op.Reshard
	case "prune":
		if op.NSlots <= 0 {
			return
		}
		for k := range m.kv {
			if s := SlotForKey(k, op.NSlots); s >= op.SlotLo && s <= op.SlotHi {
				delete(m.kv, k)
			}
		}
	}
}

// Apply implements rsm.StateMachine with write-through durability: the
// command is logged before it mutates state, and the log compacts into a
// fresh snapshot by the rule at compactMinLog.
func (m *Machine) Apply(_ types.ProcID, cmd []byte) {
	if m.store != nil {
		m.keep(m.store.AppendCommand(cmd))
		m.logBytes += logSize(cmd)
	}
	m.apply(cmd)
	m.applied++
	if m.store != nil && m.logBytes > max(compactMinLog, m.snapBytes) {
		m.writeSnapshot(m.Snapshot())
	}
}

// writeSnapshot replaces the store's snapshot, which empties its log.
func (m *Machine) writeSnapshot(snap []byte) {
	m.keep(m.store.WriteSnapshot(snap))
	m.snapBytes, m.logBytes = int64(len(snap)), 0
}

// keep remembers the first store error.
func (m *Machine) keep(err error) {
	if err != nil && m.storeErr == nil {
		m.storeErr = err
	}
}

// snapFormat leads every snapshot: marker-id, then the pairs of the map.
const snapFormat byte = 1

// Snapshot implements rsm.StateMachine.
func (m *Machine) Snapshot() []byte {
	b := make([]byte, 0, 1+binary.MaxVarintLen32+len(m.lastMarker)+pairsSize(m.kv))
	return appendPairs(appendString(append(b, snapFormat), m.lastMarker), m.kv)
}

func (m *Machine) restore(snapshot []byte) error {
	if len(snapshot) == 0 || snapshot[0] != snapFormat {
		return fmt.Errorf("shard: machine restore: %w", errMalformed)
	}
	r := reader{b: snapshot[1:]}
	marker := r.str()
	kv := r.pairs()
	if !r.done() {
		return fmt.Errorf("shard: machine restore: %w", errMalformed)
	}
	m.kv, m.lastMarker = kv, marker
	return nil
}

// Restore implements rsm.StateMachine; the adopted state is also compacted
// into the durable snapshot so a crash right after a state transfer
// recovers to the transferred state. The one state a store holds without
// being told is the empty one, which is what every founding replica adopts
// when its group boots: that costs no snapshot.
func (m *Machine) Restore(snapshot []byte) error {
	if err := m.restore(snapshot); err != nil {
		return err
	}
	if m.store != nil && !m.emptyOverEmptyStore() {
		m.writeSnapshot(append([]byte(nil), snapshot...))
	}
	return nil
}

// emptyOverEmptyStore reports whether the machine holds nothing, has written
// nothing, and its store, asked, holds nothing either.
func (m *Machine) emptyOverEmptyStore() bool {
	if len(m.kv) != 0 || m.lastMarker != "" || m.snapBytes != 0 || m.logBytes != 0 {
		return false
	}
	snap, cmds, err := m.store.Load()
	return err == nil && snap == nil && len(cmds) == 0
}

var _ rsm.StateMachine = (*Machine)(nil)

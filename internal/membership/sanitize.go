package membership

import "vsgm/internal/types"

// State sanitization: the semantic half of self-stabilizing recovery.
// Checksummed records and the repair pass at open (internal/wal) guarantee
// a restarted server replays only records that were once genuinely written —
// but say nothing about whether the *values* in a record are possible. A
// stale generation resurrected by an operator, a record some other program
// wrote in the same frame, or a client restored from arbitrary state can
// all present identifier triples no correct execution produces: attach
// epochs so large their cid floor (epoch << cidEpochShift) wraps int64,
// start-change identifiers claiming an epoch range above any plausible
// failover count, view identifiers with no start-change behind them. Left
// alone, such values replay into proposals, burn the identifier space to
// the brink of wraparound, and defeat the very monotonicity they encode.
//
// SanitizeRecord clamps each impossible field to the nearest value some
// correct execution could have produced, preferring upward (monotone-safe)
// repairs where one exists and discarding otherwise — discarding is safe
// because the attach-claim protocol re-floats any identifier a live client
// actually saw (the PR-6 mechanism), which is exactly the convergence
// argument of "Practically-Self-Stabilizing Virtual Synchrony": bounded
// counters plus client re-assertion reach a legal state from any state.

const (
	// MaxAttachEpoch is the plausibility ceiling for attach epochs. An epoch
	// increments once per client failover, so 2^24 failovers of one client
	// is unreachable in any real deployment — while an epoch at or above
	// 2^(63-cidEpochShift) = 2^31 wraps the cid floor computation entirely.
	// Anything above the ceiling is corruption, not history.
	MaxAttachEpoch = 1 << 24

	// MaxSaneCID is the attach-claim ceiling for start-change identifiers:
	// the largest cid the epoch range of MaxAttachEpoch can mint. A cid
	// above it claims an epoch no correct execution reaches.
	MaxSaneCID = ((MaxAttachEpoch + 1) << cidEpochShift) - 1

	// MaxSaneVid is the plausibility ceiling for view identifiers, which
	// advance by one per installed view: 2^48 reconfigurations is
	// unreachable.
	MaxSaneVid = 1 << 48
)

// SanitizeStats counts the clamps a sanitization pass applied, by rule.
type SanitizeStats struct {
	// Negative counts fields whose sign bit was set (no identifier is ever
	// negative); each is reset to zero.
	Negative int64
	// WrappedEpoch counts epochs above MaxAttachEpoch, reset to zero — the
	// attach protocol re-establishes the true epoch from the client's claim.
	WrappedEpoch int64
	// CIDCeiling counts start-change identifiers above MaxSaneCID, reset to
	// zero for the same reason.
	CIDCeiling int64
	// VidCeiling counts view identifiers above MaxSaneVid, reset to zero.
	VidCeiling int64
	// VidOrphan counts records claiming a delivered view but no start-change
	// identifier — impossible, since a view delivery is always preceded by a
	// start_change; the vid is reset to zero.
	VidOrphan int64
	// EpochRaised counts records whose cid's implied epoch (cid >>
	// cidEpochShift) exceeded the recorded epoch; the epoch is raised to
	// match, the unique upward (regression-free) repair.
	EpochRaised int64
}

// Total sums the clamps across all rules.
func (st SanitizeStats) Total() int64 {
	return st.Negative + st.WrappedEpoch + st.CIDCeiling + st.VidCeiling + st.VidOrphan + st.EpochRaised
}

// add accumulates other into st.
func (st *SanitizeStats) add(other SanitizeStats) {
	st.Negative += other.Negative
	st.WrappedEpoch += other.WrappedEpoch
	st.CIDCeiling += other.CIDCeiling
	st.VidCeiling += other.VidCeiling
	st.VidOrphan += other.VidOrphan
	st.EpochRaised += other.EpochRaised
}

// SanitizeRecord clamps every impossible value in rec and reports what it
// did. A record from any correct execution passes through unchanged.
func SanitizeRecord(rec ClientRecord) (ClientRecord, SanitizeStats) {
	return sanitize(rec, true)
}

// SanitizeClaim is SanitizeRecord for an attach claim. A claim legitimately
// carries a cid without the epoch it was minted under (the client reports
// identifiers, not registration metadata), so the cid/epoch inversion
// repair — which would fire on every honest claim — is skipped.
func SanitizeClaim(rec ClientRecord) (ClientRecord, SanitizeStats) {
	return sanitize(rec, false)
}

func sanitize(rec ClientRecord, fullRecord bool) (ClientRecord, SanitizeStats) {
	var st SanitizeStats
	if rec.CID < 0 {
		rec.CID = 0
		st.Negative++
	}
	if rec.Vid < 0 {
		rec.Vid = 0
		st.Negative++
	}
	if rec.Epoch < 0 {
		rec.Epoch = 0
		st.Negative++
	}
	if rec.Epoch > MaxAttachEpoch {
		rec.Epoch = 0
		st.WrappedEpoch++
	}
	if rec.CID > MaxSaneCID {
		rec.CID = 0
		st.CIDCeiling++
	}
	if rec.Vid > MaxSaneVid {
		rec.Vid = 0
		st.VidCeiling++
	}
	if rec.Vid > 0 && rec.CID == 0 {
		rec.Vid = 0
		st.VidOrphan++
	}
	if implied := int64(rec.CID >> cidEpochShift); fullRecord && implied > rec.Epoch {
		rec.Epoch = implied
		st.EpochRaised++
	}
	return rec, st
}

// SanitizeRecords clamps every record in recs in place and returns the
// aggregate statistics.
func SanitizeRecords(recs map[types.ProcID]ClientRecord) SanitizeStats {
	var st SanitizeStats
	for p, rec := range recs {
		clean, s := SanitizeRecord(rec)
		if s.Total() > 0 {
			recs[p] = clean
			st.add(s)
		}
	}
	return st
}

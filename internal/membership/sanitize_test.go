package membership

import (
	"testing"

	"vsgm/internal/types"
)

// TestSanitizeRecordCleanPassThrough pins the zero-cost contract: a record
// from any correct execution passes through untouched, with zero clamps.
func TestSanitizeRecordCleanPassThrough(t *testing.T) {
	clean := []ClientRecord{
		{},
		{CID: 1, Vid: 1, Epoch: 0},
		{CID: 3<<cidEpochShift + 17, Vid: 42, Epoch: 3},
		{CID: MaxSaneCID, Vid: MaxSaneVid, Epoch: MaxAttachEpoch},
	}
	for _, rec := range clean {
		got, st := SanitizeRecord(rec)
		if got != rec || st.Total() != 0 {
			t.Errorf("SanitizeRecord(%+v) = %+v with %d clamps, want unchanged", rec, got, st.Total())
		}
	}
}

// TestSanitizeRecordClamps covers one case per rule plus a compound case.
func TestSanitizeRecordClamps(t *testing.T) {
	cases := []struct {
		name string
		in   ClientRecord
		want ClientRecord
		st   SanitizeStats
	}{
		{
			name: "negative fields",
			in:   ClientRecord{CID: -1, Vid: -2, Epoch: -3},
			want: ClientRecord{},
			st:   SanitizeStats{Negative: 3},
		},
		{
			name: "wrapped epoch",
			in:   ClientRecord{CID: 7, Vid: 3, Epoch: 1 << 33},
			want: ClientRecord{CID: 7, Vid: 3, Epoch: 0},
			st:   SanitizeStats{WrappedEpoch: 1},
		},
		{
			name: "cid above the attach-claim ceiling",
			in:   ClientRecord{CID: MaxSaneCID + 1, Vid: 1, Epoch: 1},
			// Dropping the cid orphans the vid, which is then dropped too.
			want: ClientRecord{Epoch: 1},
			st:   SanitizeStats{CIDCeiling: 1, VidOrphan: 1},
		},
		{
			name: "vid above the ceiling",
			in:   ClientRecord{CID: 9, Vid: MaxSaneVid + 1, Epoch: 0},
			want: ClientRecord{CID: 9},
			st:   SanitizeStats{VidCeiling: 1},
		},
		{
			name: "vid with no start-change behind it",
			in:   ClientRecord{Vid: 5},
			want: ClientRecord{},
			st:   SanitizeStats{VidOrphan: 1},
		},
		{
			name: "cid implies a higher epoch",
			in:   ClientRecord{CID: 5<<cidEpochShift + 1, Vid: 2, Epoch: 3},
			want: ClientRecord{CID: 5<<cidEpochShift + 1, Vid: 2, Epoch: 5},
			st:   SanitizeStats{EpochRaised: 1},
		},
		{
			name: "arbitrary garbage compounds",
			in:   ClientRecord{CID: -9, Vid: MaxSaneVid + 7, Epoch: 1 << 40},
			want: ClientRecord{},
			st:   SanitizeStats{Negative: 1, WrappedEpoch: 1, VidCeiling: 1},
		},
	}
	for _, tc := range cases {
		got, st := SanitizeRecord(tc.in)
		if got != tc.want {
			t.Errorf("%s: SanitizeRecord(%+v) = %+v, want %+v", tc.name, tc.in, got, tc.want)
		}
		if st != tc.st {
			t.Errorf("%s: stats = %+v, want %+v", tc.name, st, tc.st)
		}
	}
}

// TestSanitizeClaimSkipsEpochRaise pins the claim variant: an honest attach
// claim carries identifiers without the epoch they were minted under, so the
// cid/epoch inversion rule must not fire — while every ceiling still does.
func TestSanitizeClaimSkipsEpochRaise(t *testing.T) {
	honest := ClientRecord{CID: 4<<cidEpochShift + 9, Vid: 12}
	got, st := SanitizeClaim(honest)
	if got != honest || st.Total() != 0 {
		t.Fatalf("honest claim clamped: %+v, stats %+v", got, st)
	}
	// The same record through SanitizeRecord raises the epoch.
	rec, st := SanitizeRecord(honest)
	if rec.Epoch != 4 || st.EpochRaised != 1 {
		t.Fatalf("full-record sanitize did not raise epoch: %+v, stats %+v", rec, st)
	}
	// Ceilings still bind claims.
	if got, st := SanitizeClaim(ClientRecord{CID: MaxSaneCID + 1}); got.CID != 0 || st.CIDCeiling != 1 {
		t.Fatalf("claim above cid ceiling survived: %+v, stats %+v", got, st)
	}
}

// TestSanitizeRecordsAggregates checks the map form clamps in place and sums
// the statistics.
func TestSanitizeRecordsAggregates(t *testing.T) {
	recs := map[types.ProcID]ClientRecord{
		"ok":      {CID: 1, Vid: 1, Epoch: 0},
		"wrapped": {CID: 7, Vid: 3, Epoch: 1 << 33},
		"orphan":  {Vid: 4},
	}
	st := SanitizeRecords(recs)
	if st.WrappedEpoch != 1 || st.VidOrphan != 1 || st.Total() != 2 {
		t.Fatalf("aggregate stats = %+v", st)
	}
	if recs["wrapped"].Epoch != 0 || recs["orphan"].Vid != 0 {
		t.Fatalf("records not clamped in place: %+v", recs)
	}
	if recs["ok"] != (ClientRecord{CID: 1, Vid: 1, Epoch: 0}) {
		t.Fatalf("clean record touched: %+v", recs["ok"])
	}
}

// TestServerSanitizesRestoredState pins the integration: impossible values
// replayed into a server are clamped before they can reach a proposal, the
// clamps are counted, and legal state passes through.
func TestServerSanitizesRestoredState(t *testing.T) {
	srv, err := NewServer("s1", types.NewProcSet("s1"), nullTransport{}, func(types.ProcID, Notification) {})
	if err != nil {
		t.Fatal(err)
	}
	srv.RestoreRecords(map[types.ProcID]ClientRecord{
		"c1": {CID: 3<<cidEpochShift + 2, Vid: 9, Epoch: 3}, // legal
		"c2": {CID: 5, Vid: 2, Epoch: 1 << 33},              // wrapped epoch
	})
	if st := srv.Sanitized(); st.WrappedEpoch != 1 || st.Total() != 1 {
		t.Fatalf("restore stats = %+v", st)
	}
	if rec, ok := srv.RecordOf("c1"); !ok || rec != (ClientRecord{CID: 3<<cidEpochShift + 2, Vid: 9, Epoch: 3}) {
		t.Fatalf("legal record mangled: %+v", rec)
	}
	if rec, ok := srv.RecordOf("c2"); !ok || rec.Epoch != 0 || rec.CID != 5 {
		t.Fatalf("wrapped epoch survived restore: %+v", rec)
	}

	// An attach claim with impossible identifiers is clamped the same way.
	rec, _ := srv.AttachClientClaim("c3", 2, ClientRecord{CID: MaxSaneCID + 1, Vid: 1})
	if rec.CID>>cidEpochShift > MaxAttachEpoch {
		t.Fatalf("impossible claim burned the identifier space: %+v", rec)
	}
	if st := srv.Sanitized(); st.CIDCeiling != 1 {
		t.Fatalf("claim clamp not counted: %+v", st)
	}

	// A wrapped attach epoch degrades to epoch 0 instead of wrapping cids.
	srv.AttachClientClaim("c4", 1<<40, ClientRecord{})
	if rec, ok := srv.RecordOf("c4"); !ok || rec.Epoch != 0 {
		t.Fatalf("wrapped attach epoch survived: %+v", rec)
	}
}

type nullTransport struct{}

func (nullTransport) Send([]types.ProcID, types.WireMsg) {}

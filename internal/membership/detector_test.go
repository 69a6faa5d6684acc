package membership

import (
	"testing"
	"time"

	"vsgm/internal/types"
)

// warmDetector feeds B regular 20ms heartbeats until the inter-arrival
// window is warm enough for accrual scoring, returning the last beat time.
func warmDetector(d *Detector, p types.ProcID, start time.Time, beats int) time.Time {
	at := start
	for i := 0; i < beats; i++ {
		at = at.Add(20 * time.Millisecond)
		d.OnHeartbeatInfo(p, at, nil)
		d.Tick(at)
	}
	return at
}

// TestDetectorHeartbeatSuspectTieBreak pins the equal-timestamp semantics:
// a heartbeat and a suspicion carrying the same instant must resolve to
// "trusted" regardless of which call lands first — a heartbeat is direct
// evidence of liveness, a suspicion only inference.
func TestDetectorHeartbeatSuspectTieBreak(t *testing.T) {
	start := time.Unix(0, 0)
	peers := types.NewProcSet("A", "B")
	cases := []struct {
		name    string
		hbFirst bool
	}{
		{"adaptive heartbeat-then-suspect", true},
		{"adaptive suspect-then-heartbeat", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDetectorWith("A", peers, 50*time.Millisecond, start, DetectorConfig{})
			d.Tick(start)
			at := start.Add(30 * time.Millisecond)
			if tc.hbFirst {
				d.OnHeartbeatInfo("B", at, nil)
				d.Suspect("B", at)
			} else {
				d.Suspect("B", at)
				d.OnHeartbeatInfo("B", at, nil)
			}
			if reachable, _ := d.Tick(at); !reachable.Contains("B") {
				t.Fatalf("equal-timestamp race suspected B (reachable %s), heartbeat must win", reachable)
			}
		})
	}
}

// TestDetectorAdaptiveHysteresis drives the accrual engine through one
// suspicion cycle: a warm window, silence until phi crosses the suspect
// threshold, then a fresh heartbeat dropping phi below the restore
// threshold. In between — inside the hysteresis band — the verdict must
// hold.
func TestDetectorAdaptiveHysteresis(t *testing.T) {
	start := time.Unix(0, 0)
	peers := types.NewProcSet("A", "B")
	d := NewDetectorWith("A", peers, 150*time.Millisecond, start, DetectorConfig{})
	d.Tick(start)
	last := warmDetector(d, "B", start, 8) // 7 x 20ms inter-arrivals in the window

	// 100ms of silence is ~5x the mean inter-arrival: phi sits between the
	// restore and suspect thresholds, so the trusted verdict must hold.
	mid := last.Add(100 * time.Millisecond)
	if phi := d.Phi("B", mid); phi <= DefaultRestorePhi || phi >= DefaultSuspectPhi {
		t.Fatalf("phi after 100ms silence = %.2f, want inside the hysteresis band (%v, %v)",
			phi, DefaultRestorePhi, DefaultSuspectPhi)
	}
	if reachable, changed := d.Tick(mid); changed || !reachable.Contains("B") {
		t.Fatalf("verdict flipped inside the hysteresis band: (%s, %v)", reachable, changed)
	}

	// 600ms of silence is ~30x the mean: phi is far past the suspect
	// threshold and the verdict crosses.
	late := last.Add(600 * time.Millisecond)
	if phi := d.Phi("B", late); phi < DefaultSuspectPhi {
		t.Fatalf("phi after 600ms silence = %.2f, want >= %v", phi, DefaultSuspectPhi)
	}
	reachable, changed := d.Tick(late)
	if !changed || reachable.Contains("B") {
		t.Fatalf("silence not suspected: (%s, %v)", reachable, changed)
	}
	if st := d.Stats(); st.Suspects != 1 {
		t.Fatalf("Suspects = %d, want 1", st.Suspects)
	}

	// One fresh heartbeat restores: phi collapses below the restore
	// threshold. The first restore is a flap crossing, but well under the
	// damping threshold, so no quarantine is imposed.
	back := late.Add(20 * time.Millisecond)
	d.OnHeartbeatInfo("B", back, nil)
	reachable, changed = d.Tick(back.Add(time.Millisecond))
	if !changed || !reachable.Contains("B") {
		t.Fatalf("fresh heartbeat did not restore: (%s, %v)", reachable, changed)
	}
	if st := d.Stats(); st.Flaps != 1 || st.Quarantines != 0 {
		t.Fatalf("stats after one flap = %+v, want 1 flap, 0 quarantines", st)
	}
}

// TestDetectorFlapDamping crosses the suspect/restore boundary repeatedly:
// once the decayed flap score reaches the threshold, each further restore
// must earn an exponentially growing rejoin quarantine (bounded by the
// cap), and a long quiet stretch must decay the score back to a clean
// slate. The clock is virtual, so the test runs the deployed thresholds: a
// 250ms first quarantine and a 10s flap half-life.
func TestDetectorFlapDamping(t *testing.T) {
	start := time.Unix(0, 0)
	peers := types.NewProcSet("A", "B")
	d := NewDetectorWith("A", peers, 150*time.Millisecond, start, DetectorConfig{})
	d.Tick(start)
	at := warmDetector(d, "B", start, 8)

	flap := func() (quarantined bool) {
		t.Helper()
		// Silence until suspected...
		at = at.Add(600 * time.Millisecond)
		if reachable, _ := d.Tick(at); reachable.Contains("B") {
			t.Fatal("silence not suspected")
		}
		// ...then one heartbeat and a tick: restored, unless quarantined.
		at = at.Add(20 * time.Millisecond)
		d.OnHeartbeatInfo("B", at, nil)
		at = at.Add(time.Millisecond)
		reachable, _ := d.Tick(at)
		return !reachable.Contains("B")
	}

	// The first crossings stay under the decayed threshold: immediate
	// rejoin. (Each crossing decays the score before bumping it — a flap
	// takes 621ms, 6% of a half-life — so the Nth flap scores under N and
	// the threshold of 3 is crossed on the 4th.)
	for i := 0; i < 3; i++ {
		if flap() {
			t.Fatalf("flap %d quarantined below the damping threshold", i+1)
		}
	}
	// Flap 4 crosses the threshold: the restore is held back.
	if !flap() {
		t.Fatal("flap 4 rejoined immediately, damping never engaged")
	}
	st := d.Stats()
	if st.Flaps != 4 || st.Quarantines != 1 || st.Quarantined != 1 {
		t.Fatalf("stats after 4 flaps = %+v, want 4 flaps, 1 quarantine, 1 quarantined", st)
	}
	// beats sends n heartbeats 20ms apart, ticking after each.
	beats := func(n int) {
		for i := 0; i < n; i++ {
			at = at.Add(20 * time.Millisecond)
			d.OnHeartbeatInfo("B", at, nil)
			d.Tick(at)
		}
	}
	// The first quarantine is the base; with heartbeats flowing, the peer
	// rejoins once it expires.
	beats(15)
	if !d.reachable.Contains("B") {
		t.Fatalf("B still out %v after a %v quarantine", 300*time.Millisecond, DefaultQuarantineBase)
	}
	// Flap 5's quarantine doubles: 300ms of heartbeats is no longer enough.
	if !flap() {
		t.Fatal("flap 5 rejoined immediately")
	}
	beats(15)
	if d.reachable.Contains("B") {
		t.Fatal("flap 5's quarantine did not grow past the base")
	}
	beats(15)
	if !d.reachable.Contains("B") {
		t.Fatal("B never rejoined after the doubled quarantine")
	}

	// Decay: a long quiet stretch earns back a clean slate — the next flap
	// rejoins immediately again.
	d2 := NewDetectorWith("A", peers, 150*time.Millisecond, start, DetectorConfig{})
	d2.Tick(start)
	at2 := warmDetector(d2, "B", start, 8)
	d = d2
	at = at2
	for i := 0; i < 3; i++ {
		flap()
	}
	// A minute — six half-lives — of clean heartbeats: the flap score
	// decays to ~zero.
	beats(3000)
	if flap() {
		t.Fatal("flap score never decayed: a fresh flap after a long quiet stretch was quarantined")
	}
}

// TestDetectorGrayDirectRule covers the one-way-link reconciliation: a peer
// we hear from whose bitmap has excluded us past the grace cannot hear us,
// and must be downgraded — while the advertised Bitmap() keeps reporting
// the hearing truth, so the exclusion unwinds as soon as the peer's bitmap
// re-includes us.
func TestDetectorGrayDirectRule(t *testing.T) {
	start := time.Unix(0, 0)
	peers := types.NewProcSet("A", "B")
	d := NewDetectorWith("A", peers, 50*time.Millisecond, start, DetectorConfig{})
	d.Tick(start)

	// B beats regularly but its bitmap excludes A (it cannot hear us).
	at := start
	for i := 0; i < 5; i++ {
		at = at.Add(20 * time.Millisecond)
		d.OnHeartbeatInfo("B", at, types.NewProcSet("B"))
		d.Tick(at)
	}
	// Sustained past the grace (= timeout, 50ms): B is downgraded...
	if d.reachable.Contains("B") {
		t.Fatalf("one-way link not downgraded: reachable %s", d.reachable)
	}
	// ...but the hearing bitmap still includes B — advertising the gray
	// verdict would make mutual exclusion self-sustaining after a heal.
	if !d.Bitmap().Contains("B") {
		t.Fatalf("Bitmap() = %s echoes the gray downgrade; it must report hearing", d.Bitmap())
	}
	st := d.Stats()
	if st.GrayDowngrades != 1 || st.GrayExcluded != 1 {
		t.Fatalf("gray stats = %+v, want 1 downgrade, 1 excluded", st)
	}

	// B's bitmap re-includes A: trust returns on the next tick.
	at = at.Add(20 * time.Millisecond)
	d.OnHeartbeatInfo("B", at, peers)
	if reachable, changed := d.Tick(at); !changed || !reachable.Contains("B") {
		t.Fatalf("healed one-way link not restored: (%s, %v)", reachable, changed)
	}
	if st := d.Stats(); st.GrayExcluded != 0 {
		t.Fatalf("GrayExcluded = %d after heal, want 0", st.GrayExcluded)
	}
}

// TestDetectorGrayPairRule covers third-party arbitration: when B's bitmap
// reports it cannot hear A, every observer must drop the lexicographically
// larger of the pair (B), so the survivors' verdicts converge with the
// pair's own instead of livelocking the one-round membership protocol.
func TestDetectorGrayPairRule(t *testing.T) {
	start := time.Unix(0, 0)
	peers := types.NewProcSet("A", "B", "C")
	d := NewDetectorWith("C", peers, 50*time.Millisecond, start, DetectorConfig{})
	d.Tick(start)

	at := start
	for i := 0; i < 5; i++ {
		at = at.Add(20 * time.Millisecond)
		d.OnHeartbeatInfo("A", at, peers)                      // A hears everyone
		d.OnHeartbeatInfo("B", at, types.NewProcSet("B", "C")) // B cannot hear A
		d.Tick(at)
	}
	reachable := d.reachable
	if reachable.Contains("B") {
		t.Fatalf("pair rule did not drop the larger of the broken pair: %s", reachable)
	}
	if !reachable.Contains("A") || !reachable.Contains("C") {
		t.Fatalf("pair rule dropped a survivor: %s", reachable)
	}

	// The pair heals: B's bitmap re-includes A, and B is re-admitted.
	at = at.Add(20 * time.Millisecond)
	d.OnHeartbeatInfo("A", at, peers)
	d.OnHeartbeatInfo("B", at, peers)
	if reachable, _ := d.Tick(at); !reachable.Equal(peers) {
		t.Fatalf("healed pair not re-admitted: %s", reachable)
	}
}

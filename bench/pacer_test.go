package main

import "testing"

// fakeClock lets a test decide how long every wait really takes.
type fakeClock struct {
	now       int64
	oversleep int64 // added to every sleep: a timer that fires late
}

func (c *fakeClock) pacer(interval int64) *pacer {
	return &pacer{
		start:    c.now,
		interval: interval,
		now:      func() int64 { return c.now },
		sleep: func(d int64) bool {
			if d > 0 {
				c.now += d + c.oversleep
			}
			return true
		},
	}
}

func TestPacerStampsDueTimesNotSendTimes(t *testing.T) {
	clock := &fakeClock{now: 1000, oversleep: 30}
	p := clock.pacer(100)
	for k := int64(0); k < 5; k++ {
		gotK, due, entry, ok := p.next()
		if !ok || gotK != k {
			t.Fatalf("send %d: k=%d ok=%v", k, gotK, ok)
		}
		if want := 1000 + k*100; due != want {
			t.Errorf("send %d due at %d, want %d: the schedule must not drift with the generator", k, due, want)
		}
		if late := entry - due; k > 0 && late != 30 {
			t.Errorf("send %d: lateness %d, want the timer's 30 ns oversleep", k, late)
		}
	}
}

func TestPacerKeepsTheScheduleAcrossAStall(t *testing.T) {
	clock := &fakeClock{now: 0}
	p := clock.pacer(100)
	p.next()
	clock.now += 450 // the send blocked through a view change
	var lates []int64
	for i := 0; i < 6; i++ {
		_, due, entry, _ := p.next()
		lates = append(lates, entry-due)
	}
	// Sends 1..4 fell due during the stall and go out at once, each charged
	// from its own due time; 5 and 6 are back on schedule.
	want := []int64{350, 250, 150, 50, 0, 0}
	for i := range want {
		if lates[i] != want[i] {
			t.Fatalf("lateness after a stall = %v, want %v", lates, want)
		}
	}
}

func TestPacerStops(t *testing.T) {
	p := &pacer{interval: 100, now: func() int64 { return 0 }, sleep: func(int64) bool { return false }}
	if _, _, _, ok := p.next(); ok {
		t.Error("next must report the end of the run")
	}
}

func TestServiceGaps(t *testing.T) {
	changes := []viewChange{
		{at: 1000, took: 500, timed: true},
		{at: 3000, took: 500, timed: false}, // warm-up: not reported
		{at: 5000, took: 500, timed: true},
	}
	calls := []call{{900, 50}, {1100, 400}, {1300, 20}, {1600, 70}, {3100, 900}, {4000, 10}}
	gaps := serviceGaps(changes, calls)
	if len(gaps) != 2 || gaps[0] != 400 || gaps[1] != 0 {
		t.Errorf("gaps = %v, want [400 0]: the longest call begun inside each timed change", gaps)
	}
}

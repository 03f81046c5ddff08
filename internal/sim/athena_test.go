package sim

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestAthenaDay runs the canned scenario at one fifth scale — staff and
// student login storms, a mid-burst death of one of the three KDC
// instances, the ~8h renewal wave, a drifted-clock cohort retrying
// through its rejections, and midday kadmin churn — and asserts the
// whole day's shape from the counters. Run twice to pin determinism at
// this scale too (the suite also runs under -race in CI).
func TestAthenaDay(t *testing.T) {
	scale := 0.2
	run := func() *Result {
		s, err := New(AthenaDay(scale))
		if err != nil {
			t.Fatal(err)
		}
		return s.Execute()
	}
	res := run()
	m := res.Metrics
	sc := res.Scenario

	staff := sc.Cohorts[0].Users
	students := sc.Cohorts[1].Users
	drifted := sc.Cohorts[2].Users
	all := uint64(staff + students + drifted)

	// Every member of every cohort gets logged in: the AS exchange is
	// blind to drift, and the outage is survivable by retransmission.
	if got := m.Logins.Load(); got != all {
		t.Fatalf("logins = %d, want %d", got, all)
	}
	if got := m.LoginFailures.Load() + m.Timeouts.Load(); got != 0 {
		t.Fatalf("login failures+timeouts = %d, want 0: the 2 surviving instances must absorb the outage", got)
	}

	// The outage is visible in the resilience counters: clients whose
	// preferred instance died retransmitted and switched.
	if m.Retransmits.Load() == 0 {
		t.Fatal("no retransmits despite a 15-minute instance outage mid-storm")
	}
	if m.Failovers.Load() == 0 {
		t.Fatal("no failovers despite a 15-minute instance outage mid-storm")
	}

	// The healthy cohorts get their service tickets and their renewal
	// wave; the drifted cohort gets neither.
	wantTGS := uint64(2*(staff+students)) + all - uint64(drifted) // 2 per login + 1 renewal each
	if got := m.TGS.Load(); got != wantTGS {
		t.Fatalf("tgs = %d, want %d", got, wantTGS)
	}
	if got := m.Renewals.Load(); got != uint64(staff+students) {
		t.Fatalf("renewals = %d, want %d", got, staff+students)
	}
	if got := m.RenewalFails.Load(); got != 0 {
		t.Fatalf("renewal failures = %d, want 0", got)
	}
	for i, off := range res.RenewalOffsets {
		if off < 8*time.Hour-5*time.Minute || off > 9*time.Hour+45*time.Minute {
			t.Fatalf("renewal %d at +%v outside the day's renewal band", i, off)
		}
	}

	// The skew epidemic: every drifted user rejected on the first try
	// and both retries, attributed to skew on both sides of the wire.
	wantSkew := uint64(drifted * 3)
	if got := m.SkewRejections.Load(); got != wantSkew {
		t.Fatalf("skew rejections = %d, want %d", got, wantSkew)
	}
	if got := res.KDC.SkewErrors; got != wantSkew {
		t.Fatalf("kdc skew errors = %d, want %d", got, wantSkew)
	}
	if got := m.OverloadRejections.Load(); got != 0 {
		t.Fatalf("overload rejections = %d, want 0: this day is within capacity", got)
	}

	// Midday kadmin churn ran and reverted.
	if m.ChurnChanges.Load() == 0 {
		t.Fatal("churn phase recorded no changes")
	}

	// The trace narrates the fault window.
	if !bytes.Contains(res.Trace, []byte("fault instance=1")) ||
		!bytes.Contains(res.Trace, []byte("fault-clear instance=1")) {
		t.Fatal("trace is missing the fault phase markers")
	}

	// Determinism at this scale: an independent second run agrees to
	// the byte.
	res2 := run()
	if !bytes.Equal(res.Trace, res2.Trace) {
		t.Fatal("two athena-day runs diverged:\n" + firstDiff(res.Trace, res2.Trace))
	}
	if !bytes.Equal(res.MetricsText, res2.MetricsText) {
		t.Fatalf("metrics diverged:\n%s\nvs\n%s", res.MetricsText, res2.MetricsText)
	}

	// Replay caches stay bounded across a 10-hour day.
	if res.ReplayLenMax == 0 || res.ReplayLenMax > int(wantTGS)/2 {
		t.Fatalf("replay high-water %d out of bounds (total tgs %d)", res.ReplayLenMax, wantTGS)
	}

	if !strings.Contains(res.Summary(), "athena-day") {
		t.Fatal("summary does not name the scenario")
	}
}

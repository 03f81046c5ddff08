package core

// Clock-skew boundary tests. §4.3 tolerates "several minutes" of clock
// drift (ClockSkew = 5 minutes); these tests pin the exact edges — the
// boundary itself is accepted, one tick past it is not — and the
// 5-minute-unit rounding rules of ticket lifetimes, using testclock so
// every instant is exact.

import (
	"testing"
	"time"

	"kerberos/internal/des"
	"kerberos/internal/testclock"
)

var skewT0 = time.Unix(567705600, 0).UTC() // January 1988, mid-paper

func skewTicket(issued time.Time, life Lifetime) *Ticket {
	return &Ticket{
		Server:     Principal{Name: "rlogin", Instance: "priam", Realm: "R"},
		Client:     Principal{Name: "jis", Realm: "R"},
		Addr:       Addr{18, 72, 0, 3},
		Issued:     TimeFromGo(issued),
		Life:       life,
		SessionKey: des.StringToKey("session", "R"),
	}
}

func TestWithinSkewBoundary(t *testing.T) {
	clk := testclock.New(skewT0)
	cases := []struct {
		name   string
		offset time.Duration
		want   bool
	}{
		{"synchronized", 0, true},
		{"behind by exactly the skew", -ClockSkew, true},
		{"ahead by exactly the skew", +ClockSkew, true},
		{"behind by one second too much", -ClockSkew - time.Second, false},
		{"ahead by one second too much", +ClockSkew + time.Second, false},
		{"behind by one nanosecond too much", -ClockSkew - time.Nanosecond, false},
		{"ahead by one nanosecond too much", +ClockSkew + time.Nanosecond, false},
	}
	for _, c := range cases {
		if got := WithinSkew(clk.Now().Add(c.offset), clk.Now()); got != c.want {
			t.Errorf("%s: WithinSkew = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestAuthenticatorSkewBoundary drives a full authenticator check at
// the ±5-minute edges: the inclusive boundary authenticates, one tick
// past it fails with ErrSkew.
func TestAuthenticatorSkewBoundary(t *testing.T) {
	clk := testclock.New(skewT0)
	tkt := skewTicket(clk.Now(), DefaultTGTLife)
	check := func(stamp time.Time) error {
		auth := NewAuthenticator(tkt.Client, tkt.Addr, stamp, 0)
		return auth.Verify(tkt, tkt.Addr, clk.Now())
	}
	if err := check(clk.Now().Add(-ClockSkew)); err != nil {
		t.Errorf("workstation 5m slow: %v", err)
	}
	if err := check(clk.Now().Add(ClockSkew)); err != nil {
		t.Errorf("workstation 5m fast: %v", err)
	}
	for _, off := range []time.Duration{-ClockSkew - time.Second, ClockSkew + time.Second} {
		err := check(clk.Now().Add(off))
		var pe *ProtocolError
		if !asProtocolError(err, &pe) || pe.Code != ErrSkew {
			t.Errorf("offset %v: err = %v, want KRB_SKEW", off, err)
		}
	}
}

// TestTicketExpiryBoundary: a ticket is honored until ClockSkew past
// its expiration instant — and rejected one tick later ("expired by one
// tick").
func TestTicketExpiryBoundary(t *testing.T) {
	clk := testclock.New(skewT0)
	tkt := skewTicket(clk.Now(), 0) // one 5-minute unit
	expiry := tkt.ExpiresAt()
	if want := skewT0.Add(5 * time.Minute); !expiry.Equal(want) {
		t.Fatalf("ExpiresAt = %v, want %v", expiry, want)
	}

	clk.Set(expiry.Add(ClockSkew)) // last tolerated instant
	if err := tkt.CheckValidity(clk.Now()); err != nil {
		t.Errorf("at expiry+skew: %v", err)
	}
	clk.Advance(time.Second) // one tick past tolerance
	err := tkt.CheckValidity(clk.Now())
	var pe *ProtocolError
	if !asProtocolError(err, &pe) || pe.Code != ErrTktExpired {
		t.Errorf("one tick past expiry+skew: err = %v, want KRB_TKT_EXPIRED", err)
	}
}

// TestTicketNotYetValid: a ticket postdated beyond the skew window is
// rejected until the clock catches up.
func TestTicketNotYetValid(t *testing.T) {
	clk := testclock.New(skewT0)
	tkt := skewTicket(clk.Now().Add(ClockSkew+time.Second), DefaultTGTLife)
	err := tkt.CheckValidity(clk.Now())
	var pe *ProtocolError
	if !asProtocolError(err, &pe) || pe.Code != ErrTktNYV {
		t.Errorf("postdated ticket: err = %v, want KRB_TKT_NYV", err)
	}
	// Issued exactly ClockSkew in the future is tolerated.
	edge := skewTicket(clk.Now().Add(ClockSkew), DefaultTGTLife)
	if err := edge.CheckValidity(clk.Now()); err != nil {
		t.Errorf("issue time at the skew edge: %v", err)
	}
	clk.Advance(2 * time.Second)
	if err := tkt.CheckValidity(clk.Now()); err != nil {
		t.Errorf("after the clock caught up: %v", err)
	}
}

// TestLifetimeRounding pins the 5-minute-unit quantization rules:
// LifetimeFromDuration rounds up, saturates at MaxLife, and inverts
// exactly through Duration on unit multiples.
func TestLifetimeRounding(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want Lifetime
	}{
		{-time.Hour, 0},
		{0, 0},
		{time.Nanosecond, 0},                     // under one unit rounds up to one unit
		{5 * time.Minute, 0},                     // exactly one unit
		{5*time.Minute + 1, 1},                   // one tick over a boundary → next unit
		{10 * time.Minute, 1},                    // exactly two units
		{8 * time.Hour, 95},                      // the §6.1 default TGT life
		{21*time.Hour + 15*time.Minute, 254},     // 255 units
		{21*time.Hour + 20*time.Minute, MaxLife}, // exactly 256 units
		{22 * time.Hour, MaxLife},                // saturates
		{1000 * time.Hour, MaxLife},              // still saturates
	}
	for _, c := range cases {
		if got := LifetimeFromDuration(c.d); got != c.want {
			t.Errorf("LifetimeFromDuration(%v) = %d, want %d", c.d, got, c.want)
		}
	}
	// Duration is the exact inverse on unit multiples.
	for _, l := range []Lifetime{0, 1, 95, MaxLife} {
		if got := LifetimeFromDuration(l.Duration()); got != l {
			t.Errorf("round trip %d → %v → %d", l, l.Duration(), got)
		}
	}
	if MaxLife.Duration() != 21*time.Hour+20*time.Minute {
		t.Errorf("MaxLife = %v, want 21h20m (256 units)", MaxLife.Duration())
	}
}

// TestRemainingLifeRounding: the TGS derives new-ticket lifetimes from
// the TGT's remaining life; the result rounds up to the next unit but
// never exceeds the TGT's own granted life.
func TestRemainingLifeRounding(t *testing.T) {
	clk := testclock.New(skewT0)
	tkt := skewTicket(clk.Now(), 2) // 15 minutes

	if got := tkt.RemainingLife(clk.Now()); got != 2 {
		t.Errorf("fresh ticket remaining = %d, want its own life", got)
	}
	clk.Advance(time.Second) // 14m59s left → rounds up, capped at own life
	if got := tkt.RemainingLife(clk.Now()); got != 2 {
		t.Errorf("one second in: remaining = %d, want 2", got)
	}
	clk.Set(skewT0.Add(10 * time.Minute)) // exactly 5m left
	if got := tkt.RemainingLife(clk.Now()); got != 0 {
		t.Errorf("five minutes left: remaining = %d, want 0 (one unit)", got)
	}
	clk.Set(skewT0.Add(15 * time.Minute)) // expired exactly now
	if got := tkt.RemainingLife(clk.Now()); got != 0 {
		t.Errorf("at expiry: remaining = %d, want 0", got)
	}
	clk.Advance(time.Nanosecond)
	if got := tkt.RemainingLife(clk.Now()); got != 0 {
		t.Errorf("past expiry: remaining = %d, want 0", got)
	}
}

// asProtocolError is errors.As without the import noise in table tests.
func asProtocolError(err error, target **ProtocolError) bool {
	if err == nil {
		return false
	}
	pe, ok := err.(*ProtocolError)
	if ok {
		*target = pe
	}
	return ok
}

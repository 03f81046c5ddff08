package workload

import (
	"io"
	"net"
	"testing"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/kdc"
)

// blackholeKDC is a crashed-but-routed master: a UDP socket that
// swallows datagrams and a TCP listener on the same port that accepts
// and never answers.
func blackholeKDC(t *testing.T) string {
	t.Helper()
	var pc net.PacketConn
	var ln net.Listener
	for attempt := 0; ; attempt++ {
		var err error
		pc, err = net.ListenPacket("udp4", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ln, err = net.Listen("tcp4", pc.LocalAddr().String())
		if err == nil {
			break
		}
		pc.Close()
		if attempt >= 16 {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { pc.Close(); ln.Close() })
	go func() {
		buf := make([]byte, 8192)
		for {
			if _, _, err := pc.ReadFrom(buf); err != nil {
				return
			}
		}
	}()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(io.Discard, conn) }()
		}
	}()
	return pc.LocalAddr().String()
}

// TestAthenaDaySurvivesLossAndDeadMaster replays the §9 workday over
// real sockets with the network misbehaving: the realm's master KDC is
// a blackhole, the path to the live slave drops 20% of request
// datagrams, and every workstation shares one sticky selector — the
// deployment shape of §5.3. Every login and every service ticket must
// still come through.
func TestAthenaDaySurvivesLossAndDeadMaster(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection soak skipped in -short mode")
	}
	const realm = "ATHENA.MIT.EDU"
	server, _, err := NewRealmServer(Small, realm)
	if err != nil {
		t.Fatal(err)
	}
	l, err := kdc.Serve(server, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })

	inj := kdc.NewFaultInjector(kdc.FaultSpec{LossRate: 0.2, Seed: 1988})
	sel := kdc.NewSelector(blackholeKDC(t), l.Addr())
	sel.HeadStart = 100 * time.Millisecond
	sel.DialUDP = inj.DialUDP

	d := &Driver{
		Spec:  Small,
		Realm: realm,
		Exchange: func(req []byte, accept func([]byte) error) ([]byte, error) {
			return sel.Exchange(req, accept, 2*time.Second)
		},
		Addr:            core.Addr{127, 0, 0, 1},
		TicketsPerLogin: 2,
	}
	m := d.Run(8)

	if got := m.Failures.Load(); got != 0 {
		t.Errorf("failures = %d, want 0: the workday must survive loss and a dead master", got)
	}
	if got := m.ASExchanges.Load(); got != uint64(Small.Users) {
		t.Errorf("AS exchanges = %d, want %d", got, Small.Users)
	}
	if got := m.TGSExchanges.Load(); got != uint64(2*Small.Users) {
		t.Errorf("TGS exchanges = %d, want %d", got, 2*Small.Users)
	}
	if got := inj.Dropped.Load(); got == 0 {
		t.Error("fault injector dropped nothing; the soak exercised no recovery")
	}
	t.Logf("%d users in %v: %d datagrams sent, %d dropped, %d duplicated",
		Small.Users, m.Elapsed, inj.Sent.Load(), inj.Dropped.Load(), inj.Duplicated.Load())
}

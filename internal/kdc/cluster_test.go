package kdc

import (
	"testing"
	"time"

	"kerberos/internal/core"
)

// TestClusterServesFromEveryInstance starts a 3-instance cluster over
// one database and authenticates through each instance directly, then
// through rotated Selectors: any replica can answer any AS request.
func TestClusterServesFromEveryInstance(t *testing.T) {
	r := newRealm(t, testRealm)
	c, err := NewCluster(testRealm, r.db, 3, WithClock(r.clock.time))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if len(c.Addrs()) != 3 {
		t.Fatalf("cluster has %d addresses", len(c.Addrs()))
	}

	req, accept := asReqBytes(r), acceptAS(r)

	// Each instance individually; acceptance proves the reply opens
	// under the user's key.
	for i, addr := range c.Addrs() {
		raw, err := exchangeOnce(addr, req, accept, 2*time.Second)
		if err != nil {
			t.Fatalf("instance %d: %v", i, err)
		}
		if err := core.IfErrorMessage(raw); err != nil {
			t.Fatalf("instance %d refused: %v", i, err)
		}
	}

	// Rotated Selectors spread first-choice across instances.
	first := make(map[string]bool)
	for i := 0; i < 6; i++ {
		sel := c.Selector()
		raw, err := sel.Exchange(req, accept, 2*time.Second)
		sel.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := core.IfErrorMessage(raw); err != nil {
			t.Fatal(err)
		}
		first[sel.Preferred()] = true
	}
	if len(first) < 2 {
		t.Errorf("rotation pinned all clients to one instance: %v", first)
	}

	// Requests were actually spread over more than one server process.
	served := 0
	for _, srv := range c.Servers() {
		if srv.Metrics().ASRequests.Load() > 0 {
			served++
		}
	}
	if served < 2 {
		t.Errorf("only %d of 3 instances served traffic", served)
	}
}

// TestClusterSurvivesInstanceLoss: killing one instance leaves the
// cluster answering through the Selector's failover.
func TestClusterSurvivesInstanceLoss(t *testing.T) {
	r := newRealm(t, testRealm)
	c, err := NewCluster(testRealm, r.db, 3, WithClock(r.clock.time))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.listeners[0].Close() // one replica machine goes down

	// Each attempt is a fresh rotated Selector, so one of them leads
	// with the dead instance.
	for i := 0; i < 3; i++ {
		sel := c.Selector()
		raw, err := sel.Exchange(asReqBytes(r), acceptAS(r), 3*time.Second)
		sel.Close()
		if err != nil {
			t.Fatalf("attempt %d after instance loss: %v", i, err)
		}
		if err := core.IfErrorMessage(raw); err != nil {
			t.Fatalf("attempt %d refused: %v", i, err)
		}
	}
}

package zephyr

import (
	"fmt"
	"testing"
	"time"
)

// TestSlowSubscriberDoesNotBlockDelivery: a subscriber that never drains
// its stream only loses its own notices (dropped past the buffer); other
// subscribers and the sender are unaffected.
func TestSlowSubscriberDoesNotBlockDelivery(t *testing.T) {
	e := newEnv(t)
	bcn, err := e.realm.NewLoggedInClient("bcn", "bcn-pw")
	if err != nil {
		t.Fatal(err)
	}
	// The "slow" subscriber: we subscribe but never read sub.Notices, so
	// after the channel buffer (16) fills, deliveries to it are dropped.
	slow, err := Subscribe(bcn, e.lst.Addr(), e.service)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	healthy, err := Subscribe(bcn, e.lst.Addr(), e.service)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()

	jis, err := e.realm.NewLoggedInClient("jis", "jis-pw")
	if err != nil {
		t.Fatal(err)
	}
	// The hub drops a notice for any subscriber whose queue (16) is
	// full, so a sender that outran the healthy stream by a queue's
	// worth would lose notices to it as well. Each notice is therefore
	// sent once the healthy subscriber holds the one before it: only
	// the slow subscriber's buffers fill.
	const notices = 40 // beyond any buffer
	deadline := time.After(20 * time.Second)
	for i := 0; i < notices; i++ {
		body := fmt.Sprintf("n%d", i)
		if _, err := Send(jis, e.lst.Addr(), e.service, "bcn", body); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
		select {
		case n, ok := <-healthy.Notices:
			if !ok {
				t.Fatalf("healthy stream closed at %d/%d notices", i, notices)
			}
			if n.Body != body {
				t.Fatalf("healthy subscriber got %q, want %q", n.Body, body)
			}
		case <-deadline:
			t.Fatalf("healthy subscriber stalled at %d/%d notices", i, notices)
		}
	}
}

// TestSubscriberDisconnectCleansUp: closing a subscription frees the
// server-side registration so later sends report fewer deliveries.
func TestSubscriberDisconnectCleansUp(t *testing.T) {
	e := newEnv(t)
	bcn, err := e.realm.NewLoggedInClient("bcn", "bcn-pw")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Subscribe(bcn, e.lst.Addr(), e.service)
	if err != nil {
		t.Fatal(err)
	}
	jis, err := e.realm.NewLoggedInClient("jis", "jis-pw")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := Send(jis, e.lst.Addr(), e.service, "bcn", "one"); err != nil || n != 1 {
		t.Fatalf("first send: n=%d err=%v", n, err)
	}
	sub.Close()
	// The server notices the disconnect asynchronously; poll until the
	// registration is gone.
	deadline := time.Now().Add(10 * time.Second)
	for {
		n, err := Send(jis, e.lst.Addr(), e.service, "bcn", "two")
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("closed subscription still registered")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

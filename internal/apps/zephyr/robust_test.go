package zephyr

import (
	"fmt"
	"runtime"
	"strings"
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

// TestClosedUndrainedSubscriptionReleasesReader: a subscriber that
// stops draining its stream and closes it must not leave the stream's
// reader goroutine behind. Notices are published until the reader
// blocks handing one over to the full stream (16 buffered; the hub may
// drop some on the way when its own queue is full); Close must then
// release it.
func TestClosedUndrainedSubscriptionReleasesReader(t *testing.T) {
	e := newEnv(t)
	bcn, err := e.realm.NewLoggedInClient("bcn", "bcn-pw")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Subscribe(bcn, e.lst.Addr(), e.service)
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			sub.Close()
		}
	}()
	jis, err := e.realm.NewLoggedInClient("jis", "jis-pw")
	if err != nil {
		t.Fatal(err)
	}
	blocked := func(states []string) bool {
		for _, s := range states {
			if strings.HasPrefix(s, "chan send") || strings.HasPrefix(s, "select") {
				return true
			}
		}
		return false
	}
	for i := 0; !blocked(readerStates()); i++ {
		if i == 200 {
			t.Fatalf("reader not blocked on its full stream after %d notices: %q", i, readerStates())
		}
		if _, err := Send(jis, e.lst.Addr(), e.service, "bcn", fmt.Sprintf("n%d", i)); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	sub.Close()
	closed = true
	waitReaders(t, "every reader gone after Close", func(states []string) bool { return len(states) == 0 })
}

// waitReaders polls the states of the live Subscribe reader goroutines
// until cond holds, failing after 10 s.
func waitReaders(t *testing.T, what string, cond func([]string) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		states := readerStates()
		if cond(states) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("waited 10s for %s; reader goroutines: %q", what, states)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// readerStates returns the wait state ("chan send", "IO wait", ...) of
// each goroutine running Subscribe's reader.
func readerStates() []string {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	var states []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		if !strings.Contains(g, "zephyr.Subscribe.func1(") {
			continue
		}
		head, _, _ := strings.Cut(g, "\n")
		if _, state, ok := strings.Cut(head, "["); ok {
			state, _, _ = strings.Cut(state, "]")
			states = append(states, state)
		}
	}
	return states
}

// TestCloseEndsLiveSubscription: closing the hub while a subscriber
// stays connected ends the stream and returns, instead of waiting for
// the subscriber to hang up.
func TestCloseEndsLiveSubscription(t *testing.T) {
	e := newEnv(t)
	bcn, err := e.realm.NewLoggedInClient("bcn", "bcn-pw")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := Subscribe(bcn, e.lst.Addr(), e.service)
	if err != nil {
		t.Fatal(err)
	}
	// Registered after newEnv's, so it runs first: a hub that failed to
	// close still lets the test end.
	t.Cleanup(func() { sub.Close() })

	closed := make(chan struct{})
	go func() {
		e.lst.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Listener.Close still waiting on a live subscriber after 10s")
	}
	select {
	case _, ok := <-sub.Notices:
		if ok {
			t.Fatal("a notice arrived from a closed hub")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the subscriber's stream did not end when the hub closed")
	}
}

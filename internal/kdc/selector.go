package kdc

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"kerberos/internal/obs"
)

// Selector picks among a realm's KDC addresses — the master plus the
// slave servers of §5.3 — and carries one exchange to whichever answers
// first, without letting a dead address eat the caller's whole budget:
//
//   - It is sticky: the last KDC that answered is tried first on the
//     next call, so a realm running on a slave while the master is down
//     does not re-probe the dead master on every exchange.
//   - It races rather than serializes: the preferred address gets a
//     short head start, after which the next address is dialed
//     alongside it. The first accepted reply wins; a fast failure (port
//     unreachable) forfeits the rest of the head start immediately.
//   - Every attempt shares the caller's single deadline, so the worst
//     case is bounded by the budget, not by budget × addresses.
//
// A reply counts only once the caller's acceptance check takes it (see
// Exchange), so a late or duplicated datagram can neither answer the
// wrong request nor fail the right one. That lets UDP sockets outlive
// the exchange: a socket whose exchange returned an accepted reply goes
// back on its address's idle list for the next exchange, so a busy
// client does not pay socket set-up and teardown per request. Whatever
// is still in flight to it is refused by the next exchange's check.
// Close releases the idle sockets.
//
// A Selector is safe for concurrent use.
type Selector struct {
	addrs     []string
	preferred atomic.Int32

	mu     sync.Mutex
	idle   map[string][]*udpSock // per address; the most recent last
	closed bool

	stale obs.Counter // replies the acceptance check refused

	// HeadStart is how long the currently preferred KDC may remain the
	// only one being asked before the next address is raced alongside
	// it. Zero derives it from the call budget: timeout / (2·addresses),
	// clamped to [20ms, 500ms].
	HeadStart time.Duration

	// DialUDP and DialTCP override socket construction — the seam the
	// fault-injection harness plugs into. Nil means real sockets. A
	// non-nil DialUDP also turns socket reuse off: every exchange dials
	// through it and closes the socket afterwards, so a dialer that
	// wraps or accounts per socket sees one socket per exchange.
	DialUDP UDPDial
	DialTCP TCPDial
}

// NewSelector builds a selector over the given KDC addresses, listed
// master first (the krb.conf convention).
func NewSelector(addrs ...string) *Selector {
	return &Selector{addrs: append([]string(nil), addrs...), idle: make(map[string][]*udpSock)}
}

// Addrs returns the configured addresses in their original order.
func (s *Selector) Addrs() []string { return append([]string(nil), s.addrs...) }

// Preferred returns the address the next Exchange will lead with.
func (s *Selector) Preferred() string {
	if len(s.addrs) == 0 {
		return ""
	}
	i := int(s.preferred.Load())
	if i < 0 || i >= len(s.addrs) {
		i = 0
	}
	return s.addrs[i]
}

func (s *Selector) headStart(timeout time.Duration, n int) time.Duration {
	if s.HeadStart > 0 {
		return s.HeadStart
	}
	h := timeout / time.Duration(2*n)
	if h < 20*time.Millisecond {
		h = 20 * time.Millisecond
	}
	if h > 500*time.Millisecond {
		h = 500 * time.Millisecond
	}
	return h
}

func (s *Selector) dials() (udpExchange, TCPDial) {
	udp := s.exchangePooled
	if s.DialUDP != nil {
		udp = dialEach(s.DialUDP)
	}
	dt := s.DialTCP
	if dt == nil {
		dt = defaultDialTCP
	}
	return udp, dt
}

// StaleReplies returns how many replies the Selector has discarded
// because the exchange's acceptance check refused them.
func (s *Selector) StaleReplies() uint64 { return s.stale.Load() }

// RegisterMetrics publishes the Selector's counters on reg as
// client_stale_replies.
func (s *Selector) RegisterMetrics(reg *obs.Registry) {
	reg.RegisterCounter("client_stale_replies", &s.stale)
}

// udpSock is a connected UDP socket a Selector dialed itself, kept with
// its own receive buffer.
type udpSock struct {
	conn net.Conn
	buf  []byte
}

// exchangePooled runs the datagram half of an exchange on an idle
// socket for addr, dialing one only when none is idle, and keeps the
// socket afterwards if the exchange returned an accepted reply. Any
// other ending — an error reply, a timeout, a socket error, the
// oversized-reply signal before a TCP retry — closes it.
func (s *Selector) exchangePooled(addr string, req []byte, accept func([]byte) error, deadline time.Time) ([]byte, error) {
	sock, err := s.checkout(addr)
	if err != nil {
		return nil, err
	}
	reply, err := udpRoundTrip(sock.conn, sock.buf, addr, req, accept, deadline)
	if err == nil && isAuthReply(reply) {
		s.checkin(addr, sock)
	} else {
		sock.conn.Close()
	}
	return reply, err
}

// checkout takes the most recently used idle socket for addr, or dials
// one when none is idle.
func (s *Selector) checkout(addr string) (*udpSock, error) {
	s.mu.Lock()
	if list := s.idle[addr]; len(list) > 0 {
		sock := list[len(list)-1]
		list[len(list)-1] = nil
		s.idle[addr] = list[:len(list)-1]
		s.mu.Unlock()
		return sock, nil
	}
	s.mu.Unlock()
	conn, err := defaultDialUDP(addr)
	if err != nil {
		return nil, err
	}
	return &udpSock{conn: conn, buf: make([]byte, MaxUDPMessage)}, nil
}

// checkin returns a socket to addr's idle list, or closes it once the
// Selector is closed.
func (s *Selector) checkin(addr string, sock *udpSock) {
	s.mu.Lock()
	if !s.closed {
		s.idle[addr] = append(s.idle[addr], sock)
		sock = nil
	}
	s.mu.Unlock()
	if sock != nil {
		sock.conn.Close()
	}
}

// Close closes the Selector's idle sockets. Exchanges may still run
// afterwards, and any in flight finish, but their sockets are closed
// rather than kept.
func (s *Selector) Close() error {
	s.mu.Lock()
	idle := s.idle
	s.idle, s.closed = nil, true
	s.mu.Unlock()
	for _, list := range idle {
		for _, sock := range list {
			sock.conn.Close()
		}
	}
	return nil
}

var errAnswered = errors.New("kdc: exchange already answered")

// Exchange sends req to the realm's KDCs and returns, all within
// timeout, the first AUTH_REPLY that accept takes or the first ERROR a
// KDC sends. accept is the caller's proof that a reply answers req: for
// a KDC reply, that it opens under the key the caller expects and echoes
// the request. It sees only AUTH_REPLY messages, one at a time, and is
// not called after Exchange returns. A reply it refuses is counted as
// stale and discarded, and the exchange goes on as if nothing had
// arrived; if the budget runs out with only refused replies, the last
// refusal is the error. On success the answering KDC becomes the
// preferred one. When every address fails, the preference rotates so the
// next call leads with a different KDC — unless a KDC did answer and
// only the check refused it (a wrong password refuses every reply): a
// KDC that answers is alive, so the preference stays on it.
//
//kerb:clockadapter -- failover budget is a wall-clock I/O deadline shared across KDCs
func (s *Selector) Exchange(req []byte, accept func(reply []byte) error, timeout time.Duration) ([]byte, error) {
	n := len(s.addrs)
	if n == 0 {
		return nil, errors.New("kdc: no KDC addresses configured")
	}
	deadline := time.Now().Add(timeout)
	udp, dialTCP := s.dials()
	start := int(s.preferred.Load())
	if start < 0 || start >= n {
		start = 0
	}
	// check runs accept for the attempts raced to every address, one
	// reply at a time and never after a reply is accepted or Exchange
	// returns, so accept may record what it opened for its caller. The
	// lock is held across accept for that reason. Once Exchange has
	// returned, an attempt still running ends at its next reply, and its
	// result is dropped.
	var mu sync.Mutex
	answered, returned := false, false
	heard := make([]bool, n) // addresses whose replies reached accept
	checkFor := func(idx int) func([]byte) error {
		return func(reply []byte) error {
			mu.Lock()
			defer mu.Unlock()
			switch {
			case returned:
				return nil
			case answered:
				return errAnswered
			}
			heard[idx] = true
			err := accept(reply)
			if err != nil {
				s.stale.Inc()
			}
			answered = err == nil
			return err
		}
	}
	defer func() {
		mu.Lock()
		returned = true
		mu.Unlock()
	}()
	if n == 1 {
		return exchangeDeadline(udp, dialTCP, s.addrs[0], req, checkFor(0), deadline)
	}

	type result struct {
		idx   int
		reply []byte
		err   error
	}
	// Buffered to the attempt count so stragglers that lose the race can
	// deliver and exit instead of leaking.
	results := make(chan result, n)
	launched := 0
	launch := func() {
		idx := (start + launched) % n
		launched++
		go func() {
			reply, err := exchangeDeadline(udp, dialTCP, s.addrs[idx], req, checkFor(idx), deadline)
			results <- result{idx: idx, reply: reply, err: err}
		}()
	}
	launch()
	head := s.headStart(timeout, n)
	timer := time.NewTimer(head)
	defer timer.Stop()
	pending := 1
	var lastErr error
	for pending > 0 {
		select {
		case r := <-results:
			pending--
			if r.err == nil {
				s.preferred.Store(int32(r.idx))
				return r.reply, nil
			}
			lastErr = r.err
			// A failure forfeits the remaining head start: dial the next
			// address now rather than waiting out the stagger.
			if launched < n {
				launch()
				pending++
				timer.Reset(head)
			}
		case <-timer.C:
			if launched < n {
				launch()
				pending++
				timer.Reset(head)
			}
		}
	}
	// Everyone failed. Keep leading with the favourite if it answered;
	// else lead with the first KDC in try order that did; and if none
	// did, rotate: the old favourite may be down for a while.
	mu.Lock()
	next := (start + 1) % n
	for k := 0; k < n; k++ {
		if idx := (start + k) % n; heard[idx] {
			next = idx
			break
		}
	}
	mu.Unlock()
	s.preferred.Store(int32(next))
	return nil, fmt.Errorf("kdc: no KDC answered: %w", lastErr)
}

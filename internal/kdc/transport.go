package kdc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"time"

	"kerberos/internal/core"
)

// Transport: the authentication protocols are datagram-shaped, so the
// primary listener is UDP (the historical kerberos port was 750/udp);
// a TCP listener with length-prefixed framing serves large messages and
// clients behind stream-only paths. Both feed the one request pipeline:
// TCP frames through Server.Handle, datagrams through Server.HandleBatch.
//
// The UDP path is runtime.GOMAXPROCS(0) burst workers on the one socket.
// A capacity-1 read token lets one worker read at a time. The holder
// reads a burst — on linux/amd64 and linux/arm64 every datagram queued,
// up to udpBurst, with one recvmmsg — and, when the burst held at least
// udpHandOff datagrams, passes the token to a sibling before handling
// it, so a loaded socket is drained by one worker while others run the
// pipeline. A thinner burst keeps the token: at light load one worker
// reads, handles and replies with no wake-up of a sibling in between.
// The worker runs its burst through HandleBatch and writes every reply
// with one sendmmsg, addressed to the sockaddr recvmmsg filled in.
// Batch width comes only from arrival concurrency: no worker waits for
// a burst to fill. Other platforms run the same loop with a burst of
// one through ReadFromUDPAddrPort/WriteToUDPAddrPort, so they never
// hand off and serve datagrams serially. The kernel socket buffer, not
// an unbounded queue, is the backpressure.
// TCP connections are capped by a semaphore and every read carries a
// deadline, so a stalled or hostile client can neither pin a goroutine
// forever nor exhaust the server's slot budget.

// MaxUDPMessage bounds a datagram request/reply.
const MaxUDPMessage = 8192

// maxTCPMessage bounds a framed stream message.
const maxTCPMessage = 1 << 20

// udpBurst caps the datagrams one worker reads per burst and hands to
// one HandleBatch call; a bounded burst keeps first-reply latency flat
// under floods.
const udpBurst = 64

// udpHandOff is the smallest burst whose reader hands the read token to
// a sibling before handling it. Each hand-off wakes a sibling: on a
// lightly loaded KDC, handing off the occasional burst of two or three
// more than doubled the p99 latency of a login, while a flood's bursts
// run about a dozen wide (DESIGN.md §12).
const udpHandOff = 4

// Tunables, variables so tests can tighten them. Read once at Serve.
var (
	// maxTCPConns caps concurrently served TCP connections.
	maxTCPConns = 256
	// tcpReadTimeout bounds one framed read; an idle or stalled client
	// is disconnected and its slot freed.
	tcpReadTimeout = 30 * time.Second
	// maxUDPReply is the largest reply the UDP path will put in a
	// datagram; larger replies become the "retry over TCP" signal. Tests
	// shrink it to force the oversized path with ordinary messages.
	maxUDPReply = MaxUDPMessage
)

// udpOverflowReply is the pre-encoded "response too big, use TCP" error
// the UDP path sends in place of a reply that exceeds maxUDPReply.
var udpOverflowReply = (&core.ErrorMessage{
	Code: core.ErrReplyTooBig,
	Text: "reply exceeds the UDP limit, retry over TCP",
}).Encode()

// Listener runs a Server on real sockets.
type Listener struct {
	server *Server

	udp       *net.UDPConn
	tcp       net.Listener
	readToken chan struct{} // cap 1: held by the one worker reading udp

	tcpSem      chan struct{} // counting semaphore: live TCP conns
	readTimeout time.Duration

	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc
}

// Serve binds UDP and TCP on addr (e.g. "127.0.0.1:0") and serves until
// Close. The two sockets share a port when addr requests port 0: UDP
// binds first and TCP follows on the same port — retrying with a fresh
// UDP port if some other process already holds that TCP port.
func Serve(server *Server, addr string) (*Listener, error) {
	udpAddr, err := net.ResolveUDPAddr("udp4", addr)
	if err != nil {
		return nil, fmt.Errorf("kdc: resolving %q: %w", addr, err)
	}
	var udp *net.UDPConn
	var tcp net.Listener
	for attempt := 0; ; attempt++ {
		udp, err = net.ListenUDP("udp4", udpAddr)
		if err != nil {
			return nil, fmt.Errorf("kdc: binding udp: %w", err)
		}
		tcp, err = net.Listen("tcp4", udp.LocalAddr().String())
		if err == nil {
			break
		}
		udp.Close()
		if udpAddr.Port != 0 || attempt >= 16 {
			return nil, fmt.Errorf("kdc: binding tcp: %w", err)
		}
	}
	l := newListener(server, udp)
	l.tcp = tcp
	workers := make([]*udpWorker, runtime.GOMAXPROCS(0))
	for i := range workers {
		if workers[i], err = newUDPWorker(l); err != nil {
			l.cancel()
			udp.Close()
			tcp.Close()
			return nil, fmt.Errorf("kdc: udp worker: %w", err)
		}
	}
	l.wg.Add(len(workers) + 1)
	for _, w := range workers {
		go l.serveUDP(w)
	}
	go l.serveTCP()
	return l, nil
}

// newListener returns a Listener on udp with the read token in hand and
// no goroutine started.
func newListener(server *Server, udp *net.UDPConn) *Listener {
	ctx, cancel := context.WithCancel(context.Background())
	l := &Listener{
		server:      server,
		udp:         udp,
		readToken:   make(chan struct{}, 1),
		tcpSem:      make(chan struct{}, maxTCPConns),
		readTimeout: tcpReadTimeout,
		ctx:         ctx,
		cancel:      cancel,
	}
	l.readToken <- struct{}{}
	return l
}

// Addr returns the bound address, suitable for clients.
func (l *Listener) Addr() string { return l.udp.LocalAddr().String() }

// Close stops serving and waits for in-flight handlers.
func (l *Listener) Close() error {
	l.cancel()
	l.udp.Close()
	l.tcp.Close()
	l.wg.Wait()
	return nil
}

// udpWorker is one burst worker's state. The platform part, burstIO,
// holds the receive buffers and whatever the burst syscalls need, all
// built once in newUDPWorker so a steady-state burst allocates nothing.
type udpWorker struct {
	l     *Listener
	batch [udpBurst]BatchRequest
	burstIO
}

// serveUDP is one burst worker. It waits for the read token, reads a
// burst, and hands the token on when the burst held at least
// udpHandOff datagrams — the socket is evidently busy, so a sibling
// should read while this worker runs the pipeline. A thinner burst
// keeps the token and the worker reads again after replying. There is
// exactly one token, so the send never blocks.
func (l *Listener) serveUDP(w *udpWorker) {
	defer l.wg.Done()
	for {
		select {
		case <-l.readToken:
		case <-l.ctx.Done():
			return
		}
		for held := true; held; {
			n, err := w.recv()
			if err != nil {
				if l.ctx.Err() != nil {
					return
				}
				continue
			}
			if n >= udpHandOff {
				l.readToken <- struct{}{}
				held = false
			}
			l.server.HandleBatch(w.batch[:n])
			w.send(n)
		}
	}
}

// udpDatagram applies the shared rules to one reply and returns the
// datagram to send, or nil for none: never emit an empty datagram (a
// zero-length UDP write is delivered and would confuse the client's
// read loop into parsing an empty message), and replace an answer that
// cannot travel as a datagram with the explicit "retry over TCP" signal
// — historically the reply was silently dropped and the client burned
// its whole timeout.
func (l *Listener) udpDatagram(reply []byte) []byte {
	if len(reply) == 0 {
		return nil
	}
	if len(reply) > maxUDPReply {
		l.server.metrics.UDPOverflows.Inc()
		return udpOverflowReply
	}
	return reply
}

// serveTCP accepts connections, each occupying one semaphore slot for
// its lifetime. When all slots are busy, accepting pauses — pending
// connections queue in the kernel backlog instead of spawning unbounded
// goroutines. Slots are freed when a connection closes or stalls past
// the read deadline.
//
//kerb:clockadapter -- per-connection read deadlines are wall-clock I/O timeouts, not protocol time
func (l *Listener) serveTCP() {
	defer l.wg.Done()
	for {
		select {
		case l.tcpSem <- struct{}{}:
		case <-l.ctx.Done():
			return
		}
		conn, err := l.tcp.Accept()
		if err != nil {
			<-l.tcpSem
			if l.ctx.Err() != nil {
				return
			}
			continue
		}
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			defer func() { <-l.tcpSem }()
			defer conn.Close()
			from := addrOfConn(conn)
			for {
				conn.SetReadDeadline(time.Now().Add(l.readTimeout))
				msg, err := ReadFrame(conn)
				if err != nil {
					return
				}
				if err := WriteFrame(conn, l.server.Handle(msg, from)); err != nil {
					return
				}
			}
		}()
	}
}

// ReadFrame reads one length-prefixed message from a stream.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxTCPMessage {
		return nil, fmt.Errorf("kdc: bad frame length %d", n)
	}
	msg := make([]byte, n)
	if _, err := io.ReadFull(r, msg); err != nil {
		return nil, err
	}
	return msg, nil
}

// WriteFrame writes one length-prefixed message to a stream.
func WriteFrame(w io.Writer, msg []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(msg)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(msg)
	return err
}

// Client-side exchange. UDP is datagram-shaped and lossy: one lost
// packet must cost a retransmission interval, not the caller's whole
// budget. The exchange therefore retransmits with exponential backoff
// and jitter inside the caller's deadline, returns the first reply that
// passes the caller's acceptance check (skipping stale or garbled
// datagrams, including duplicates provoked by its own retransmissions
// and late answers to earlier requests), and falls back to TCP when the
// server signals that the answer exceeds a datagram. An ERROR is not
// sealed, so no check can match it to a request: it is returned as it
// arrives, except that an ErrRepeat is held back as non-final.

// UDPDial opens the client side of a datagram exchange. Overridable so
// tests can interpose fault injection (see FaultInjector).
type UDPDial func(addr string) (net.Conn, error)

// TCPDial opens the client side of a stream exchange, bounded by the
// exchange deadline.
type TCPDial func(addr string, deadline time.Time) (net.Conn, error)

func defaultDialUDP(addr string) (net.Conn, error) { return net.Dial("udp4", addr) }

func defaultDialTCP(addr string, deadline time.Time) (net.Conn, error) {
	return net.DialTimeout("tcp4", addr, time.Until(deadline))
}

// Retransmission tunables (variables so tests can tighten them).
var (
	// udpRetryBase is the wait before the first retransmission; each
	// further retransmission doubles it, up to udpRetryMax.
	udpRetryBase = 120 * time.Millisecond
	udpRetryMax  = 1500 * time.Millisecond
)

// jitter spreads a wait over [d/2, d] so a fleet of clients recovering
// from the same outage does not retransmit in lockstep.
func jitter(d time.Duration) time.Duration {
	half := int64(d / 2)
	if half <= 0 {
		return d
	}
	return time.Duration(half + rand.Int63n(half+1))
}

// isAuthReply reports whether reply is a well-versioned AUTH_REPLY.
func isAuthReply(reply []byte) bool {
	t, err := core.PeekType(reply)
	return err == nil && t == core.MsgAuthReply
}

// IsReplyTooBig reports whether reply is the server's explicit
// "response too big, use TCP" signal.
func IsReplyTooBig(reply []byte) bool {
	var pe *core.ProtocolError
	return errors.As(core.IfErrorMessage(reply), &pe) && pe.Code == core.ErrReplyTooBig
}

// isRepeatError reports whether reply is the server's duplicate
// suppression (ErrRepeat).
func isRepeatError(reply []byte) bool {
	var pe *core.ProtocolError
	return errors.As(core.IfErrorMessage(reply), &pe) && pe.Code == core.ErrRepeat
}

// udpExchange runs the datagram half of one exchange with addr.
type udpExchange func(addr string, req []byte, accept func(reply []byte) error, deadline time.Time) ([]byte, error)

// dialEach is the datagram half over a socket dialed for the exchange
// and closed after it.
func dialEach(dial UDPDial) udpExchange {
	return func(addr string, req []byte, accept func([]byte) error, deadline time.Time) ([]byte, error) {
		return exchangeUDP(dial, addr, req, accept, deadline)
	}
}

// exchangeDeadline sends one request to addr: UDP with retransmission
// first, switching to TCP when the request is too large for a datagram,
// when the server signals an oversized reply, or when the datagram path
// fails with budget still remaining. It returns an ERROR message or a
// reply that accept took.
//
//kerb:clockadapter -- retry/backoff pacing against a wall-clock I/O deadline
func exchangeDeadline(udp udpExchange, dialTCP TCPDial, addr string, req []byte, accept func([]byte) error, deadline time.Time) ([]byte, error) {
	if len(req) <= MaxUDPMessage {
		reply, err := udp(addr, req, accept, deadline)
		switch {
		case err == nil && !IsReplyTooBig(reply):
			return reply, nil
		case err == nil:
			// The server told us the answer cannot travel as a datagram:
			// switch transports immediately instead of timing out.
		case !time.Now().Before(deadline):
			return nil, err
		}
	}
	reply, err := exchangeTCPDeadline(dialTCP, addr, req, deadline)
	if err != nil {
		return nil, err
	}
	// A stream carries no stale copies to skip: whatever is not an
	// ERROR must pass the check now.
	if t, _ := core.PeekType(reply); t != core.MsgError {
		if err := accept(reply); err != nil {
			return nil, err
		}
	}
	return reply, nil
}

// exchangeUDP runs one datagram exchange on a socket dialed for it.
func exchangeUDP(dial UDPDial, addr string, req []byte, accept func([]byte) error, deadline time.Time) ([]byte, error) {
	conn, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	return udpRoundTrip(conn, make([]byte, MaxUDPMessage), addr, req, accept, deadline)
}

// udpRoundTrip runs one datagram exchange on a connected socket: send,
// wait, retransmit with backoff, until a reply arrives that accept
// takes, or an ERROR other than ErrRepeat, or the deadline passes.
// Datagrams that do not parse as KDC messages are skipped, and so is
// every AUTH_REPLY that accept refuses — a late answer to an earlier
// request on this socket or its port, a duplicate, a spoofed reply —
// exactly as if it had not arrived. When the deadline passes, a held
// ErrRepeat is returned as the reply; failing that, accept's last
// refusal is the error. buf receives the datagrams; the returned reply
// and the one accept sees are copies, so buf may be reused.
//
//kerb:clockadapter -- socket deadlines and retransmit pacing are wall-clock I/O timeouts
func udpRoundTrip(conn net.Conn, buf []byte, addr string, req []byte, accept func([]byte) error, deadline time.Time) ([]byte, error) {
	wait := udpRetryBase
	// repeatReply holds an ErrRepeat answer received mid-exchange. When
	// this request (or a network-duplicated copy of it) races its own
	// duplicate, the KDC's replay suppression can answer before the
	// genuine reply does; holding the error and retransmitting collects
	// the remembered original answer. Only if nothing better arrives by
	// the deadline does the replay error surface to the caller.
	var repeatReply []byte
	var refused error
	for time.Now().Before(deadline) {
		if _, err := conn.Write(req); err != nil {
			return nil, err
		}
		tryUntil := time.Now().Add(jitter(wait))
		if tryUntil.After(deadline) {
			tryUntil = deadline
		}
		for {
			conn.SetReadDeadline(tryUntil)
			n, err := conn.Read(buf)
			if err != nil {
				var ne net.Error
				if !(errors.As(err, &ne) && ne.Timeout()) {
					// Socket-level failure (e.g. ICMP port unreachable
					// surfacing as ECONNREFUSED): the KDC is down, not
					// slow. Fail fast so failover can start.
					return nil, err
				}
				break // this interval is spent; retransmit
			}
			switch t, _ := core.PeekType(buf[:n]); {
			case t == core.MsgAuthReply:
				reply := append([]byte(nil), buf[:n]...)
				if refused = accept(reply); refused == nil {
					return reply, nil
				}
			case t == core.MsgError && isRepeatError(buf[:n]):
				repeatReply = append([]byte(nil), buf[:n]...)
			case t == core.MsgError:
				return append([]byte(nil), buf[:n]...), nil
			}
			// A refused reply, or anything garbled or misdirected: keep
			// listening.
		}
		if wait < udpRetryMax {
			wait *= 2
		}
	}
	switch {
	case repeatReply != nil:
		return repeatReply, nil
	case refused != nil:
		return nil, refused
	}
	return nil, fmt.Errorf("kdc: no reply from %s within deadline", addr)
}

// exchangeTCP is the stream exchange with a duration budget (kept for
// callers and tests that address a single KDC directly).
//
//kerb:clockadapter -- converts a caller timeout into a wall-clock I/O deadline
func exchangeTCP(addr string, req []byte, timeout time.Duration) ([]byte, error) {
	return exchangeTCPDeadline(defaultDialTCP, addr, req, time.Now().Add(timeout))
}

//kerb:clockadapter -- socket deadlines are wall-clock I/O timeouts
func exchangeTCPDeadline(dial TCPDial, addr string, req []byte, deadline time.Time) ([]byte, error) {
	if !time.Now().Before(deadline) {
		return nil, fmt.Errorf("kdc: no budget left for TCP exchange with %s", addr)
	}
	conn, err := dial(addr, deadline)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	conn.SetDeadline(deadline)
	if err := WriteFrame(conn, req); err != nil {
		return nil, err
	}
	return ReadFrame(conn)
}

func addrOfConn(c net.Conn) core.Addr {
	if t, ok := c.RemoteAddr().(*net.TCPAddr); ok {
		return core.AddrFromIP(t.IP)
	}
	return core.Addr{}
}

package kdc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"kerberos/internal/core"
)

// Transport: the authentication protocols are datagram-shaped, so the
// primary listener is UDP (the historical kerberos port was 750/udp);
// a TCP listener with length-prefixed framing serves large messages and
// clients behind stream-only paths. Both feed the one request pipeline:
// TCP frames through Server.Handle, datagrams through Server.HandleBatch.
//
// The UDP path is a two-stage ring: one reader goroutine drains the
// socket into a fixed ring of packet slots, and one handler goroutine
// drains the ring in bursts through Server.HandleBatch, so a loaded
// socket naturally presents multi-request batches to the bitsliced
// crypto engine. The handler never waits for a burst to fill: batch
// width comes only from arrival concurrency, and a lone datagram is a
// batch of one, whose DES work the batch calls run scalar, so idle-load
// latency is that of a direct dispatch. Replies are written back, one
// sendto per datagram — portable stdlib I/O; without golang.org/x/sys
// there is no recvmmsg/sendmmsg, so the batching win here is in the
// crypto and the handoff, not in syscall count. If the handler falls
// behind and the ring fills, the reader serves datagrams inline through
// Server.Handle — the kernel socket buffer, not an unbounded queue, is
// the backpressure.
// TCP connections are capped by a semaphore and every read carries a
// deadline, so a stalled or hostile client can neither pin a goroutine
// forever nor exhaust the server's slot budget.

// MaxUDPMessage bounds a datagram request/reply.
const MaxUDPMessage = 8192

// maxTCPMessage bounds a framed stream message.
const maxTCPMessage = 1 << 20

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
	// maxUDPBatch caps how many ring slots one HandleBatch call drains;
	// des batches beyond 64 lanes split into multiple passes anyway, and
	// a bounded drain keeps first-reply latency flat under floods.
	maxUDPBatch = 64
)

// udpRingSize is the slot count of the reader→handler ring (a power of
// two). 256 slots of MaxUDPMessage is 2 MiB of packet buffers, owned
// for the listener's lifetime.
const (
	udpRingSize = 256
	udpRingMask = udpRingSize - 1
)

// udpSlot is one ring entry: a received datagram and where it came from.
type udpSlot struct {
	n    int
	from *net.UDPAddr
	buf  [MaxUDPMessage]byte
}

// udpRing is the single-producer single-consumer queue between the
// socket reader and the batch handler. The reader owns head, the
// handler owns tail; both are plain atomics, so neither side ever takes
// a lock. Slot contents are published by the head store and released by
// the tail store.
type udpRing struct {
	head  atomic.Uint64
	tail  atomic.Uint64
	slots [udpRingSize]udpSlot
}

// udpOverflowReply is the pre-encoded "response too big, use TCP" error
// the UDP path sends in place of a reply that exceeds maxUDPReply.
var udpOverflowReply = (&core.ErrorMessage{
	Code: core.ErrReplyTooBig,
	Text: "reply exceeds the UDP limit, retry over TCP",
}).Encode()

// Listener runs a Server on real sockets.
type Listener struct {
	server *Server

	udp     *net.UDPConn
	tcp     net.Listener
	ring    *udpRing
	udpWake chan struct{} // cap 1; reader nudges, closes on exit

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
	ctx, cancel := context.WithCancel(context.Background())
	l := &Listener{
		server:      server,
		udp:         udp,
		tcp:         tcp,
		ring:        new(udpRing),
		udpWake:     make(chan struct{}, 1),
		tcpSem:      make(chan struct{}, maxTCPConns),
		readTimeout: tcpReadTimeout,
		ctx:         ctx,
		cancel:      cancel,
	}
	l.wg.Add(3)
	go l.udpReader()
	go l.udpHandler()
	go l.serveTCP()
	return l, nil
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

// udpReader is the ring's single producer: it reads each datagram
// directly into the next free slot's buffer — no copy between the
// socket and the batch — publishes it with the head store, and nudges
// the handler. When the ring is full the handler is saturated, so the
// reader serves the datagram inline through Handle instead of dropping
// it or queueing without bound; while it does, the kernel socket buffer
// absorbs the burst.
func (l *Listener) udpReader() {
	defer l.wg.Done()
	defer close(l.udpWake)
	spare := make([]byte, MaxUDPMessage)
	for {
		h := l.ring.head.Load()
		if h-l.ring.tail.Load() < udpRingSize {
			slot := &l.ring.slots[h&udpRingMask]
			n, from, err := l.udp.ReadFromUDP(slot.buf[:])
			if err != nil {
				if l.ctx.Err() != nil {
					return
				}
				continue
			}
			slot.n, slot.from = n, from
			l.ring.head.Store(h + 1)
			select {
			case l.udpWake <- struct{}{}:
			default:
			}
			continue
		}
		n, from, err := l.udp.ReadFromUDP(spare)
		if err != nil {
			if l.ctx.Err() != nil {
				return
			}
			continue
		}
		l.writeUDPReply(l.server.Handle(spare[:n], addrOf(from.IP)), from)
	}
}

// udpHandler is the ring's single consumer: it drains whatever burst
// has accumulated — up to maxUDPBatch slots — into one HandleBatch
// call, writes the replies back, and releases the slots. Batch width is
// set by arrival concurrency alone; the ring depth at each drain is
// observed so the operator can see how wide the bursts actually run.
func (l *Listener) udpHandler() {
	defer l.wg.Done()
	batch := make([]BatchRequest, maxUDPBatch)
	for {
		t := l.ring.tail.Load()
		avail := l.ring.head.Load() - t
		if avail == 0 {
			if _, ok := <-l.udpWake; !ok && l.ring.head.Load() == t {
				return // reader gone and ring drained
			}
			continue
		}
		l.server.metrics.GatherOccupancy.Observe(int64(avail))
		n := int(avail)
		if n > maxUDPBatch {
			n = maxUDPBatch
		}
		for i := 0; i < n; i++ {
			slot := &l.ring.slots[(t+uint64(i))&udpRingMask]
			batch[i] = BatchRequest{Msg: slot.buf[:slot.n], From: addrOf(slot.from.IP)}
		}
		l.server.HandleBatch(batch[:n])
		for i := 0; i < n; i++ {
			slot := &l.ring.slots[(t+uint64(i))&udpRingMask]
			l.writeUDPReply(batch[i].Reply, slot.from)
			batch[i] = BatchRequest{} // drop buffer references before release
		}
		l.ring.tail.Store(t + uint64(n))
	}
}

// writeUDPReply sends one reply datagram, applying the shared rules:
// never emit an empty datagram (a zero-length UDP write is delivered
// and would confuse the client's read loop into parsing an empty
// message), and replace an answer that cannot travel as a datagram with
// the explicit "retry over TCP" signal — historically the reply was
// silently dropped and the client burned its whole timeout.
func (l *Listener) writeUDPReply(reply []byte, to *net.UDPAddr) {
	if len(reply) == 0 {
		return
	}
	if len(reply) > maxUDPReply {
		l.server.metrics.UDPOverflows.Inc()
		reply = udpOverflowReply
	}
	l.udp.WriteToUDP(reply, to)
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
// and jitter inside the caller's deadline, accepts the first valid KDC
// reply (ignoring stale or garbled datagrams, including duplicates
// provoked by its own retransmissions), and falls back to TCP when the
// server signals that the answer exceeds a datagram.

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

// validKDCReply reports whether a datagram parses as something a KDC
// sends: a well-versioned AUTH_REPLY or ERROR. Anything else is a stale
// or misdirected datagram and is ignored by the read loop.
func validKDCReply(reply []byte) bool {
	t, err := core.PeekType(reply)
	return err == nil && (t == core.MsgAuthReply || t == core.MsgError)
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

// Exchange sends one request to a KDC address and returns the reply:
// UDP with retransmission first, switching to TCP when the request is
// too large for a datagram, when the server signals an oversized reply,
// or when the datagram path fails with budget still remaining.
//
//kerb:clockadapter -- converts a caller timeout into a wall-clock I/O deadline
func Exchange(addr string, req []byte, timeout time.Duration) ([]byte, error) {
	return exchangeDeadline(defaultDialUDP, defaultDialTCP, addr, req, time.Now().Add(timeout))
}

//kerb:clockadapter -- retry/backoff pacing against a wall-clock I/O deadline
func exchangeDeadline(dialUDP UDPDial, dialTCP TCPDial, addr string, req []byte, deadline time.Time) ([]byte, error) {
	if len(req) <= MaxUDPMessage {
		reply, err := exchangeUDP(dialUDP, addr, req, deadline)
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
	return exchangeTCPDeadline(dialTCP, addr, req, deadline)
}

// exchangeUDP runs one datagram exchange: send, wait, retransmit with
// backoff, until a valid reply arrives or the deadline passes. Replies
// that do not parse as KDC messages — stragglers from earlier
// retransmissions, misdirected or corrupted datagrams — are skipped
// rather than surfaced as errors.
//
//kerb:clockadapter -- socket deadlines and retransmit pacing are wall-clock I/O timeouts
func exchangeUDP(dial UDPDial, addr string, req []byte, deadline time.Time) ([]byte, error) {
	conn, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	buf := make([]byte, MaxUDPMessage)
	wait := udpRetryBase
	// repeatReply holds an ErrRepeat answer received mid-exchange. When
	// this request (or a network-duplicated copy of it) races its own
	// duplicate, the KDC's replay suppression can answer before the
	// genuine reply does; holding the error and retransmitting collects
	// the remembered original answer. Only if nothing better arrives by
	// the deadline does the replay error surface to the caller.
	var repeatReply []byte
	for {
		if !time.Now().Before(deadline) {
			if repeatReply != nil {
				return repeatReply, nil
			}
			return nil, fmt.Errorf("kdc: no reply from %s within deadline", addr)
		}
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
				if !time.Now().Before(deadline) {
					if repeatReply != nil {
						return repeatReply, nil
					}
					return nil, fmt.Errorf("kdc: no reply from %s within deadline: %w", addr, err)
				}
				break // this interval is spent; retransmit
			}
			reply := buf[:n:n]
			if !validKDCReply(reply) {
				continue // stale or garbled datagram; keep listening
			}
			if isRepeatError(reply) {
				repeatReply = append([]byte(nil), reply...)
				continue
			}
			return reply, nil
		}
		if wait < udpRetryMax {
			wait *= 2
		}
	}
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

// ExchangeAny asks a realm's KDCs until one answers — the availability
// mechanism of §5.3: "If the master machine is down, authentication can
// still be achieved on one of the slave machines." It is a stateless
// convenience over Selector; callers doing repeated exchanges should
// hold a Selector so the last-responsive KDC is remembered.
func ExchangeAny(addrs []string, req []byte, timeout time.Duration) ([]byte, error) {
	return NewSelector(addrs...).Exchange(req, timeout)
}

func addrOf(ip net.IP) core.Addr { return core.AddrFromIP(ip) }

func addrOfConn(c net.Conn) core.Addr {
	if t, ok := c.RemoteAddr().(*net.TCPAddr); ok {
		return addrOf(t.IP)
	}
	return core.Addr{}
}

// Package zephyr is a small reproduction of the Zephyr notification
// system of §7.1: "A message delivery program, called Zephyr, has been
// recently developed at Athena, and it uses Kerberos for authentication
// as well." Senders and subscribers authenticate with Kerberos; notices
// carry the sender's authenticated identity, so a notice from
// "jis@ATHENA.MIT.EDU" really came from jis.
package zephyr

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"kerberos/internal/client"
	"kerberos/internal/core"
	"kerberos/internal/kdc"
	"kerberos/internal/wire"
)

// Notice is one delivered notification.
type Notice struct {
	From string // authenticated sender principal
	To   string // recipient username
	Body string
}

func encodeNotice(n Notice) []byte {
	var w wire.Writer
	w.Str(n.From)
	w.Str(n.To)
	w.Str(n.Body)
	return w.Buf
}

func decodeNotice(data []byte) (Notice, error) {
	r := wire.NewReader(data)
	n := Notice{From: r.Str(), To: r.Str(), Body: r.Str()}
	if err := r.Done(); err != nil {
		return Notice{}, err
	}
	return n, nil
}

// Server is the zephyr hub: it verifies every client, records
// subscriptions by authenticated name, and routes notices.
type Server struct {
	Svc *client.Service // zephyr.<host> identity

	mu   sync.Mutex
	subs map[string][]chan Notice
}

// NewServer creates a hub.
func NewServer(svc *client.Service) *Server {
	return &Server{Svc: svc, subs: make(map[string][]chan Notice)}
}

func (s *Server) subscribe(user string) chan Notice {
	ch := make(chan Notice, 16)
	s.mu.Lock()
	s.subs[user] = append(s.subs[user], ch)
	s.mu.Unlock()
	return ch
}

// unsubscribe removes and closes a subscription channel. It is
// idempotent: the channel is only closed if it was still registered, and
// routing sends under the same lock, so no send can race the close.
func (s *Server) unsubscribe(user string, ch chan Notice) {
	s.mu.Lock()
	defer s.mu.Unlock()
	list := s.subs[user]
	for i, c := range list {
		if c == ch {
			s.subs[user] = append(list[:i:i], list[i+1:]...)
			close(ch)
			return
		}
	}
}

// route delivers a notice to every live subscription of the recipient,
// returning how many got it.
func (s *Server) route(n Notice) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	delivered := 0
	for _, ch := range s.subs[n.To] {
		select {
		case ch <- n:
			delivered++
		default: // subscriber too slow; drop, as a notice service does
		}
	}
	return delivered
}

// HandleConn authenticates a client and then serves either one SEND or a
// long-lived SUB stream, chosen by the first safe message.
func (s *Server) HandleConn(conn net.Conn) {
	defer conn.Close()
	from := core.Addr{}
	if t, ok := conn.RemoteAddr().(*net.TCPAddr); ok {
		from = core.AddrFromIP(t.IP)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	apReq, err := kdc.ReadFrame(conn)
	if err != nil {
		return
	}
	sess, err := s.Svc.ReadRequest(apReq, from)
	if err != nil {
		kdc.WriteFrame(conn, (&core.ErrorMessage{
			Code: core.ErrNotAuthenticated, Text: err.Error()}).Encode())
		return
	}
	if len(sess.Reply) != 0 {
		if err := kdc.WriteFrame(conn, sess.Reply); err != nil {
			return
		}
	}
	frame, err := kdc.ReadFrame(conn)
	if err != nil {
		return
	}
	cmd, err := sess.RdPriv(frame)
	if err != nil {
		return
	}
	r := wire.NewReader(cmd)
	switch r.Str() {
	case "SEND":
		to := r.Str()
		body := r.Str()
		if r.Done() != nil {
			return
		}
		// The From field is the *authenticated* identity — a client
		// cannot send as someone else.
		n := Notice{From: sess.Client.String(), To: to, Body: body}
		delivered := s.route(n)
		kdc.WriteFrame(conn, sess.MkSafe([]byte(fmt.Sprintf("DELIVERED %d", delivered))))

	case "SUB":
		if r.Done() != nil {
			return
		}
		user := sess.Client.Name
		ch := s.subscribe(user)
		defer s.unsubscribe(user, ch)
		kdc.WriteFrame(conn, sess.MkSafe([]byte("SUBSCRIBED")))
		conn.SetDeadline(time.Time{}) // stream until the client goes away
		// Watch for the client hanging up: subscribers send nothing
		// after the handshake, so any read completion means disconnect.
		gone := make(chan struct{})
		go func() {
			defer close(gone)
			buf := make([]byte, 1)
			for {
				if _, err := conn.Read(buf); err != nil {
					return
				}
			}
		}()
		for {
			select {
			case n, ok := <-ch:
				if !ok {
					return
				}
				if err := kdc.WriteFrame(conn, sess.MkSafe(encodeNotice(n))); err != nil {
					return
				}
			case <-gone:
				return
			}
		}
	}
}

// Listener serves the hub over TCP.
type Listener struct {
	tcp    net.Listener
	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc
}

// Serve binds the hub on addr.
func Serve(s *Server, addr string) (*Listener, error) {
	tcp, err := net.Listen("tcp4", addr)
	if err != nil {
		return nil, fmt.Errorf("zephyr: binding: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	l := &Listener{tcp: tcp, ctx: ctx, cancel: cancel}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		for {
			conn, err := tcp.Accept()
			if err != nil {
				if ctx.Err() != nil {
					return
				}
				continue
			}
			l.wg.Add(1)
			go func() {
				defer l.wg.Done()
				// Close ends every handler: closing its connection
				// unblocks the handshake reads and ends a SUB stream,
				// which otherwise lasts until its client hangs up.
				stop := context.AfterFunc(ctx, func() { conn.Close() })
				defer stop()
				s.HandleConn(conn)
			}()
		}
	}()
	return l, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.tcp.Addr().String() }

// Close stops the listener, ends every connection it serves (live
// subscriptions included) and waits for their handlers to return.
func (l *Listener) Close() error {
	l.cancel()
	l.tcp.Close()
	l.wg.Wait()
	return nil
}

// connect authenticates and sends the initial private command.
func connect(krb *client.Client, addr string, service core.Principal, cmd []byte) (net.Conn, *client.AppSession, error) {
	apReq, sess, err := krb.MkReq(service, 0, true)
	if err != nil {
		return nil, nil, err
	}
	conn, err := net.DialTimeout("tcp4", addr, 5*time.Second)
	if err != nil {
		return nil, nil, err
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := kdc.WriteFrame(conn, apReq); err != nil {
		conn.Close()
		return nil, nil, err
	}
	reply, err := kdc.ReadFrame(conn)
	if err != nil {
		conn.Close()
		return nil, nil, err
	}
	if e := core.IfErrorMessage(reply); e != nil {
		conn.Close()
		return nil, nil, e
	}
	if err := sess.VerifyReply(reply); err != nil {
		conn.Close()
		return nil, nil, err
	}
	if err := kdc.WriteFrame(conn, sess.MkPriv(cmd)); err != nil {
		conn.Close()
		return nil, nil, err
	}
	return conn, sess, nil
}

// Send delivers one notice, returning how many subscribers received it.
func Send(krb *client.Client, addr string, service core.Principal, to, body string) (int, error) {
	var w wire.Writer
	w.Str("SEND")
	w.Str(to)
	w.Str(body)
	conn, sess, err := connect(krb, addr, service, w.Buf)
	if err != nil {
		return 0, fmt.Errorf("zephyr: send: %w", err)
	}
	defer conn.Close()
	frame, err := kdc.ReadFrame(conn)
	if err != nil {
		return 0, err
	}
	reply, err := sess.RdSafe(frame, core.Addr{})
	if err != nil {
		return 0, err
	}
	var n int
	if _, err := fmt.Sscanf(string(reply), "DELIVERED %d", &n); err != nil {
		return 0, fmt.Errorf("zephyr: unexpected reply %q", reply)
	}
	return n, nil
}

// Subscription is a live notice stream.
type Subscription struct {
	Notices <-chan Notice
	conn    net.Conn
	closed  chan struct{} // closed by Close; releases a blocked reader
	done    chan struct{} // closed when the reader goroutine exits
	once    sync.Once
}

// Close terminates the stream and returns once its reader goroutine has
// exited, even if the caller stopped draining Notices.
func (s *Subscription) Close() error {
	s.once.Do(func() { close(s.closed) })
	err := s.conn.Close()
	<-s.done
	return err
}

// Subscribe opens an authenticated notice stream for the user.
func Subscribe(krb *client.Client, addr string, service core.Principal) (*Subscription, error) {
	var w wire.Writer
	w.Str("SUB")
	conn, sess, err := connect(krb, addr, service, w.Buf)
	if err != nil {
		return nil, fmt.Errorf("zephyr: subscribe: %w", err)
	}
	frame, err := kdc.ReadFrame(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if ack, err := sess.RdSafe(frame, core.Addr{}); err != nil || string(ack) != "SUBSCRIBED" {
		conn.Close()
		return nil, fmt.Errorf("zephyr: subscription not acknowledged: %v", err)
	}
	ch := make(chan Notice, 16)
	closed, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		defer close(ch)
		conn.SetDeadline(time.Time{})
		for {
			frame, err := kdc.ReadFrame(conn)
			if err != nil {
				return
			}
			data, err := sess.RdSafe(frame, core.Addr{})
			if err != nil {
				return
			}
			n, err := decodeNotice(data)
			if err != nil {
				return
			}
			select {
			case ch <- n:
			case <-closed:
				return
			}
		}
	}()
	return &Subscription{Notices: ch, conn: conn, closed: closed, done: done}, nil
}

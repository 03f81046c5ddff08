package main

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"kerberos/internal/client"
	"kerberos/internal/core"
	"kerberos/internal/kadm"
)

// A workload is a realm shape, an amount of warm-up work, and closed-loop
// generators that run until the window closes.
type workload struct {
	name   string
	spec   realmSpec
	warmup int64
	// heapAt is the count of measured ops after which heap_live_mb is
	// read: about a fifth of what a 10 s window completes on two cores,
	// so a workload has to slow down fivefold before the read falls back
	// to the window's end.
	heapAt  int64
	workers int
	// prepare runs once after the realm is up, before the generators
	// (set-up work such as tgs_flood's logins).
	prepare func(ctx context.Context, b *bench) error
	gen     func(ctx context.Context, b *bench, w *worker)
}

// worker is one generator goroutine's state.
type worker struct {
	id    int
	log   opLog
	spans *spanBuf // recording buffer; used only in the traced phase
	exch  exchStats
	plain *client.Config
	timed *client.Config // same KDC through the timing conn
}

// config picks the client configuration and span buffer for an op that
// starts in the given phase.
func (w *worker) config(phase int) (*client.Config, *spanBuf) {
	if phase == phaseTraced {
		return w.timed, w.spans
	}
	return w.plain, nil
}

// bench is one run: the realm, the window and the generators' results.
type bench struct {
	cfg     runConfig
	t0      time.Time // set-up started
	realm   *realm
	win     *window
	workers []*worker
	gens    chan struct{} // closed once every generator has returned
	next    atomic.Int64  // next index into the realm's user permutation

	mu       sync.Mutex
	propLags []float64       // kpasswd_prop: master ack → slave login, ms
	rounds   [slices + 2]int // kpasswd_prop rounds finished, by slice
	roundErr [slices + 2]int
	tgts     []userTGT // tgs_flood: every drawable user's TGT, in draw order
	firstErr error

	probeTGTs []userTGT
}

// draw returns the next user from the seeded permutation.
func (b *bench) draw() (int, error) {
	k := int(b.next.Add(1) - 1)
	if k >= b.realm.drawable() {
		return 0, fmt.Errorf("realm exhausted after %d users", k)
	}
	return int(b.realm.perm[k]), nil
}

var workloads = []*workload{
	{
		name:    "login_storm",
		spec:    realmSpec{Users: 1_000_000, Reserve: 1024, Services: 65, Shards: 8},
		warmup:  256,
		heapAt:  12_000,
		workers: 2,
		gen:     loginStorm,
	},
	{
		name:    "tgs_flood",
		spec:    realmSpec{Users: 5000 + 1024, Reserve: 1024, Services: 65, Shards: 1, SlaveFull: true},
		warmup:  4096,
		heapAt:  90_000,
		workers: 2,
		prepare: floodLogins,
		gen:     tgsFlood,
	},
	{
		name:    "kpasswd_prop",
		spec:    realmSpec{Users: 100_000, Reserve: 1024, Services: 65, Shards: 1, SlaveFull: true},
		warmup:  1, // one round of changes and its propagation
		heapAt:  4000,
		workers: 1,
		gen:     kpasswdProp,
	},
}

// serviceFor picks the seeded service index for op k's slot j.
func (r *realm) serviceFor(k uint64, j int) int {
	return int(splitmix64(r.seed^k<<8^uint64(j)) % uint64(len(r.services)))
}

// loginStorm: one op is a §9 morning session — Login, two service
// tickets, and a mutual AP exchange with each service — for a user the
// KDC has never looked up.
func loginStorm(ctx context.Context, b *bench, w *worker) {
	for ctx.Err() == nil {
		slice := b.win.current()
		if b.win.phaseOf(slice) == phaseDone {
			return
		}
		cfg, sp := w.config(b.win.phaseOf(slice))
		i, err := b.draw()
		if err != nil {
			w.log.add(slice, opTimeout, err)
			return
		}
		start := time.Now()
		root := sp.startOp(int64(i))
		err = session(b.realm, i, cfg, sp, uint32(i))
		sp.end(root)
		w.log.add(b.win.current(), time.Since(start), err)
		b.win.opDone()
		b.win.advance()
	}
}

// session runs one user session and verifies every step's output. The
// client library itself checks that each KDC reply opens under the
// expected key and echoes the request time; session checks the rest.
func session(r *realm, i int, cfg *client.Config, sp *spanBuf, cksum uint32) error {
	c := r.newClient(i, cfg)
	id := sp.begin("client.login")
	tgt, err := c.Login(r.password(i))
	sp.end(id)
	if err != nil {
		return fmt.Errorf("login %s: %w", c.Principal, err)
	}
	if !tgt.Service.SameEntity(core.TGSPrincipal(realmName, realmName)) {
		return fmt.Errorf("login %s: ticket for %v: %w", c.Principal, tgt.Service, errVerify)
	}
	j0 := r.serviceFor(uint64(i), 0)
	js := [2]int{j0, (j0 + 1 + r.serviceFor(uint64(i), 1)%(len(r.services)-1)) % len(r.services)}
	for _, j := range js {
		id := sp.begin("client.tgs")
		cred, err := c.GetCredentials(r.services[j])
		sp.end(id)
		if err != nil {
			return fmt.Errorf("tgs %s for %v: %w", c.Principal, r.services[j], err)
		}
		if !cred.Service.SameEntity(r.services[j]) {
			return fmt.Errorf("tgs %s: ticket for %v: %w", c.Principal, cred.Service, errVerify)
		}
	}
	for _, j := range js {
		id := sp.begin("client.ap")
		err := apExchange(c, r.services[j], r.appServices[j], cksum)
		sp.end(id)
		if err != nil {
			return err
		}
	}
	return nil
}

// apExchange is krb_mk_req → krb_rd_req → the mutual reply's check.
func apExchange(c *client.Client, svc core.Principal, verifier *client.Service, cksum uint32) error {
	msg, sess, err := c.MkReq(svc, cksum, true)
	if err != nil {
		return fmt.Errorf("mk_req %s → %v: %w", c.Principal, svc, err)
	}
	ss, err := verifier.ReadRequest(msg, loopback)
	if err != nil {
		return fmt.Errorf("rd_req %s → %v: %w", c.Principal, svc, err)
	}
	if !ss.Client.SameEntity(c.Principal) || ss.Checksum != cksum || !ss.MutualAuth {
		return fmt.Errorf("rd_req %s → %v: %w", c.Principal, svc, errVerify)
	}
	if err := sess.VerifyReply(ss.Reply); err != nil {
		return fmt.Errorf("mutual auth %s ← %v: %w", c.Principal, svc, err)
	}
	return nil
}

// floodLogins logs every drawable user in (set-up for tgs_flood), keeping
// each TGT.
func floodLogins(ctx context.Context, b *bench) error {
	r := b.realm
	n := r.drawable()
	b.tgts = make([]userTGT, n)
	errs := make([]error, n)
	cfg := clientConfig(r.kdcL.Addr(), nil)
	parallel(n, func(lo, hi int) {
		for k := lo; k < hi && ctx.Err() == nil; k++ {
			i := int(r.perm[k])
			c := r.newClient(i, cfg)
			b.tgts[k].user = c.Principal
			b.tgts[k].cred, errs[k] = c.Login(r.password(i))
		}
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("tgs_flood set-up login: %w", err)
		}
	}
	return nil
}

// floodDepth is how many TGS requests each flood socket keeps in flight.
const floodDepth = 32

// flight is one outstanding flood request.
type flight struct {
	k       int // user slot in b.tgts
	svc     int
	rtime   core.KerberosTime
	op      int64
	t0      time.Time // request build started
	built   time.Time // encoded
	sent    time.Time // written to the socket
	recv    time.Time // reply read
	decoded time.Time // reply decoded
	slice   int       // when the request was built
}

// sweepEvery is how often tgsFlood looks for requests past opTimeout
// while replies keep arriving.
const sweepEvery = 10 * time.Millisecond

// tgsFlood drives one UDP socket with floodDepth TGS requests in flight,
// each with a fresh authenticator carrying a distinct checksum. Every
// reply is opened with its TGT's session key and its time echo and
// service are checked. Worker w uses the users k ≡ w (mod workers), so
// no two requests in flight on one socket share a client.
//
// A request with no valid reply within opTimeout — dropped, or answered
// with an error — fails, and its slot gets a fresh request. When the
// window closes no new request is sent; the ones still out are awaited,
// and any of them that fails counts against the last slice.
func tgsFlood(ctx context.Context, b *bench, w *worker) {
	r := b.realm
	conn, err := net.Dial("udp4", r.kdcL.Addr())
	if err != nil {
		w.log.add(b.win.current(), opTimeout, err)
		return
	}
	defer conn.Close()
	var users []int
	for k := w.id; k < len(b.tgts); k += len(b.workers) {
		users = append(users, k)
	}
	pending := make(map[string]*flight, floodDepth)
	cursor, seq := 0, uint64(0)
	send := func() {
		k := users[cursor%len(users)]
		cursor++
		seq++
		f := &flight{k: k, svc: r.serviceFor(seq<<1|uint64(w.id), 0), op: int64(seq)<<1 | int64(w.id), slice: b.win.current()}
		f.t0 = time.Now()
		req := r.tgsRequest(b.tgts[k], f.svc, uint32(seq<<1)|uint32(w.id), f.t0)
		msg := req.Encode()
		f.rtime = req.Time
		f.built = time.Now()
		pending[b.tgts[k].user.Name] = f
		conn.Write(msg)
		f.sent = time.Now()
	}
	// finish records flight f's outcome. Once the window has closed
	// (draining), only a failure is recorded, against the last slice.
	finish := func(f *flight, err error, draining bool) {
		end := time.Now()
		slice := b.win.current()
		if draining {
			if err != nil {
				w.log.add(slices, end.Sub(f.t0), err)
			}
			return
		}
		w.log.add(slice, end.Sub(f.t0), err)
		if b.win.phaseOf(slice) == phaseTraced && b.win.phaseOf(f.slice) == phaseTraced && err == nil {
			// The children leave uncovered only the socket write.
			root := w.spans.add("op", -1, f.op, f.t0, end)
			w.spans.add("core.tgs_encode", root, f.op, f.t0, f.built)
			w.spans.add("kdc.rtt", root, f.op, f.sent, f.recv)
			w.spans.add("core.reply_decode", root, f.op, f.recv, f.decoded)
			w.spans.add("client.reply_open", root, f.op, f.decoded, end)
			w.exch.exchanges++
			w.exch.rttUS = append(w.exch.rttUS, float64(f.recv.Sub(f.sent).Nanoseconds())/1e3)
		}
		b.win.opDone()
		b.win.advance()
	}
	for i := 0; i < floodDepth; i++ {
		send()
	}
	buf := make([]byte, 8192)
	lastSweep := time.Now()
	for ctx.Err() == nil && len(pending) > 0 {
		draining := b.win.phaseOf(b.win.current()) == phaseDone
		conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
		n, err := conn.Read(buf)
		now := time.Now()
		if now.Sub(lastSweep) >= sweepEvery {
			lastSweep = now
			for name, f := range pending {
				if now.Sub(f.sent) > opTimeout {
					delete(pending, name)
					finish(f, fmt.Errorf("tgs_flood: no valid reply for %s within %v", name, opTimeout), draining)
					if !draining {
						send()
					}
				}
			}
		}
		if err != nil || core.IfErrorMessage(buf[:n]) != nil {
			// An error reply carries no client name: the request it
			// answers fails at its timeout, and kdc.errors fails the run.
			continue
		}
		rep, err := core.DecodeAuthReply(buf[:n])
		decoded := time.Now()
		if err != nil {
			continue
		}
		f, ok := pending[rep.Client.Name]
		if !ok {
			continue // a late reply to an expired request
		}
		delete(pending, rep.Client.Name)
		f.recv, f.decoded = now, decoded
		finish(f, verifyTGSReply(rep, b.tgts[f.k].cred, f.rtime, r.services[f.svc]), draining)
		if !draining {
			send()
		}
	}
}

// verifyTGSReply opens a TGS reply with the TGT session key and checks
// the time echo and the ticket's service.
func verifyTGSReply(rep *core.AuthReply, tgt *client.Credentials, rtime core.KerberosTime, svc core.Principal) error {
	enc, err := rep.Open(tgt.SessionKey)
	if err != nil {
		return fmt.Errorf("tgs reply for %s: %w", rep.Client, err)
	}
	if enc.RequestTime != rtime || !enc.Server.SameEntity(svc) {
		return fmt.Errorf("tgs reply for %s: echo %d/%v, want %d/%v: %w", rep.Client, enc.RequestTime, enc.Server, rtime, svc, errVerify)
	}
	return nil
}

// changesPerRound is how many password changes one kprop round carries.
const changesPerRound = 64

// kpasswdProp: one workstation runs kpasswd for distinct users; after
// every changesPerRound changes the master propagates one delta round to
// the slave, and the newest password is verified by a login at the
// slave's KDC.
func kpasswdProp(ctx context.Context, b *bench, w *worker) {
	r := b.realm
	slaveCfg := clientConfig(r.slaveKDCL.Addr(), nil)
	slaveTimed := clientConfig(r.slaveKDCL.Addr(), timedDialer(&w.exch, w.spans))
	for ctx.Err() == nil {
		var last int
		var lastAck time.Time
		for j := 0; j < changesPerRound; j++ {
			slice := b.win.current()
			if b.win.phaseOf(slice) == phaseDone || ctx.Err() != nil {
				return
			}
			cfg, sp := w.config(b.win.phaseOf(slice))
			i, err := b.draw()
			if err != nil {
				w.log.add(slice, opTimeout, err)
				return
			}
			start := time.Now()
			root := sp.startOp(int64(i))
			id := sp.begin("kadm.change")
			err = kadm.ChangePassword(r.newClient(i, cfg), r.kadmL.Addr(), r.password(i), r.newPassword(i))
			sp.end(id)
			sp.end(root)
			lastAck = time.Now()
			w.log.add(b.win.current(), lastAck.Sub(start), err)
			b.win.opDone()
			last = i
		}
		sp, cfg := (*spanBuf)(nil), slaveCfg
		if b.win.phaseOf(b.win.current()) == phaseTraced {
			sp, cfg = w.spans, slaveTimed
		}
		id := sp.begin("kprop.round")
		err := r.master.PropagateAll()
		sp.end(id)
		if err == nil {
			id = sp.begin("kprop.slave_login")
			_, err = r.newClient(last, cfg).Login(r.newPassword(last))
			sp.end(id)
		}
		lag := time.Since(lastAck)
		if slice := b.win.current(); slice >= 1 && slice <= slices {
			b.mu.Lock()
			b.rounds[slice]++
			if err != nil {
				b.roundErr[slice]++
			} else {
				b.propLags = append(b.propLags, float64(lag.Nanoseconds())/1e6)
			}
			b.mu.Unlock()
		}
		b.win.advance()
	}
}

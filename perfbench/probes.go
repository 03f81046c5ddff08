package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"kerberos/internal/client"
	"kerberos/internal/core"
	"kerberos/internal/des"
	"kerberos/internal/kadm"
	"kerberos/internal/kdb"
	"kerberos/internal/kdc"
	"kerberos/internal/replay"
)

// Probes run after the traced window, on inputs from the workload's own
// generator: the run's users and TGTs, and the realm's probe reserve —
// users no generator draws, so a cold probe meets a cold entry. Each
// probe calls one module's public function and verifies what it
// returns.

// Slices of the probe reserve, one per probe, so no probe warms
// another's entries.
const (
	resCold     = 0   // kdb cold GetRO / KeyCipher: 256
	resAS       = 256 // kdc AS Handle: 128
	resSessions = 384 // full client sessions: 64
	resSetKey   = 448 // kdb SetKey: 64
	resExecute  = 512 // kadm Execute: 32
	resChange   = 544 // kadm ChangePassword over TCP: 16
)

func (b *bench) noteFailure(err error) {
	b.mu.Lock()
	if b.firstErr == nil {
		b.firstErr = err
	}
	b.mu.Unlock()
}

// userTGT is a TGT together with the user it was issued to.
type userTGT struct {
	user core.Principal
	cred *client.Credentials
}

// tgsRequest builds a TGS request with a fresh authenticator; cksum
// keeps authenticators distinct when two land in the same microsecond.
func (r *realm) tgsRequest(t userTGT, svc int, cksum uint32, now time.Time) *core.TGSRequest {
	auth := core.NewAuthenticator(t.user, loopback, now, cksum)
	return &core.TGSRequest{
		APReq: core.APRequest{
			KVNO:          t.cred.KVNO,
			TicketRealm:   t.cred.TicketRealm,
			Ticket:        t.cred.Ticket,
			Authenticator: auth.Seal(t.cred.SessionKey),
		},
		Service: r.services[svc],
		Life:    core.MaxLife,
		Time:    core.TimeFromGo(now),
	}
}

// probe fills in the per-layer metrics that the window's counters and
// spans do not give. The first verification failure is returned.
func (b *bench) probe(ctx context.Context, vals map[string]float64) error {
	r := b.realm
	steps := []func(map[string]float64) error{
		b.probeKDB, b.probeSessions, b.probeKDC, b.probeCodec, b.probeReplay, b.probeWrites,
	}
	for _, step := range steps {
		if err := ctx.Err(); err != nil {
			return err
		}
		if err := step(vals); err != nil {
			return err
		}
	}
	// des: string-to-key on the run's users.
	vals["des.string_to_key_us"] = timeEach(256, func(k int) {
		i := int(r.perm[k%r.drawable()])
		client.PasswordKey(r.user(i), r.password(i))
	}) / 1e3
	// Transport is round trip minus handling, for the workload's mix of
	// exchanges: one AS to two TGS in a session, AS alone before a
	// kpasswd, and whole batches of TGS in a flood.
	handle := (vals["kdc.as_handle_us"] + 2*vals["kdc.tgs_handle_us"]) / 3
	switch b.cfg.workload {
	case "kpasswd_prop":
		handle = vals["kdc.as_handle_us"]
	case "tgs_flood":
		handle = vals["kdc.batch_handle_us_per_req"] * vals["kdc.batch_width_mean"]
	}
	vals["kdc.transport_us"] = vals["kdc.rtt_us"] - handle
	return nil
}

// probeKDB: a first GetRO and a first key unseal on untouched users, then
// GetRO again on principals the run has read.
func (b *bench) probeKDB(vals map[string]float64) error {
	r := b.realm
	entries := make([]*kdb.Entry, 256)
	vals["kdb.get_cold_ns"] = timeEach(len(entries), func(k int) {
		entries[k], _ = r.db.GetRO(userName(r.reserved(resCold+k)), "")
	})
	for k, e := range entries {
		if e == nil || e.Name != userName(r.reserved(resCold+k)) {
			return fmt.Errorf("probe: GetRO %s: %w", userName(r.reserved(resCold+k)), errVerify)
		}
	}
	vals["kdb.key_cold_ns"] = timeEach(len(entries), func(k int) { r.db.KeyCipher(entries[k]) })
	hot := b.touched()
	vals["kdb.get_hot_ns"] = timeLoop(21, 1000, func(k int) { r.db.GetRO(userName(int(r.perm[k%hot])), "") })
	return nil
}

// touched is how many users at the head of the permutation the run has
// used (at most 1024, at least 1): those the generators drew, or on
// tgs_flood those logged in during set-up.
func (b *bench) touched() int {
	n := max(int(b.next.Load()), len(b.tgts))
	return max(1, min(n, b.realm.drawable(), 1024))
}

// probeSessions runs full client sessions for reserve users and keeps
// their TGTs for the TGS probes. login_storm measures the client layers
// in its window; the other workloads take them from here.
func (b *bench) probeSessions(vals map[string]float64) error {
	r := b.realm
	var ex exchStats
	sp := newSpanBuf(time.Now(), 0)
	timed := clientConfig(r.kdcL.Addr(), timedDialer(&ex, sp))
	plain := clientConfig(r.kdcL.Addr(), nil)
	b.probeTGTs = make([]userTGT, 64)
	for k := range b.probeTGTs {
		i := r.reserved(resSessions + k)
		root := sp.startOp(int64(i))
		err := session(r, i, timed, sp, uint32(k))
		sp.end(root)
		if err != nil {
			return fmt.Errorf("probe session: %w", err)
		}
		c := r.newClient(i, plain)
		tgt, err := c.Login(r.password(i))
		if err != nil {
			return fmt.Errorf("probe login: %w", err)
		}
		b.probeTGTs[k] = userTGT{user: c.Principal, cred: tgt}
	}
	if b.cfg.workload != "login_storm" {
		ps := analyzeSpans([]*spanBuf{sp})
		vals["client.login_us"] = ps.median("client.login")
		vals["client.tgs_us"] = ps.median("client.tgs")
		vals["client.ap_us"] = ps.median("client.ap")
	}
	if vals["kdc.rtt_us"] == 0 {
		vals["kdc.rtt_us"] = quantile(ex.rttUS, 0.5)
	}
	return nil
}

// probeKDC: Handle on fresh AS requests for untouched users and on fresh
// TGS requests, then HandleBatch at the window's mean batch width.
func (b *bench) probeKDC(vals map[string]float64) error {
	r := b.realm
	tgs := core.TGSPrincipal(realmName, realmName)
	var verr error
	vals["kdc.as_handle_us"] = timeEach(128, func(k int) {
		i := r.reserved(resAS + k)
		req := &core.AuthRequest{Client: r.user(i), Service: tgs, Life: core.DefaultTGTLife, Time: core.TimeFromGo(time.Now())}
		reply := r.kdc.Handle(req.Encode(), loopback)
		if verr == nil {
			verr = verifyASReply(reply, client.PasswordKey(r.user(i), r.password(i)), req.Time)
		}
	}) / 1e3
	if verr != nil {
		return fmt.Errorf("probe AS Handle: %w", verr)
	}
	seq := uint32(1 << 31)
	var reqs []*core.TGSRequest
	var who []userTGT
	next := func() []byte {
		seq++
		t := b.probeTGTs[int(seq)%len(b.probeTGTs)]
		req := r.tgsRequest(t, r.serviceFor(uint64(seq), 0), seq, time.Now())
		reqs, who = append(reqs, req), append(who, t)
		return req.Encode()
	}
	check := func(reply []byte, k int) {
		if verr != nil {
			return
		}
		if verr = core.IfErrorMessage(reply); verr != nil {
			return
		}
		rep, err := core.DecodeAuthReply(reply)
		if err != nil {
			verr = err
			return
		}
		verr = verifyTGSReply(rep, who[k].cred, reqs[k].Time, reqs[k].Service)
	}
	msgs := make([][]byte, 256)
	for k := range msgs {
		msgs[k] = next()
	}
	vals["kdc.tgs_handle_us"] = timeEach(len(msgs), func(k int) {
		check(r.kdc.Handle(msgs[k], loopback), k)
	}) / 1e3
	if verr != nil {
		return fmt.Errorf("probe TGS Handle: %w", verr)
	}

	width := int(math.Round(vals["kdc.batch_width_mean"]))
	width = max(1, min(width, 64))
	rounds := 32
	batches := make([][]kdc.BatchRequest, rounds)
	for j := range batches {
		batches[j] = make([]kdc.BatchRequest, width)
		for k := range batches[j] {
			batches[j][k] = kdc.BatchRequest{Msg: next(), From: loopback}
		}
	}
	base := len(reqs) - rounds*width
	vals["kdc.batch_handle_us_per_req"] = timeEach(rounds, func(j int) {
		r.kdc.HandleBatch(batches[j])
	}) / 1e3 / float64(width)
	for j, batch := range batches {
		for k, br := range batch {
			check(br.Reply, base+j*width+k)
		}
	}
	if verr != nil {
		return fmt.Errorf("probe HandleBatch: %w", verr)
	}

	// des: batched seals at the same width and at width 1, one key per
	// lane as in a KDC batch.
	plain := make([]byte, 64)
	seal := func(w int) float64 {
		sreqs := make([]des.SealRequest, w)
		for k := range sreqs {
			sreqs[k] = des.SealRequest{Key: b.probeTGTs[k%len(b.probeTGTs)].cred.SessionKey, Plaintext: plain}
		}
		return timeLoop(21, max(1, 2048/w), func(int) { des.SealBatch(sreqs) }) / float64(w)
	}
	vals["des.seal_batch_ns_per_msg"] = seal(width)
	vals["des.seal_batch_w1_ns_per_msg"] = seal(1)
	return nil
}

// probeCodec: encoding a TGS request and decoding a KDC reply.
func (b *bench) probeCodec(vals map[string]float64) error {
	r := b.realm
	t := b.probeTGTs[0]
	req := r.tgsRequest(t, 0, 7, time.Now())
	vals["core.tgs_encode_ns"] = timeLoop(21, 2000, func(int) { req.Encode() })
	reply := r.kdc.Handle(req.Encode(), loopback)
	if _, err := core.DecodeAuthReply(reply); err != nil {
		return fmt.Errorf("probe reply decode: %w", err)
	}
	vals["core.reply_decode_ns"] = timeLoop(21, 2000, func(int) { core.DecodeAuthReply(reply) })
	return nil
}

// probeReplay: Seen on a fresh replay cache filled to the size the KDC's
// cache had at the end of the window.
func (b *bench) probeReplay(vals map[string]float64) error {
	n := min(max(int(vals["replay.len_end"]), 1024), 4<<20)
	c := replay.New()
	now := time.Now()
	auth := core.Authenticator{Client: b.realm.user(0), Addr: loopback, Time: core.TimeFromGo(now)}
	for k := 0; k < n; k++ {
		auth.MicroSec, auth.Checksum = uint32(k%1000000), uint32(k)
		c.Seen(&auth, now)
	}
	k := n
	var dup bool
	vals["replay.seen_ns"] = timeLoop(21, 2000, func(int) {
		auth.MicroSec, auth.Checksum = uint32(k%1000000), uint32(k)
		k++
		dup = dup || c.Seen(&auth, now)
	})
	if dup {
		return fmt.Errorf("probe replay: fresh authenticator reported seen: %w", errVerify)
	}
	return nil
}

// probeWrites: SetKey (journal append + fsync), kadm Execute, and — where
// the window had none — kadm over TCP and one kprop round verified by a
// login at the slave.
func (b *bench) probeWrites(vals map[string]float64) error {
	r := b.realm
	now := time.Now()
	var verr error
	vals["kdb.setkey_us"] = timeEach(64, func(k int) {
		i := r.reserved(resSetKey + k)
		if err := r.db.SetKey(userName(i), "", client.PasswordKey(r.user(i), r.newPassword(i)), "perfbench", now); err != nil && verr == nil {
			verr = err
		}
	}) / 1e3
	vals["kadm.execute_us"] = timeEach(32, func(k int) {
		i := r.reserved(resExecute + k)
		rep := r.kadm.Execute(r.user(i), &kadm.Request{Op: kadm.OpChangePassword, Name: userName(i),
			Key: client.PasswordKey(r.user(i), r.newPassword(i))})
		if !rep.OK && verr == nil {
			verr = rep.Err()
		}
	}) / 1e3
	if verr != nil {
		return fmt.Errorf("probe writes: %w", verr)
	}
	if b.cfg.workload == "kpasswd_prop" {
		return nil
	}
	cfg := clientConfig(r.kdcL.Addr(), nil)
	vals["kadm.change_us"] = timeEach(16, func(k int) {
		i := r.reserved(resChange + k)
		if err := kadm.ChangePassword(r.newClient(i, cfg), r.kadmL.Addr(), r.password(i), r.newPassword(i)); err != nil && verr == nil {
			verr = err
		}
	}) / 1e3
	if verr != nil {
		return fmt.Errorf("probe kpasswd: %w", verr)
	}
	lastAck := time.Now()
	before := r.reg.Counter("kprop_delta_bytes").Load()
	fulls := r.reg.Counter("kprop_full_rounds").Load()
	t := time.Now()
	if err := r.master.PropagateAll(); err != nil {
		return fmt.Errorf("probe kprop: %w", err)
	}
	vals["kprop.round_ms"] = float64(time.Since(t).Nanoseconds()) / 1e6
	if r.reg.Counter("kprop_full_rounds").Load() != fulls {
		return fmt.Errorf("probe kprop: round fell back to a full dump: %w", errVerify)
	}
	vals["kprop.bytes_per_change"] = float64(r.reg.Counter("kprop_delta_bytes").Load()-before) / (64 + 32 + 16)
	i := r.reserved(resChange + 15)
	t = time.Now()
	if _, err := r.newClient(i, clientConfig(r.slaveKDCL.Addr(), nil)).Login(r.newPassword(i)); err != nil {
		return fmt.Errorf("probe slave login: %w", err)
	}
	vals["kprop.slave_login_us"] = float64(time.Since(t).Nanoseconds()) / 1e3
	vals["prop_lag_ms"] = float64(time.Since(lastAck).Nanoseconds()) / 1e6
	return nil
}

// verifyASReply opens an AS reply with the client's key and checks the
// time echo.
func verifyASReply(raw []byte, key des.Key, rtime core.KerberosTime) error {
	if err := core.IfErrorMessage(raw); err != nil {
		return err
	}
	rep, err := core.DecodeAuthReply(raw)
	if err != nil {
		return err
	}
	enc, err := rep.Open(key)
	if err != nil {
		return err
	}
	if enc.RequestTime != rtime {
		return errVerify
	}
	return nil
}

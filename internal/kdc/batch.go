package kdc

import (
	"sync"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/des"
	"kerberos/internal/kdb"
	"kerberos/internal/obs"
	"kerberos/internal/replay"
)

// The KDC request pipeline. Every request — a lone TCP frame through
// Handle or a drained UDP burst through HandleBatch — runs the same
// staged logic, so each check, error, metric, log line and trace field
// is written once. The stages put every DES operation of the batch into
// a des.SealBatch or des.UnsealBatch call, one call per DES phase:
//
//	stage 1   decode + validate every request; TGS requests queue
//	          their TGT ciphertexts            → one UnsealBatch
//	stage 2   parse TGTs, queue authenticators → one UnsealBatch
//	stage 3   verify authenticators, replay checks, service lookups
//	phase B   build all tickets                → one SealBatch
//	phase C   build all reply parts            → one SealBatch
//	phase D   encode replies, remember how each TGS reply was built
//
// The batch calls are loops over the per-message seal and unseal, so a
// lone request does exactly the DES work of a direct seal, and the
// staging scratch is pooled, so it allocates no staging arrays either.
// Failures are isolated per request: a corrupt lane gets its error
// reply while its neighbours proceed.
//
// A lane keeps what it reads in its own scratch: each principal record
// is looked up into a lane Entry (kdb.Lookup, which decodes a mapped
// record in place), and each key is expanded into a lane Cipher — the
// TGS and service keys copied from kdb's hot-key table, the AS client's
// unsealed from its record, the TGT session key expanded once for its
// two uses (authenticator unseal, then reply seal). release wipes every
// lane's entries and ciphers, so a served request leaves no record and
// no key behind.

// BatchRequest is one datagram of a HandleBatch call: the encoded
// request, the address it arrived from, and (set by the call) the
// encoded reply. Reply is never nil for a well-typed request; protocol
// failures become MsgError replies exactly as Handle produces them.
type BatchRequest struct {
	Msg   []byte
	From  core.Addr
	Reply []byte
}

// batchExchange is the per-request state carried between stages.
type batchExchange struct {
	kind obs.Kind // zero until classified as AS or TGS
	ev   obs.Event
	done bool // reply already written (error or unknown type)

	// Staged inputs for the seal phases.
	client     core.Principal
	service    core.Principal
	life       core.Lifetime
	reqTime    core.KerberosTime
	replyKVNO  uint8
	sessionKey des.Key
	issued     core.KerberosTime
	addr       core.Addr // the address the ticket is bound to

	// Lane scratch. serviceEntry is the ticket's service; keyEntry the
	// other record the lane reads, the AS client or the TGS whose key
	// sealed the TGT. replyKey seals the reply: the client's private
	// key (AS) or the TGT session key (TGS). ticketKey is the key of the
	// ticket at hand: the TGS key while a TGT is opened, then the
	// service key the new ticket is sealed under.
	serviceEntry kdb.Entry
	keyEntry     kdb.Entry
	replyKey     des.Cipher
	ticketKey    des.Cipher

	// TGS extras.
	req     *core.TGSRequest
	tgt     *core.Ticket
	auth    *core.Authenticator
	digest  uint64
	rebuild bool // a retransmit: session key, issue time, address and life come from its memo
}

// pipeline is one call's staging scratch. Each kind of DES batch is
// carved from a shared backing array — TGT then authenticator unseals,
// ticket then reply seals — and the idx slices map a batch position
// back to its lane.
type pipeline struct {
	exs     []batchExchange
	unseals []des.UnsealRequest
	seals   []des.SealRequest
	idx     []int
}

var pipelinePool = sync.Pool{New: func() any { return new(pipeline) }}

// getPipeline returns zeroed scratch for a batch of n.
func getPipeline(n int) *pipeline {
	p := pipelinePool.Get().(*pipeline)
	if cap(p.exs) < n {
		*p = pipeline{
			exs:     make([]batchExchange, n),
			unseals: make([]des.UnsealRequest, 2*n),
			seals:   make([]des.SealRequest, 2*n),
			idx:     make([]int, 3*n),
		}
	}
	p.exs = p.exs[:n]
	return p
}

// release wipes what the lanes read and expanded — their entries, the
// key schedules and the new session keys — drops every reference the
// batch held, and returns the scratch to the pool.
func (p *pipeline) release() {
	n := len(p.exs)
	clear(p.exs)
	clear(p.unseals[:2*n])
	clear(p.seals[:2*n])
	pipelinePool.Put(p)
}

// HandleBatch processes a burst of independent requests, filling in
// each BatchRequest's Reply. It is equivalent to calling Handle once
// per request — same replies, same metrics, same traces — but runs the
// burst's stages together, one des batch call per DES phase.
//
//kerb:hotpath
func (s *Server) HandleBatch(batch []BatchRequest) {
	s.metrics.BatchSizes.Observe(int64(len(batch)))
	if len(batch) == 0 {
		return
	}
	s.handleBatch(batch)
}

// handleBatch is the pipeline body that Handle and HandleBatch share.
//
//kerb:hotpath
func (s *Server) handleBatch(batch []BatchRequest) {
	start := s.clock()
	now := start
	n := len(batch)
	p := getPipeline(n)
	defer p.release()
	exs := p.exs

	// Stage 1: decode and classify. AS requests validate all the way to
	// the client key; TGS requests stop at the TGT ciphertext, which
	// joins the first batched unseal.
	tgtUnseals, tgtIdx := p.unseals[:0:n], p.idx[:0:n]
	for i := range batch {
		ex := &exs[i]
		t, err := core.PeekType(batch[i].Msg)
		if err != nil {
			batch[i].Reply = s.errorReply(core.NewError(core.ErrBadVersionCode, "%v", err))
			ex.done = true
			continue
		}
		switch t {
		case core.MsgAuthRequest:
			s.metrics.ASRequests.Inc()
			ex.kind = obs.ExchangeAS
			if reply := s.stageAS(batch[i].Msg, ex, now); reply != nil {
				batch[i].Reply, ex.done = reply, true
			}
		case core.MsgTGSRequest:
			s.metrics.TGSRequests.Inc()
			ex.kind = obs.ExchangeTGS
			ureq, reply := s.stageTGSOpen(batch[i].Msg, ex, now)
			if reply != nil {
				batch[i].Reply, ex.done = reply, true
				continue
			}
			tgtUnseals = append(tgtUnseals, ureq)
			tgtIdx = append(tgtIdx, i)
		default:
			batch[i].Reply = s.errorReply(core.NewError(core.ErrMsgTypeCode, "KDC cannot serve %v", t))
			ex.done = true
		}
	}

	// Stage 2: unseal every TGT in one batch, then parse and check each,
	// queueing the authenticators (sealed under the per-TGT session keys)
	// for the second batched unseal.
	des.UnsealBatch(tgtUnseals)
	authUnseals, authIdx := p.unseals[n:n:2*n], p.idx[n:n:2*n]
	for j, i := range tgtIdx {
		ex := &exs[i]
		if tgtUnseals[j].Err != nil {
			batch[i].Reply = s.fail(&ex.ev, core.NewError(core.ErrIntegrityFailed, "ticket did not decrypt"))
			ex.done = true
			continue
		}
		tgt, err := core.ParseTicketPayload(tgtUnseals[j].Plaintext)
		if err != nil {
			batch[i].Reply, ex.done = s.fail(&ex.ev, err), true
			continue
		}
		// The ticket must actually be addressed to our ticket-granting
		// service; a stolen service ticket for some other server must not
		// mint new tickets.
		if !tgt.Server.IsTGS() || tgt.Server.Instance != s.realm {
			batch[i].Reply = s.fail(&ex.ev, core.NewError(core.ErrCannotIssue,
				"ticket is for %v, not the %s ticket-granting service", tgt.Server, s.realm))
			ex.done = true
			continue
		}
		if s.sink != nil {
			ex.ev.Principal = tgt.Client.String()
		}
		ex.tgt = tgt
		// Expanded once: the same schedule seals this lane's reply.
		ex.replyKey.SetKey(tgt.SessionKey)
		authUnseals = append(authUnseals, des.UnsealRequest{
			Cipher: &ex.replyKey, Ciphertext: ex.req.APReq.Authenticator,
		})
		authIdx = append(authIdx, i)
	}

	// Stage 3: unseal every authenticator in one batch, then run the
	// per-request TGS checks: verification, replay suppression, service
	// policy, and lifetime.
	des.UnsealBatch(authUnseals)
	for j, i := range authIdx {
		ex := &exs[i]
		req := ex.req
		if authUnseals[j].Err != nil {
			batch[i].Reply = s.fail(&ex.ev, core.NewError(core.ErrIntegrityFailed, "authenticator did not decrypt"))
			ex.done = true
			continue
		}
		auth, err := core.ParseAuthenticatorPayload(authUnseals[j].Plaintext)
		if err != nil {
			batch[i].Reply, ex.done = s.fail(&ex.ev, err), true
			continue
		}
		if err := auth.Verify(ex.tgt, batch[i].From, now); err != nil {
			batch[i].Reply, ex.done = s.fail(&ex.ev, err), true
			continue
		}
		// The replay rule. A byte-identical re-presentation of an
		// authenticator whose request was already answered is almost
		// always the client retransmitting after a lost reply. The
		// cache hands back a memo of how that reply was built, and the
		// lane rebuilds the identical reply from it: the memo's session
		// key, issue time, address and lifetime instead of fresh ones,
		// through the same checks and seal phases as a fresh lane. A
		// duplicate with no memo — a true replay, or a twin still in
		// flight, including one in this same batch, since Remember runs
		// only after the seal phases — is rejected with ErrRepeat, as
		// two concurrent requests would be.
		digest := replay.Digest(batch[i].Msg)
		memo, verdict := s.replays.SeenWithMemo(auth, digest, now)
		if verdict == replay.Replay {
			batch[i].Reply = s.fail(&ex.ev, core.NewError(core.ErrRepeat,
				"authenticator from %v already presented", auth.Client))
			ex.done = true
			continue
		}
		service := req.Service.WithRealm(s.realm)
		if s.sink != nil {
			ex.ev.Service = service.String()
		}
		// "This service is unique in that the ticket-granting service will
		// not issue tickets for it. Instead, the authentication service
		// itself must be used" (§5.1).
		if service.IsChangePw() {
			batch[i].Reply = s.fail(&ex.ev, core.NewError(core.ErrCannotIssue,
				"tickets for %v are only issued by the authentication service", service))
			ex.done = true
			continue
		}
		// Single-hop cross-realm only: a client authenticated elsewhere may
		// use our services, but may not hop onward to a third realm — the
		// path-recording needed to make chained trust meaningful is future
		// work in the paper (§7.2).
		crossRealmHop := service.IsTGS() && service.Instance != s.realm
		if crossRealmHop && ex.tgt.Client.Realm != s.realm {
			batch[i].Reply = s.fail(&ex.ev, core.NewError(core.ErrCannotIssue,
				"client of realm %s may not chain to realm %s via %s",
				ex.tgt.Client.Realm, service.Instance, s.realm))
			ex.done = true
			continue
		}
		if service.Realm != s.realm {
			batch[i].Reply = s.fail(&ex.ev, core.NewError(core.ErrWrongRealm,
				"service %v is not registered in realm %s", service, s.realm))
			ex.done = true
			continue
		}
		if err := s.lookup(service, now, &ex.serviceEntry); err != nil {
			batch[i].Reply, ex.done = s.fail(&ex.ev, err), true
			continue
		}
		if verdict == replay.Retransmit {
			m := unpackMemo(memo)
			// The original ticket was sealed under a service key that has
			// since been replaced: the identical reply cannot be rebuilt,
			// and a fresh one would be new work for an old authenticator.
			if m.kvno != ex.serviceEntry.KVNO {
				batch[i].Reply = s.fail(&ex.ev, core.NewError(core.ErrRepeat,
					"authenticator from %v already presented; key of %v changed since", auth.Client, service))
				ex.done = true
				continue
			}
			ex.rebuild = true
			ex.issued, ex.addr, ex.life = m.issued, m.addr, m.life
			ex.replyKey.DecryptBlock(ex.sessionKey[:], m.sealedKey[:])
		} else {
			// "The lifetime of the new ticket is the minimum of the
			// remaining life for the ticket-granting ticket and the
			// default for the service" (§4.4).
			ex.life = core.MinLife(req.Life, core.MinLife(ex.tgt.RemainingLife(now), effMaxLife(&ex.serviceEntry)))
		}
		// The client's realm in the new ticket is where the client was
		// originally authenticated (§7.2), carried over from the TGT.
		ex.client = ex.tgt.Client
		ex.service = service
		ex.reqTime = req.Time
		ex.auth = auth
		ex.digest = digest
	}

	// Phase B: build every surviving request's ticket and seal them all
	// under their service keys in one batch. A rebuilt lane already
	// holds its memo's session key, issue time and address.
	ticketSeals, sealIdx := p.seals[:0:n], p.idx[2*n:2*n:3*n]
	for i := range exs {
		ex := &exs[i]
		if ex.done {
			continue
		}
		if err := s.db.HotKey(&ex.serviceEntry, &ex.ticketKey); err != nil {
			batch[i].Reply = s.fail(&ex.ev, core.NewError(core.ErrDatabase, "cannot decrypt key for %v", ex.service))
			ex.done = true
			continue
		}
		if !ex.rebuild {
			sessionKey, err := des.NewRandomKey()
			if err != nil {
				batch[i].Reply = s.fail(&ex.ev, core.NewError(core.ErrGeneric, "session key generation failed"))
				ex.done = true
				continue
			}
			ex.sessionKey = sessionKey
			ex.issued = core.TimeFromGo(now)
			ex.addr = batch[i].From
		}
		ticket := core.Ticket{
			Server:     ex.service,
			Client:     ex.client,
			Addr:       ex.addr,
			Issued:     ex.issued,
			Life:       ex.life,
			SessionKey: ex.sessionKey,
		}
		ticketSeals = append(ticketSeals, des.SealRequest{Cipher: &ex.ticketKey, Plaintext: ticket.SealPayload()})
		sealIdx = append(sealIdx, i)
	}
	des.SealBatch(ticketSeals)

	// Phase C: build every reply part around its sealed ticket and seal
	// them all — under client private keys (AS) and TGT session keys
	// (TGS) — in one batch.
	replySeals := p.seals[n : n : 2*n]
	for j, i := range sealIdx {
		ex := &exs[i]
		enc := core.EncTicketReply{
			SessionKey:  ex.sessionKey,
			Server:      ex.service,
			Life:        ex.life,
			KVNO:        ex.serviceEntry.KVNO,
			Issued:      ex.issued,
			RequestTime: ex.reqTime,
			Ticket:      ticketSeals[j].Sealed,
		}
		replySeals = append(replySeals, des.SealRequest{Cipher: &ex.replyKey, Plaintext: enc.SealPayload()})
	}
	des.SealBatch(replySeals)

	// Phase D: encode the replies. A fresh TGS exchange attaches a memo
	// of how its reply was built to the recorded authenticator, so a
	// retransmission of this exact request is answered with the same
	// reply; a rebuilt one is that answer.
	for j, i := range sealIdx {
		ex := &exs[i]
		batch[i].Reply = (&core.AuthReply{Client: ex.client, KVNO: ex.replyKVNO, Sealed: replySeals[j].Sealed}).Encode()
		ex.ev.KVNO = ex.serviceEntry.KVNO
		switch {
		case ex.rebuild:
			s.metrics.TGSRetransmits.Inc()
			ex.ev.Detail = "retransmit"
			if s.logger != nil {
				s.logger.Printf("kdc %s: TGS resending reply to retransmit from %v", s.realm, ex.client)
			}
		case ex.kind == obs.ExchangeTGS:
			if s.logger != nil {
				s.logger.Printf("kdc %s: TGS issued %v ticket to %v (authenticated by %s)",
					s.realm, ex.service, ex.client, ex.client.Realm)
			}
			m := tgsMemo{issued: ex.issued, addr: ex.addr, life: ex.life, kvno: ex.serviceEntry.KVNO}
			ex.replyKey.EncryptBlock(m.sealedKey[:], ex.sessionKey[:])
			s.replays.Remember(ex.auth, ex.digest, m.pack(), now)
		case s.logger != nil:
			s.logger.Printf("kdc %s: AS issued %v ticket to %v at %v", s.realm, ex.service, ex.client, batch[i].From)
		}
	}

	// Latency and tracing: the whole batch completed together, so every
	// request's user-visible service time is the batch's elapsed time.
	d := s.clock().Sub(start)
	for i := range exs {
		switch exs[i].kind {
		case obs.ExchangeAS:
			s.metrics.ASLatency.Observe(d)
		case obs.ExchangeTGS:
			s.metrics.TGSLatency.Observe(d)
		default:
			continue
		}
		s.trace(&exs[i].ev, exs[i].kind, start, d, batch[i].Reply)
	}
}

// stageAS is stage 1 of the initial ticket exchange (§4.2, Figure 5):
// "The authentication server checks that it knows about the client. If
// so, it generates a random session key ... It then creates a ticket
// for the ticket-granting server ... encrypted in a key known only to
// the ticket-granting server and the authentication server. The
// authentication server then sends the ticket, along with a copy of the
// random session key and some additional information, back to the
// client. This response is encrypted in the client's private key."
// It runs every check through the client-key fetch and parks the seal
// parameters in ex; the seal phases do the rest. A non-nil return is
// the finished (error) reply.
//
// The same exchange issues tickets for changepw.kerberos (§5.1) and for
// remote-realm TGSes (§7.2).
func (s *Server) stageAS(msg []byte, ex *batchExchange, now time.Time) []byte {
	req, err := core.DecodeAuthRequest(msg)
	if err != nil {
		return s.fail(&ex.ev, err)
	}
	client := req.Client.WithRealm(s.realm)
	if s.sink != nil {
		ex.ev.Principal = client.String()
	}
	if client.Realm != s.realm {
		return s.fail(&ex.ev, core.NewError(core.ErrWrongRealm,
			"client %v is not of realm %s", client, s.realm))
	}
	clientEntry := &ex.keyEntry
	if err := s.lookup(client, now, clientEntry); err != nil {
		return s.fail(&ex.ev, err)
	}
	service := req.Service.WithRealm(s.realm)
	if s.sink != nil {
		ex.ev.Service = service.String()
	}
	if service.Realm != s.realm {
		return s.fail(&ex.ev, core.NewError(core.ErrWrongRealm,
			"service %v is not registered in realm %s", service, s.realm))
	}
	if err := s.lookup(service, now, &ex.serviceEntry); err != nil {
		return s.fail(&ex.ev, err)
	}
	// A user's key is used once per login: unsealed into the lane,
	// never kept.
	if err := s.db.UnsealKey(clientEntry, &ex.replyKey); err != nil {
		return s.fail(&ex.ev, core.NewError(core.ErrDatabase, "cannot decrypt key for %v", client))
	}
	ex.client = client
	ex.service = service
	ex.life = core.MinLife(req.Life, core.MinLife(effMaxLife(clientEntry), effMaxLife(&ex.serviceEntry)))
	ex.reqTime = req.Time
	ex.replyKVNO = clientEntry.KVNO
	return nil
}

// stageTGSOpen is stage 1 of the ticket-granting exchange (§4.4,
// Figure 8). The TGT plus a fresh authenticator arrive as an AP request
// for the ticket-granting server; the reply is sealed in the TGT's
// session key, so "there is no need for the user to enter her/his
// password again." It decodes the request, parks it in ex, and resolves
// the key the TGT is sealed under; the returned UnsealRequest joins the
// batched TGT unseal. A non-nil reply is the finished (error) answer.
func (s *Server) stageTGSOpen(msg []byte, ex *batchExchange, now time.Time) (des.UnsealRequest, []byte) {
	req, err := core.DecodeTGSRequest(msg)
	if err != nil {
		return des.UnsealRequest{}, s.fail(&ex.ev, err)
	}
	// A local TGT is sealed in our own krbtgt key; a TGT issued by a
	// remote realm's KDC for our TGS is sealed in the inter-realm key
	// both administrators agreed on (§7.2), registered here as
	// krbtgt.<remote realm>.
	issuingRealm := req.APReq.TicketRealm
	if issuingRealm == "" {
		issuingRealm = s.realm
	}
	if err := s.lookup(core.TGSPrincipal(issuingRealm, s.realm), now, &ex.keyEntry); err != nil {
		return des.UnsealRequest{}, s.fail(&ex.ev, core.NewError(core.ErrWrongRealm,
			"no key shared with realm %s", issuingRealm))
	}
	if err := s.db.HotKey(&ex.keyEntry, &ex.ticketKey); err != nil {
		return des.UnsealRequest{}, s.fail(&ex.ev, core.NewError(core.ErrDatabase, "cannot decrypt TGS key"))
	}
	ex.req = req
	return des.UnsealRequest{Cipher: &ex.ticketKey, Ciphertext: req.APReq.Ticket}, nil
}

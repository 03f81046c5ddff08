package kdc

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/des"
)

// asReqBytes encodes an AS request for client → service at the realm's
// current clock.
func (r *realm) asReqBytes(client string, service core.Principal) []byte {
	req := &core.AuthRequest{
		Client:  core.Principal{Name: client, Realm: r.server.Realm()},
		Service: service,
		Life:    core.DefaultTGTLife,
		Time:    core.TimeFromGo(r.clock.now),
	}
	return req.Encode()
}

// tgsReqBytes encodes a TGS request presenting tgt with a fresh
// authenticator stamped at. Distinct stamps make distinct
// authenticators, so a batch of these does not trip the replay cache.
func (r *realm) tgsReqBytes(tgt *core.EncTicketReply, service core.Principal, at time.Time) []byte {
	auth := core.NewAuthenticator(
		core.Principal{Name: "jis", Realm: r.server.Realm()}, wsAddr, at, 0)
	req := &core.TGSRequest{
		APReq: core.APRequest{
			KVNO:          tgt.KVNO,
			TicketRealm:   r.server.Realm(),
			Ticket:        tgt.Ticket,
			Authenticator: auth.Seal(tgt.SessionKey),
		},
		Service: service,
		Life:    core.MaxLife,
		Time:    core.TimeFromGo(at),
	}
	return req.Encode()
}

// openBatchReply decodes and opens one batch reply under key, failing
// the test on any error.
func openBatchReply(t *testing.T, raw []byte, key des.Key) *core.EncTicketReply {
	t.Helper()
	if err := core.IfErrorMessage(raw); err != nil {
		t.Fatalf("batch reply is an error: %v", err)
	}
	rep, err := core.DecodeAuthReply(raw)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := rep.Open(key)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestHandleBatchMixed drives one batch carrying every request shape at
// once — valid AS, valid TGS, garbage, unknown principal, corrupt
// ticket, and an in-batch duplicate — and checks each lane gets exactly
// the reply the scalar path would have produced, with failures isolated
// from their neighbours.
func TestHandleBatchMixed(t *testing.T) {
	r := newRealm(t, testRealm)
	tgs := core.TGSPrincipal(testRealm, testRealm)
	svc := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}
	tgt := r.asExchange(t, tgs, core.DefaultTGTLife)

	badTGT := *tgt
	badTGT.Ticket = append([]byte(nil), tgt.Ticket...)
	badTGT.Ticket[len(badTGT.Ticket)-1] ^= 0x40
	corruptTGS := r.tgsReqBytes(&badTGT, svc, t0.Add(5*time.Second))

	validTGS := r.tgsReqBytes(tgt, svc, t0)
	batch := []BatchRequest{
		{Msg: r.asReqBytes("jis", svc), From: wsAddr},
		{Msg: []byte{0xde, 0xad, 0xbe, 0xef}, From: wsAddr},
		{Msg: validTGS, From: wsAddr},
		{Msg: r.asReqBytes("nosuch", svc), From: wsAddr},
		{Msg: corruptTGS, From: wsAddr},
		{Msg: r.asReqBytes("jis", tgs), From: wsAddr},
		{Msg: append([]byte(nil), validTGS...), From: wsAddr}, // in-batch duplicate
	}
	r.server.HandleBatch(batch)

	for i, br := range batch {
		if br.Reply == nil {
			t.Fatalf("lane %d: no reply", i)
		}
	}
	if enc := openBatchReply(t, batch[0].Reply, r.userKey); enc.Server != svc {
		t.Errorf("lane 0: AS reply server = %v, want %v", enc.Server, svc)
	}
	if code := protoCode(t, batch[1].Reply); code != core.ErrBadVersionCode && code != core.ErrMsgTypeCode {
		t.Errorf("lane 1: garbage got %v", code)
	}
	if enc := openBatchReply(t, batch[2].Reply, tgt.SessionKey); enc.Server != svc {
		t.Errorf("lane 2: TGS reply server = %v, want %v", enc.Server, svc)
	}
	if code := protoCode(t, batch[3].Reply); code != core.ErrPrincipalUnknown {
		t.Errorf("lane 3: unknown principal got %v", code)
	}
	if code := protoCode(t, batch[4].Reply); code != core.ErrIntegrityFailed {
		t.Errorf("lane 4: corrupt ticket got %v", code)
	}
	if enc := openBatchReply(t, batch[5].Reply, r.userKey); enc.Server != tgs {
		t.Errorf("lane 5: TGT reply server = %v, want %v", enc.Server, tgs)
	}
	// The duplicate arrived before its twin's reply existed, so like two
	// concurrent scalar requests the second is rejected as a replay.
	if code := protoCode(t, batch[6].Reply); code != core.ErrRepeat {
		t.Errorf("lane 6: in-batch duplicate got %v, want %v", code, core.ErrRepeat)
	}
}

// TestHandleBatchLargeAS pushes a 48-wide AS batch through both seal
// phases and proves the batch-issued tickets are real: every reply opens
// under the client key, and a TGT issued by the batch drives a scalar
// TGS exchange end to end.
func TestHandleBatchLargeAS(t *testing.T) {
	r := newRealm(t, testRealm)
	tgs := core.TGSPrincipal(testRealm, testRealm)
	svc := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}

	const n = 48
	batch := make([]BatchRequest, n)
	for i := range batch {
		service := svc
		if i%2 == 0 {
			service = tgs
		}
		batch[i] = BatchRequest{Msg: r.asReqBytes("jis", service), From: wsAddr}
	}
	r.server.HandleBatch(batch)

	var tgtEnc *core.EncTicketReply
	for i := range batch {
		enc := openBatchReply(t, batch[i].Reply, r.userKey)
		if i%2 == 0 {
			if enc.Server != tgs {
				t.Fatalf("lane %d: server = %v, want %v", i, enc.Server, tgs)
			}
			tgtEnc = enc
		} else if enc.Server != svc {
			t.Fatalf("lane %d: server = %v, want %v", i, enc.Server, svc)
		}
	}
	// A batch-issued TGT must satisfy the scalar TGS path.
	raw, _ := r.tgsExchange(t, tgtEnc, svc, core.MaxLife, testRealm)
	if err := core.IfErrorMessage(raw); err != nil {
		t.Fatalf("scalar TGS with batch-issued TGT: %v", err)
	}
}

// TestHandleBatchLargeTGS runs a full-width TGS batch — both unseal
// stages and both seal phases batched — and checks every reply opens
// under the TGT session key, then that a retransmit of one of the batch
// requests is answered from the replay cache with the identical reply.
func TestHandleBatchLargeTGS(t *testing.T) {
	r := newRealm(t, testRealm)
	tgs := core.TGSPrincipal(testRealm, testRealm)
	svc := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}
	tgt := r.asExchange(t, tgs, core.DefaultTGTLife)

	const n = 48
	batch := make([]BatchRequest, n)
	for i := range batch {
		batch[i] = BatchRequest{
			Msg:  r.tgsReqBytes(tgt, svc, t0.Add(time.Duration(i)*time.Second)),
			From: wsAddr,
		}
	}
	r.server.HandleBatch(batch)

	for i := range batch {
		enc := openBatchReply(t, batch[i].Reply, tgt.SessionKey)
		if enc.Server != svc {
			t.Fatalf("lane %d: server = %v, want %v", i, enc.Server, svc)
		}
	}
	// Byte-identical retransmission of a batched request, later and over
	// the scalar path, is answered with the remembered reply.
	retrans := r.server.Handle(batch[7].Msg, wsAddr)
	if !bytes.Equal(retrans, batch[7].Reply) {
		t.Error("retransmit of a batched TGS request was not answered with the original reply")
	}
	if got := r.server.Metrics().TGSRetransmits.Load(); got != 1 {
		t.Errorf("TGSRetransmits = %d, want 1", got)
	}
}

// TestHandleBatchDepth1FastPath checks a batch of one is answered like
// a direct request and observed once in the batch-size histogram, and
// that an empty batch is a no-op that is still observed.
func TestHandleBatchDepth1FastPath(t *testing.T) {
	r := newRealm(t, testRealm)
	svc := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}
	batch := []BatchRequest{{Msg: r.asReqBytes("jis", svc), From: wsAddr}}

	r.server.HandleBatch(batch)
	if enc := openBatchReply(t, batch[0].Reply, r.userKey); enc.Server != svc {
		t.Errorf("server = %v, want %v", enc.Server, svc)
	}
	if got := r.server.Metrics().BatchSizes.Count(); got != 1 {
		t.Errorf("BatchSizes count = %d, want 1", got)
	}
	// An empty batch is a no-op but still observed.
	r.server.HandleBatch(nil)
	if got := r.server.Metrics().BatchSizes.Count(); got != 2 {
		t.Errorf("BatchSizes count after empty batch = %d, want 2", got)
	}
}

// TestHandleBatchMetrics checks the batch path feeds the same request
// counters and latency histograms as the scalar path.
func TestHandleBatchMetrics(t *testing.T) {
	r := newRealm(t, testRealm)
	tgs := core.TGSPrincipal(testRealm, testRealm)
	svc := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}
	tgt := r.asExchange(t, tgs, core.DefaultTGTLife)
	asBase := r.server.Metrics().ASRequests.Load()

	batch := []BatchRequest{
		{Msg: r.asReqBytes("jis", svc), From: wsAddr},
		{Msg: r.asReqBytes("jis", tgs), From: wsAddr},
		{Msg: r.tgsReqBytes(tgt, svc, t0), From: wsAddr},
		{Msg: []byte{1, 2, 3}, From: wsAddr},
	}
	r.server.HandleBatch(batch)
	m := r.server.Metrics()
	if got := m.ASRequests.Load() - asBase; got != 2 {
		t.Errorf("ASRequests delta = %d, want 2", got)
	}
	if got := m.TGSRequests.Load(); got != 1 {
		t.Errorf("TGSRequests = %d, want 1", got)
	}
	if got := m.ASLatency.Count(); got != 3 { // 1 from asExchange + 2 batched
		t.Errorf("ASLatency count = %d, want 3", got)
	}
	if got := m.TGSLatency.Count(); got != 1 {
		t.Errorf("TGSLatency count = %d, want 1", got)
	}
	if got := m.BatchSizes.Count(); got != 1 {
		t.Errorf("BatchSizes count = %d, want 1", got)
	}
	if got, want := m.BatchSizes.Snapshot().Max, int64(len(batch)); got != want {
		t.Errorf("BatchSizes max = %d, want %d", got, want)
	}
}

// TestHandleBatchAllocs bounds the pipeline's allocation budget:
// per-request work (decode, payload buffers, seal outputs, the encoded
// reply) is allowed, but nothing superlinear — the staging scratch is
// pooled. At width 1 the budget is the per-request work alone (12
// allocs for AS, 24 for TGS) plus the five staging allocations an empty
// pool costs, since the race detector's pool drops objects at random.
func TestHandleBatchAllocs(t *testing.T) {
	r := newRealm(t, testRealm)
	tgs := core.TGSPrincipal(testRealm, testRealm)
	svc := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}
	tgt := r.asExchange(t, tgs, core.DefaultTGTLife)

	t.Run("width48", func(t *testing.T) {
		const n = 48
		batch := make([]BatchRequest, n)
		for i := range batch {
			batch[i] = BatchRequest{Msg: r.asReqBytes("jis", svc), From: wsAddr}
		}
		r.server.HandleBatch(batch) // warm key caches and scratch pools
		allocs := testing.AllocsPerRun(20, func() {
			r.server.HandleBatch(batch)
		})
		const perRequest = 24
		if allocs > n*perRequest {
			t.Errorf("HandleBatch of %d: %.0f allocs/run, want <= %d (%d per request)",
				n, allocs, n*perRequest, perRequest)
		}
	})
	t.Run("AS-width1", func(t *testing.T) {
		batch := []BatchRequest{{Msg: r.asReqBytes("jis", svc), From: wsAddr}}
		r.server.HandleBatch(batch)
		allocs := testing.AllocsPerRun(20, func() {
			r.server.HandleBatch(batch)
		})
		openBatchReply(t, batch[0].Reply, r.userKey)
		if allocs > 12+5 {
			t.Errorf("width-1 AS: %.0f allocs/run, want <= %d", allocs, 12+5)
		}
	})
	t.Run("TGS-width1", func(t *testing.T) {
		// Every run presents a fresh authenticator, so each one is real
		// TGS work rather than a replay rejection.
		const runs = 20
		msgs := make([][]byte, runs+2)
		for i := range msgs {
			msgs[i] = r.tgsReqBytes(tgt, svc, t0.Add(time.Duration(i)*time.Second))
		}
		batch := []BatchRequest{{From: wsAddr}}
		k := 0
		allocs := testing.AllocsPerRun(runs, func() {
			batch[0].Msg = msgs[k]
			k++
			r.server.HandleBatch(batch)
		})
		openBatchReply(t, batch[0].Reply, tgt.SessionKey) // measured real work, not an error
		if allocs > 24+5 {
			t.Errorf("width-1 TGS: %.0f allocs/run, want <= %d", allocs, 24+5)
		}
	})
}

// laneKind is one request shape of the width sweep: build makes a fresh
// request (k keeps authenticators unique across the whole test), and
// check reports how the reply differs from the one that request must
// get.
type laneKind struct {
	name  string
	build func(t *testing.T, k int) []byte
	check func(reply []byte) error
}

// replyCode is the protocol error code of an error reply, or an error
// if reply is not one.
func replyCode(reply []byte) (core.ErrorCode, error) {
	var pe *core.ProtocolError
	if !errors.As(core.IfErrorMessage(reply), &pe) {
		return 0, fmt.Errorf("reply is not a protocol error")
	}
	return pe.Code, nil
}

// wantCode checks for an error reply carrying want.
func wantCode(want core.ErrorCode) func([]byte) error {
	return func(reply []byte) error {
		got, err := replyCode(reply)
		if err == nil && got != want {
			err = fmt.Errorf("got %v, want %v", got, want)
		}
		return err
	}
}

// wantTicket checks for a reply that opens under key and grants a
// ticket for server with the given lifetime and key version.
func wantTicket(key des.Key, server core.Principal, life core.Lifetime, kvno uint8) func([]byte) error {
	return func(reply []byte) error {
		if err := core.IfErrorMessage(reply); err != nil {
			return err
		}
		rep, err := core.DecodeAuthReply(reply)
		if err != nil {
			return err
		}
		enc, err := rep.Open(key)
		if err != nil {
			return err
		}
		if enc.Server != server || enc.Life != life || enc.KVNO != kvno {
			return fmt.Errorf("ticket for %v life %d kvno %d, want %v life %d kvno %d",
				enc.Server, enc.Life, enc.KVNO, server, life, kvno)
		}
		return nil
	}
}

// sweepKinds builds the width sweep's lane table over r: the two valid
// exchanges, each checked down to the ticket fields, and one lane for
// every class of rejection the pipeline makes.
func sweepKinds(t *testing.T, r *realm) []laneKind {
	tgs := core.TGSPrincipal(testRealm, testRealm)
	changepw := core.Principal{Name: core.ChangePwName, Instance: core.ChangePwInstance, Realm: testRealm}
	svc := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}
	pop := core.Principal{Name: "pop", Instance: "po10", Realm: testRealm}
	// pop.po10 caps its tickets at 7 lifetime units and is on its second
	// key, so a TGS reply's life and key version are both checkable.
	popKey, _ := des.NewRandomKey()
	if err := r.db.Add(pop.Name, pop.Instance, popKey, 7, "kadmin", t0); err != nil {
		t.Fatal(err)
	}
	popKey, _ = des.NewRandomKey()
	if err := r.db.SetKey(pop.Name, pop.Instance, popKey, "kadmin", t0); err != nil {
		t.Fatal(err)
	}
	tgt := r.asExchange(t, tgs, core.DefaultTGTLife)
	badTGT := *tgt
	badTGT.Ticket = append([]byte(nil), tgt.Ticket...)
	badTGT.Ticket[len(badTGT.Ticket)-1] ^= 0x40
	stamp := func(k int) time.Time { return t0.Add(time.Duration(k) * time.Microsecond) }
	return []laneKind{
		{"AS", func(*testing.T, int) []byte { return r.asReqBytes("jis", changepw) },
			wantTicket(r.userKey, changepw, 12, 1)}, // changepw caps life at 12
		{"TGS", func(_ *testing.T, k int) []byte { return r.tgsReqBytes(tgt, pop, stamp(k)) },
			wantTicket(tgt.SessionKey, pop, 7, 2)},
		{"garbage", func(*testing.T, int) []byte { return []byte{0xde, 0xad, 0xbe, 0xef} },
			wantCode(core.ErrBadVersionCode)},
		{"unknown-principal", func(*testing.T, int) []byte { return r.asReqBytes("nosuch", svc) },
			wantCode(core.ErrPrincipalUnknown)},
		{"wrong-realm", func(*testing.T, int) []byte {
			return (&core.AuthRequest{
				Client:  core.Principal{Name: "jis", Realm: "LCS.MIT.EDU"},
				Service: tgs,
				Life:    core.DefaultTGTLife,
				Time:    core.TimeFromGo(t0),
			}).Encode()
		}, wantCode(core.ErrWrongRealm)},
		{"corrupt-TGT", func(_ *testing.T, k int) []byte { return r.tgsReqBytes(&badTGT, svc, stamp(k)) },
			wantCode(core.ErrIntegrityFailed)},
		{"skewed", func(_ *testing.T, k int) []byte {
			return r.tgsReqBytes(tgt, svc, stamp(k).Add(-core.ClockSkew-time.Minute))
		}, wantCode(core.ErrSkew)},
		{"changepw-via-TGS", func(_ *testing.T, k int) []byte { return r.tgsReqBytes(tgt, changepw, stamp(k)) },
			wantCode(core.ErrCannotIssue)},
		{"replayed", func(t *testing.T, k int) []byte {
			// Present the authenticator once and let it be answered; the
			// lane staples the same authenticator to another request.
			if err := core.IfErrorMessage(r.server.Handle(r.tgsReqBytes(tgt, svc, stamp(k)), wsAddr)); err != nil {
				t.Fatal(err)
			}
			return r.tgsReqBytes(tgt, pop, stamp(k))
		}, wantCode(core.ErrRepeat)},
	}
}

// TestHandleBatchWidthSweep asserts every lane kind alone through
// Handle, then batches that cycle through all kinds at widths from 1
// to 130, so lanes of every kind share one batch call: each lane must
// get exactly the reply it gets alone.
func TestHandleBatchWidthSweep(t *testing.T) {
	r := newRealm(t, testRealm)
	kinds := sweepKinds(t, r)
	k := 0
	for _, kind := range kinds {
		k++
		if err := kind.check(r.server.Handle(kind.build(t, k), wsAddr)); err != nil {
			t.Errorf("Handle %s: %v", kind.name, err)
		}
	}
	for _, width := range []int{1, 2, 39, 40, 41, 64, 65, 130} {
		batch := make([]BatchRequest, width)
		for i := range batch {
			k++
			batch[i] = BatchRequest{Msg: kinds[i%len(kinds)].build(t, k), From: wsAddr}
		}
		r.server.HandleBatch(batch)
		for i := range batch {
			kind := kinds[i%len(kinds)]
			if err := kind.check(batch[i].Reply); err != nil {
				t.Errorf("width %d lane %d %s: %v", width, i, kind.name, err)
			}
		}
	}
}

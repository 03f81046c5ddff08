package kerberos

// The benchmark harness regenerates the paper's figures and quantitative
// claims (see DESIGN.md §4 for the experiment index and EXPERIMENTS.md
// for recorded results):
//
//	Fig 2–4   building blocks (names, tickets, authenticators)
//	Fig 5–9   the protocol exchanges
//	Fig 10    master+slave authentication service
//	Fig 12    administration protocol
//	Fig 13    database propagation (swept over database size)
//	§9        Athena-scale workload (5,000 users / 650 ws / 65 servers)
//	Appendix  NFS: trusted vs per-op Kerberos vs hybrid credential map
//	§2.1      protection levels (safe vs private messages)
//	§7.2      cross-realm authentication
//	§8        ticket-lifetime tradeoff (ablation)
//
// Run: go test -bench=. -benchmem .

import (
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kerberos/internal/client"
	"kerberos/internal/core"
	"kerberos/internal/des"
	"kerberos/internal/kadm"
	"kerberos/internal/kdb"
	"kerberos/internal/kdc"
	"kerberos/internal/kprop"
	"kerberos/internal/nfs"
	"kerberos/internal/testclock"
	"kerberos/internal/vfs"
	"kerberos/internal/workload"
)

const benchRealm = "ATHENA.MIT.EDU"

var loopback = Addr{127, 0, 0, 1}

// benchEnv is a realm with one user and one service, shared machinery
// for the protocol benchmarks.
type benchEnv struct {
	realm   *Realm
	user    *Client
	service Principal
	tab     *Srvtab
	seq     atomic.Uint32
}

func newBenchEnv(b *testing.B) *benchEnv {
	b.Helper()
	realm, err := NewRealm(RealmConfig{Name: benchRealm, MasterPassword: "master"})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { realm.Close() })
	if err := realm.AddUser("jis", "zanzibar"); err != nil {
		b.Fatal(err)
	}
	tab, err := realm.AddService("rlogin", "priam")
	if err != nil {
		b.Fatal(err)
	}
	user, err := realm.NewLoggedInClient("jis", "zanzibar")
	if err != nil {
		b.Fatal(err)
	}
	return &benchEnv{
		realm:   realm,
		user:    user,
		service: Principal{Name: "rlogin", Instance: "priam", Realm: benchRealm},
		tab:     tab,
	}
}

// BenchmarkFig2NameParse measures principal parsing and formatting.
func BenchmarkFig2NameParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := ParsePrincipal("rlogin.priam@ATHENA.MIT.EDU")
		if err != nil {
			b.Fatal(err)
		}
		if p.String() == "" {
			b.Fatal("empty")
		}
	}
}

// BenchmarkFig3TicketSeal measures building and sealing a ticket in the
// server key — the KDC's core unit of work.
func BenchmarkFig3TicketSeal(b *testing.B) {
	serverKey, _ := des.NewRandomKey()
	sess, _ := des.NewRandomKey()
	tkt := &core.Ticket{
		Server:     core.Principal{Name: "rlogin", Instance: "priam", Realm: benchRealm},
		Client:     core.Principal{Name: "jis", Realm: benchRealm},
		Addr:       core.Addr(loopback),
		Issued:     core.TimeFromGo(time.Unix(567705600, 0)),
		Life:       core.DefaultTGTLife,
		SessionKey: sess,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sealed := tkt.Seal(serverKey)
		if _, err := core.OpenTicket(serverKey, sealed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4Authenticator measures building, sealing, and verifying
// an authenticator in the session key.
func BenchmarkFig4Authenticator(b *testing.B) {
	sess, _ := des.NewRandomKey()
	client := core.Principal{Name: "jis", Realm: benchRealm}
	now := time.Unix(567705600, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		auth := core.NewAuthenticator(client, core.Addr(loopback), now, uint32(i))
		sealed := auth.Seal(sess)
		if _, err := core.OpenAuthenticator(sess, sealed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5InitialTicket measures the full AS exchange (Figure 5):
// request encode, KDC handling (lookup, session key, ticket seal, reply
// seal), and client-side decryption with the password key.
func BenchmarkFig5InitialTicket(b *testing.B) {
	env := newBenchEnv(b)
	userKey := PasswordKey(core.Principal{Name: "jis", Realm: benchRealm}, "zanzibar")
	req := &core.AuthRequest{
		Client:  core.Principal{Name: "jis", Realm: benchRealm},
		Service: core.TGSPrincipal(benchRealm, benchRealm),
		Life:    core.DefaultTGTLife,
		Time:    core.TimeFromGo(time.Now()),
	}
	enc := req.Encode()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw := env.realm.KDC.Handle(enc, core.Addr(loopback))
		rep, err := core.DecodeAuthReply(raw)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rep.Open(userKey); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8ServerTicket measures the TGS exchange (Figure 8): fresh
// authenticator under the TGT session key, KDC handling, reply opened
// with the TGT session key.
func BenchmarkFig8ServerTicket(b *testing.B) {
	env := newBenchEnv(b)
	tgt, ok := env.user.Cache.Get(core.TGSPrincipal(benchRealm, benchRealm), time.Now())
	if !ok {
		b.Fatal("no TGT")
	}
	userP := core.Principal{Name: "jis", Realm: benchRealm}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		auth := core.NewAuthenticator(userP, core.Addr(loopback), time.Now(), env.seq.Add(1))
		req := &core.TGSRequest{
			APReq: core.APRequest{
				TicketRealm:   benchRealm,
				Ticket:        tgt.Ticket,
				Authenticator: auth.Seal(tgt.SessionKey),
			},
			Service: core.Principal{Name: "rlogin", Instance: "priam", Realm: benchRealm},
			Life:    core.MaxLife,
			Time:    core.TimeFromGo(time.Now()),
		}
		raw := env.realm.KDC.Handle(req.Encode(), core.Addr(loopback))
		rep, err := core.DecodeAuthReply(raw)
		if err != nil {
			b.Fatal(core.IfErrorMessage(raw))
		}
		if _, err := rep.Open(tgt.SessionKey); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKDCParallelAS hammers the KDC's AS path from all cores at
// once — the §9 morning-login storm concentrated on one machine. Only
// the server side runs, so the number reported is pure KDC capacity;
// the request bytes are shared because Handle never retains or mutates
// its input.
func BenchmarkKDCParallelAS(b *testing.B) {
	env := newBenchEnv(b)
	req := (&core.AuthRequest{
		Client:  core.Principal{Name: "jis", Realm: benchRealm},
		Service: core.TGSPrincipal(benchRealm, benchRealm),
		Life:    core.DefaultTGTLife,
		Time:    core.TimeFromGo(time.Now()),
	}).Encode()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			raw := env.realm.KDC.Handle(req, core.Addr(loopback))
			if err := core.IfErrorMessage(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKDCParallelTGS drives concurrent TGS exchanges through one
// KDC. Every iteration presents a fresh authenticator (distinct
// checksum), so all of them pass — and stress — the sharded replay
// cache rather than short-circuiting on a duplicate.
func BenchmarkKDCParallelTGS(b *testing.B) {
	env := newBenchEnv(b)
	tgt, ok := env.user.Cache.Get(core.TGSPrincipal(benchRealm, benchRealm), time.Now())
	if !ok {
		b.Fatal("no TGT")
	}
	userP := core.Principal{Name: "jis", Realm: benchRealm}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			auth := core.NewAuthenticator(userP, core.Addr(loopback), time.Now(), env.seq.Add(1))
			req := &core.TGSRequest{
				APReq: core.APRequest{
					TicketRealm:   benchRealm,
					Ticket:        tgt.Ticket,
					Authenticator: auth.Seal(tgt.SessionKey),
				},
				Service: core.Principal{Name: "rlogin", Instance: "priam", Realm: benchRealm},
				Life:    core.MaxLife,
				Time:    core.TimeFromGo(time.Now()),
			}
			raw := env.realm.KDC.Handle(req.Encode(), core.Addr(loopback))
			if err := core.IfErrorMessage(raw); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkKDCBatchAS measures the KDC's batched AS pipeline: one
// HandleBatch call carrying 64 independent requests, the shape the ring
// transport presents under a flood. The ns/req metric is the
// per-request cost to compare against BenchmarkKDCParallelAS's ns/op.
func BenchmarkKDCBatchAS(b *testing.B) {
	env := newBenchEnv(b)
	req := (&core.AuthRequest{
		Client:  core.Principal{Name: "jis", Realm: benchRealm},
		Service: core.TGSPrincipal(benchRealm, benchRealm),
		Life:    core.DefaultTGTLife,
		Time:    core.TimeFromGo(time.Now()),
	}).Encode()
	const width = 64
	batch := make([]kdc.BatchRequest, width)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range batch {
			batch[j] = kdc.BatchRequest{Msg: req, From: core.Addr(loopback)}
		}
		env.realm.KDC.HandleBatch(batch)
	}
	b.StopTimer()
	for j := range batch {
		if err := core.IfErrorMessage(batch[j].Reply); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width), "ns/req")
}

// BenchmarkKDCBatchedUDP measures AS throughput over the real loopback
// UDP path with a bounded in-flight window: 32 clients each keep one
// request outstanding, so the ring transport sees genuine arrival
// concurrency and coalesces it into multi-request batches. One
// iteration is one completed request/reply round trip.
func BenchmarkKDCBatchedUDP(b *testing.B) {
	env := newBenchEnv(b)
	addr := env.realm.KDCAddrs()[0]
	req := (&core.AuthRequest{
		Client:  core.Principal{Name: "jis", Realm: benchRealm},
		Service: core.TGSPrincipal(benchRealm, benchRealm),
		Life:    core.DefaultTGTLife,
		Time:    core.TimeFromGo(time.Now()),
	}).Encode()
	const window = 32
	conns := make([]net.Conn, window)
	for i := range conns {
		conn, err := net.Dial("udp4", addr)
		if err != nil {
			b.Fatal(err)
		}
		defer conn.Close()
		conns[i] = conn
	}
	buf := make([]byte, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := range conns {
		if _, err := conns[i].Write(req); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < b.N; i++ {
		conn := conns[i%window]
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		n, err := conn.Read(buf)
		if err != nil {
			b.Fatal(err)
		}
		if err := core.IfErrorMessage(buf[:n]); err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Write(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6RequestService measures the application request (Figure
// 6): krb_mk_req with cached credentials plus the server's krb_rd_req.
func BenchmarkFig6RequestService(b *testing.B) {
	env := newBenchEnv(b)
	svc := env.realm.NewServiceContext("rlogin", "priam", env.tab)
	if _, err := env.user.GetCredentials(env.service); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg, _, err := env.user.MkReq(env.service, env.seq.Add(1), false)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := svc.ReadRequest(msg, loopback); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7MutualAuth adds the server's proof and the client's
// verification (Figure 7) on top of Figure 6.
func BenchmarkFig7MutualAuth(b *testing.B) {
	env := newBenchEnv(b)
	svc := env.realm.NewServiceContext("rlogin", "priam", env.tab)
	if _, err := env.user.GetCredentials(env.service); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		msg, session, err := env.user.MkReq(env.service, env.seq.Add(1), true)
		if err != nil {
			b.Fatal(err)
		}
		sess, err := svc.ReadRequest(msg, loopback)
		if err != nil {
			b.Fatal(err)
		}
		if err := session.VerifyReply(sess.Reply); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig9FullLogin measures the complete Figure 9 sequence over
// real loopback sockets: AS exchange, TGS exchange, AP exchange with
// mutual authentication — one user session end to end.
func BenchmarkFig9FullLogin(b *testing.B) {
	env := newBenchEnv(b)
	svc := env.realm.NewServiceContext("rlogin", "priam", env.tab)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		user, err := env.realm.NewLoggedInClient("jis", "zanzibar")
		if err != nil {
			b.Fatal(err)
		}
		msg, session, err := user.MkReq(env.service, env.seq.Add(1), true)
		if err != nil {
			b.Fatal(err)
		}
		sess, err := svc.ReadRequest(msg, loopback)
		if err != nil {
			b.Fatal(err)
		}
		if err := session.VerifyReply(sess.Reply); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10SlaveOffload measures aggregate AS throughput as
// read-only slave copies are added beside the master (Figure 10) and
// clients spread their requests across all copies. On a single machine
// the copies share the CPU, so the figure to watch is that throughput
// does not degrade as requests spread — on distinct machines each copy
// adds its own capacity.
func BenchmarkFig10SlaveOffload(b *testing.B) {
	for _, kdcs := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("kdcs=%d", kdcs), func(b *testing.B) {
			realm, err := NewRealm(RealmConfig{
				Name: benchRealm, MasterPassword: "master", Slaves: kdcs - 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer realm.Close()
			if err := realm.AddUser("jis", "zanzibar"); err != nil {
				b.Fatal(err)
			}
			if err := realm.Propagate(); err != nil {
				b.Fatal(err)
			}
			// In-process handlers for all copies.
			handlers := []func([]byte, core.Addr) []byte{realm.KDC.Handle}
			for i := 0; i < kdcs-1; i++ {
				handlers = append(handlers, kdc.New(benchRealm, realm.slaveDBs[i]).Handle)
			}
			req := (&core.AuthRequest{
				Client:  core.Principal{Name: "jis", Realm: benchRealm},
				Service: core.TGSPrincipal(benchRealm, benchRealm),
				Life:    core.DefaultTGTLife,
				Time:    core.TimeFromGo(time.Now()),
			}).Encode()
			var next atomic.Uint64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					h := handlers[next.Add(1)%uint64(len(handlers))]
					raw := h(req, core.Addr(loopback))
					if err := core.IfErrorMessage(raw); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkFig12AdminChange measures the administration protocol
// (Figure 12): the in-process authorize+execute path, and the full
// kpasswd flow (AS exchange for a changepw ticket, mutual auth with the
// KDBM, private-message command) over sockets.
func BenchmarkFig12AdminChange(b *testing.B) {
	b.Run("execute", func(b *testing.B) {
		realm, err := NewRealm(RealmConfig{Name: benchRealm, MasterPassword: "master"})
		if err != nil {
			b.Fatal(err)
		}
		defer realm.Close()
		if err := realm.AddUser("jis", "zanzibar"); err != nil {
			b.Fatal(err)
		}
		acl, _ := kadm.NewACL()
		srv := kadm.NewServer(benchRealm, realm.DB, acl)
		requester := core.Principal{Name: "jis", Realm: benchRealm}
		key, _ := des.NewRandomKey()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep := srv.Execute(requester, &kadm.Request{
				Op: kadm.OpChangePassword, Name: "jis", Key: key,
			})
			if !rep.OK {
				b.Fatal(rep.Text)
			}
		}
	})
	b.Run("kpasswd-full", func(b *testing.B) {
		realm, err := NewRealm(RealmConfig{Name: benchRealm, MasterPassword: "master"})
		if err != nil {
			b.Fatal(err)
		}
		defer realm.Close()
		if err := realm.AddUser("jis", "zanzibar"); err != nil {
			b.Fatal(err)
		}
		if _, err := realm.ServeAdmin(); err != nil {
			b.Fatal(err)
		}
		pw := "zanzibar"
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			next := fmt.Sprintf("pw-%d", i)
			if err := realm.ChangePassword("jis", pw, next); err != nil {
				b.Fatal(err)
			}
			pw = next
		}
	})
}

// BenchmarkFig13Propagation measures a full database push (dump, sealed
// checksum, transfer, verify, swap) over sockets, swept across database
// sizes (Figure 13; the paper's deployment was ~5,000 users).
func BenchmarkFig13Propagation(b *testing.B) {
	for _, size := range []int{100, 1000, 5000} {
		b.Run(fmt.Sprintf("principals=%d", size), func(b *testing.B) {
			db := kdb.New(des.StringToKey("master", benchRealm))
			tgsKey, _ := des.NewRandomKey()
			if err := db.Add(core.TGSName, benchRealm, tgsKey, 0, "init", time.Now()); err != nil {
				b.Fatal(err)
			}
			spec := workload.Spec{Users: size, Services: 0, Workstations: 1, Seed: 1}
			if err := workload.Install(db, spec, benchRealm, time.Now()); err != nil {
				b.Fatal(err)
			}
			slaveDB := kdb.New(db.MasterKey())
			slave := kprop.NewSlave(slaveDB, nil)
			l, err := kprop.Serve(slave, "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			m := kprop.NewMaster(db, []string{l.Addr()}, nil)
			dumpBytes := len(db.Dump())
			b.SetBytes(int64(dumpBytes))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.PropagateAll(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkS9AthenaScale replays the §9 deployment: one benchmark
// iteration is one user session (an AS exchange plus three TGS
// exchanges, all cryptographically verified) drawn from a population of
// 5,000 users on 650 workstations against 65 services.
func BenchmarkS9AthenaScale(b *testing.B) {
	spec := workload.Athena
	server, _, err := workload.NewRealmServer(spec, benchRealm)
	if err != nil {
		b.Fatal(err)
	}
	d := &workload.Driver{
		Spec: spec, Realm: benchRealm,
		Handle:          server.Handle,
		TicketsPerLogin: 3,
	}
	m := &workload.Metrics{}
	var next atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1)) % spec.Users
			if err := d.RunUser(i, m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	if f := m.Failures.Load(); f != 0 {
		b.Fatalf("%d failures", f)
	}
	b.ReportMetric(float64(m.ASExchanges.Load()+m.TGSExchanges.Load())/float64(b.N), "exchanges/session")
	// Per-exchange latency quantiles from the driver's histograms — the
	// tail, not just the mean the ns/op column reports.
	as, tgs := m.ASLatency.Snapshot(), m.TGSLatency.Snapshot()
	b.ReportMetric(float64(as.Quantile(0.50).Nanoseconds()), "as-p50-ns")
	b.ReportMetric(float64(as.Quantile(0.99).Nanoseconds()), "as-p99-ns")
	b.ReportMetric(float64(tgs.Quantile(0.50).Nanoseconds()), "tgs-p50-ns")
	b.ReportMetric(float64(tgs.Quantile(0.99).Nanoseconds()), "tgs-p99-ns")
}

// --- Appendix: the NFS envelope calculation -----------------------------

// nfsBench builds a file server in the given mode with a mounted (or
// authenticated) client, returning closures performing one read and one
// write of the given size. This is experiment A1: the cost of placing
// authentication per-operation versus at mount time, over "all disk read
// and write activities".
func nfsBench(b *testing.B, mode nfs.AuthMode, size int) (read, write func()) {
	b.Helper()
	realm, err := NewRealm(RealmConfig{Name: benchRealm, MasterPassword: "master"})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { realm.Close() })
	if err := realm.AddUser("alice", "alice-pw"); err != nil {
		b.Fatal(err)
	}
	tab, err := realm.AddService("nfs", "helen")
	if err != nil {
		b.Fatal(err)
	}
	nfsPrincipal := core.Principal{Name: "nfs", Instance: "helen", Realm: benchRealm}

	fs := vfs.New()
	aliceCred := vfs.Cred{UID: 1001, GIDs: []uint32{100}}
	fs.MkdirAll("/mit/alice", vfs.Root, 0o755)
	fs.Chown("/mit/alice", vfs.Root, 1001, 100)
	payload := make([]byte, size)
	if err := fs.Write("/mit/alice/data", aliceCred, payload, 0o600); err != nil {
		b.Fatal(err)
	}
	server := nfs.NewServer(nfs.ServerConfig{
		Realm: benchRealm, FS: fs, Mode: mode, Friendly: false,
		Principal: nfsPrincipal, Keytab: tab,
		Accounts: []nfs.Account{{Username: "alice", Cred: aliceCred}},
	})

	krb, err := realm.NewLoggedInClient("alice", "alice-pw")
	if err != nil {
		b.Fatal(err)
	}
	// Warm the ticket cache so per-op mode measures authentication, not
	// KDC traffic.
	if _, err := krb.GetCredentials(nfsPrincipal); err != nil {
		b.Fatal(err)
	}
	if mode == nfs.ModeMapped {
		// One Kerberos-moderated mapping request at "mount time".
		apReq, _, err := krb.MkReq(nfsPrincipal, 1001, false)
		if err != nil {
			b.Fatal(err)
		}
		resp := server.Handle((&nfs.Request{Op: nfs.OpKrbMap, Auth: apReq,
			Cred: nfs.Credential{UID: 1001}}).Encode(), core.Addr(loopback))
		if r, _ := nfs.DecodeResponse(resp); r == nil || !r.OK {
			b.Fatal("mount mapping failed")
		}
	}
	var seq atomic.Uint32
	do := func(req *nfs.Request) {
		req.Cred = nfs.Credential{UID: 1001, GIDs: []uint32{100}}
		if mode == nfs.ModePerOpKerberos {
			auth, _, err := krb.MkReq(nfsPrincipal, seq.Add(1), false)
			if err != nil {
				b.Fatal(err)
			}
			req.Auth = auth
		}
		raw := server.Handle(req.Encode(), core.Addr(loopback))
		resp, err := nfs.DecodeResponse(raw)
		if err != nil || !resp.OK {
			b.Fatalf("%v failed: %v %s", req.Op, err, resp.Err)
		}
	}
	read = func() { do(&nfs.Request{Op: nfs.OpRead, Path: "/mit/alice/data"}) }
	write = func() {
		do(&nfs.Request{Op: nfs.OpWrite, Path: "/mit/alice/data",
			Data: payload, Mode: 0o600})
	}
	return read, write
}

// runA1 executes the read and write sub-benchmarks for one mode.
func runA1(b *testing.B, mode nfs.AuthMode) {
	for _, size := range []int{1024, 8192} {
		b.Run(fmt.Sprintf("read=%dB", size), func(b *testing.B) {
			read, _ := nfsBench(b, mode, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				read()
			}
		})
		b.Run(fmt.Sprintf("write=%dB", size), func(b *testing.B) {
			_, write := nfsBench(b, mode, size)
			b.SetBytes(int64(size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				write()
			}
		})
	}
}

// BenchmarkA1NFSTrusted is unmodified NFS: believe the packet.
func BenchmarkA1NFSTrusted(b *testing.B) { runA1(b, nfs.ModeTrusted) }

// BenchmarkA1NFSHybridMap is the shipped design: kernel credential map,
// Kerberos only at mount time.
func BenchmarkA1NFSHybridMap(b *testing.B) { runA1(b, nfs.ModeMapped) }

// BenchmarkA1NFSPerOpAuth is the rejected design: "Including a Kerberos
// authentication on each disk transaction would add a fair number of
// full-blown encryptions (done in software) per transaction and ...
// would have delivered unacceptable performance."
func BenchmarkA1NFSPerOpAuth(b *testing.B) { runA1(b, nfs.ModePerOpKerberos) }

// BenchmarkA2CredMap measures the kernel mapping-table operations the
// appendix's new system call provides.
func BenchmarkA2CredMap(b *testing.B) {
	cred := vfs.Cred{UID: 1001, GIDs: []uint32{100, 200}}
	b.Run("lookup-hit", func(b *testing.B) {
		cm := nfs.NewCredMap()
		key := nfs.MapKey{Addr: core.Addr(loopback), UID: 501}
		cm.Add(key, cred)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, ok := cm.Lookup(key); !ok {
				b.Fatal("miss")
			}
		}
	})
	b.Run("lookup-miss", func(b *testing.B) {
		cm := nfs.NewCredMap()
		key := nfs.MapKey{Addr: core.Addr(loopback), UID: 501}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cm.Lookup(key)
		}
	})
	b.Run("add-delete", func(b *testing.B) {
		cm := nfs.NewCredMap()
		key := nfs.MapKey{Addr: core.Addr(loopback), UID: 501}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cm.Add(key, cred)
			cm.Delete(key)
		}
	})
	b.Run("flush-uid-1000", func(b *testing.B) {
		b.StopTimer()
		for i := 0; i < b.N; i++ {
			cm := nfs.NewCredMap()
			for j := 0; j < 1000; j++ {
				cm.Add(nfs.MapKey{Addr: core.Addr{10, 0, byte(j >> 8), byte(j)}, UID: 501}, cred)
			}
			b.StartTimer()
			cm.FlushUID(cred.UID)
			b.StopTimer()
		}
	})
}

// BenchmarkP1Messages compares the §2.1 protection levels at several
// message sizes: safe (keyed checksum, plaintext) vs private (PCBC
// encryption) — the speed/security tradeoff the library offers.
func BenchmarkP1Messages(b *testing.B) {
	key, _ := des.NewRandomKey()
	now := time.Now()
	for _, size := range []int{64, 1024, 8192} {
		data := make([]byte, size)
		b.Run(fmt.Sprintf("safe=%dB", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				msg := core.MakeSafe(key, data, core.Addr(loopback), now)
				if _, err := core.ReadSafe(key, msg, core.Addr(loopback), now); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("priv=%dB", size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				msg := core.MakePriv(key, data, core.Addr(loopback), now)
				if _, err := core.ReadPriv(key, msg, core.Addr(loopback), now); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkP2DESModes measures the encryption library's modes (§2.2's
// speed/security tradeoff, including the PCBC extension).
func BenchmarkP2DESModes(b *testing.B) {
	key, _ := des.NewRandomKey()
	c := des.NewCipher(key)
	iv := make([]byte, 8)
	src := make([]byte, 4096)
	dst := make([]byte, 4096)
	for _, mode := range []des.Mode{des.ModeECB, des.ModeCBC, des.ModePCBC} {
		b.Run(mode.String(), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			for i := 0; i < b.N; i++ {
				if err := c.Encrypt(mode, dst, src, iv); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkX1CrossRealm measures obtaining a remote-realm service ticket
// from scratch (local TGS for the cross-realm TGT, then the remote TGS),
// over real sockets (§7.2).
func BenchmarkX1CrossRealm(b *testing.B) {
	a, err := NewRealm(RealmConfig{Name: benchRealm, MasterPassword: "a"})
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	remote, err := NewRealm(RealmConfig{Name: "LCS.MIT.EDU", MasterPassword: "b"})
	if err != nil {
		b.Fatal(err)
	}
	defer remote.Close()
	if err := TrustRealm(a, remote); err != nil {
		b.Fatal(err)
	}
	if err := a.AddUser("jis", "zanzibar"); err != nil {
		b.Fatal(err)
	}
	if _, err := remote.AddService("rlogin", "ai-lab"); err != nil {
		b.Fatal(err)
	}
	user, err := a.NewLoggedInClient("jis", "zanzibar", remote)
	if err != nil {
		b.Fatal(err)
	}
	tgt, ok := user.Cache.Get(core.TGSPrincipal(benchRealm, benchRealm), time.Now())
	if !ok {
		b.Fatal("no TGT")
	}
	remoteSvc := Principal{Name: "rlogin", Instance: "ai-lab", Realm: "LCS.MIT.EDU"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Reset the cache to just the TGT so every iteration performs
		// both TGS exchanges.
		user.Cache.Destroy()
		user.Cache.Store(tgt)
		if _, err := user.GetCredentials(remoteSvc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkT1LifetimeSweep is the §8 ablation: one iteration simulates a
// 16-hour workday under a given TGT lifetime — the user touches a
// service every 5 minutes, re-entering the password (an AS exchange)
// whenever the TGT has expired. Shorter lifetimes mean more password
// prompts; longer ones widen the stolen-ticket exposure window. The
// companion TestT1LifetimeTable prints the tradeoff table.
func BenchmarkT1LifetimeSweep(b *testing.B) {
	env := newWorkdayEnv(b)
	for _, life := range []time.Duration{30 * time.Minute, 2 * time.Hour, 8 * time.Hour, 21 * time.Hour} {
		b.Run(fmt.Sprintf("life=%v", life), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				kinits, _ := env.simulateWorkday(b, life)
				if kinits == 0 {
					b.Fatal("no logins")
				}
			}
		})
	}
}

// workdayEnv is a fake-clock realm reused across simulated days.
type workdayEnv struct {
	realm *Realm
	clock *testclock.Clock
	day   int
}

func newWorkdayEnv(tb testing.TB) *workdayEnv {
	tb.Helper()
	env := &workdayEnv{clock: testclock.New(time.Date(1988, 2, 9, 8, 0, 0, 0, time.UTC))}
	realm, err := NewRealm(RealmConfig{
		Name: benchRealm, MasterPassword: "m",
		Clock: env.clock.Now,
	})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { realm.Close() })
	if err := realm.AddUser("jis", "zanzibar"); err != nil {
		tb.Fatal(err)
	}
	if _, err := realm.AddService("rlogin", "priam"); err != nil {
		tb.Fatal(err)
	}
	// The benchmark simulates years of workdays; renew every entry far
	// past the few-years registration default so the §2.2 expiration
	// does not end the experiment.
	farFuture := time.Date(2100, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, id := range realm.DB.List() {
		name, instance, _ := strings.Cut(id, ".")
		if err := realm.DB.SetExpiration(name, instance, farFuture, "bench", env.clock.Now()); err != nil {
			tb.Fatal(err)
		}
	}
	env.realm = realm
	return env
}

// simulateWorkday drives the realm through a 16-hour day with a service
// touch every 5 minutes under the given TGT lifetime, returning how many
// password entries (kinits) were needed and the number of service
// touches. Each simulated day starts 24h after the previous one so
// authenticators never collide in the KDC's replay cache.
func (env *workdayEnv) simulateWorkday(tb testing.TB, tgtLife time.Duration) (kinits, touches int) {
	tb.Helper()
	env.day++
	env.clock.Set(time.Date(1988, 2, 9, 8, 0, 0, 0, time.UTC).AddDate(0, 0, env.day))
	svc := Principal{Name: "rlogin", Instance: "priam", Realm: benchRealm}

	c := NewClient(Principal{Name: "jis", Realm: benchRealm}, env.realm.ClientConfig())
	c.Addr = loopback
	c.Clock = env.clock.Now
	life := core.LifetimeFromDuration(tgtLife)

	end := env.clock.Now().Add(16 * time.Hour)
	for env.clock.Now().Before(end) {
		// Need a valid TGT?
		if _, ok := c.Cache.Get(core.TGSPrincipal(benchRealm, benchRealm), env.clock.Now()); !ok {
			if _, err := c.LoginService("zanzibar", core.TGSPrincipal(benchRealm, benchRealm), life); err != nil {
				tb.Fatal(err)
			}
			kinits++
		}
		if _, err := c.GetCredentials(svc); err != nil {
			tb.Fatal(err)
		}
		touches++
		env.clock.Advance(5 * time.Minute)
	}
	return kinits, touches
}

// TestT1LifetimeTable prints the §8 tradeoff table recorded in
// EXPERIMENTS.md: password entries per day and exposure window per TGT
// lifetime.
func TestT1LifetimeTable(t *testing.T) {
	if testing.Short() {
		t.Skip("table generation")
	}
	env := newWorkdayEnv(t)
	t.Logf("%-12s %-18s %-18s", "TGT life", "kinits / 16h day", "exposure window")
	for _, life := range []time.Duration{30 * time.Minute, time.Hour, 2 * time.Hour,
		4 * time.Hour, 8 * time.Hour, 21 * time.Hour} {
		kinits, touches := env.simulateWorkday(t, life)
		t.Logf("%-12v %-18d %-18v (touches=%d)", life, kinits, life, touches)
	}
}

// --- §9 at a-thousand-times scale ---------------------------------------

// s9x1000State holds the (expensive) S9x1000 fixture, built once per
// test binary: a 16-shard master with the full population, a sharded
// read-only replica fed by kprop, and a 3-instance KDC cluster over the
// replica.
var s9x1000State struct {
	once      sync.Once
	err       error
	spec      workload.Spec
	master    *kdb.Database
	replica   *kdb.Database
	propAddr  string
	cluster   *kdc.Cluster
	selectors []*kdc.Selector
}

// s9x1000Spec scales §9 by 1000: 5M users, 650k workstations, 65k
// services. KERB_S9X1000_SCALE divides the population for smoke runs
// (e.g. =1000 gives the classic Athena population).
func s9x1000Spec() workload.Spec {
	spec := workload.Spec{Users: 5_000_000, Workstations: 650_000, Services: 65_000, Seed: 9}
	if div := os.Getenv("KERB_S9X1000_SCALE"); div != "" {
		var d int
		fmt.Sscanf(div, "%d", &d)
		if d > 1 {
			spec.Users /= d
			spec.Workstations /= d
			spec.Services /= d
		}
	}
	return spec
}

func s9x1000Setup() error {
	s := &s9x1000State
	s.once.Do(func() {
		s.spec = s9x1000Spec()
		const shards = 16
		newSharded := func() *kdb.Database {
			stores := make([]kdb.Store, shards)
			for i := range stores {
				stores[i] = kdb.NewMemStore()
			}
			return kdb.NewSharded(client.PasswordKey(
				core.Principal{Name: "K", Instance: "M", Realm: benchRealm}, "master"), stores)
		}
		s.master = newSharded()
		now := time.Now()
		tgsKey, err := des.NewRandomKey()
		if err != nil {
			s.err = err
			return
		}
		if err := s.master.Add(core.TGSName, benchRealm, tgsKey, 0, "kdb_init", now); err != nil {
			s.err = err
			return
		}
		clear(tgsKey[:])
		if s.err = workload.Install(s.master, s.spec, benchRealm, now); s.err != nil {
			return
		}
		// Seed the replica shard by shard — the same per-shard dumps
		// kprop v3 ships, without paying for sockets on 300+ MB of dump.
		s.replica = newSharded()
		for i := 0; i < shards; i++ {
			if s.err = s.replica.LoadDumpShard(i, s.master.DumpShard(i)); s.err != nil {
				return
			}
		}
		s.replica.SetReadOnly(true)
		slave := kprop.NewSlave(s.replica, nil)
		l, err := kprop.Serve(slave, "127.0.0.1:0")
		if err != nil {
			s.err = err
			return
		}
		s.propAddr = l.Addr()
		// Three KDC instances over the replica, with one sticky selector
		// per instance; the driver round-robins sessions across them.
		s.cluster, s.err = kdc.NewCluster(benchRealm, s.replica, 3)
		if s.err != nil {
			return
		}
		for i := 0; i < len(s.cluster.Addrs()); i++ {
			s.selectors = append(s.selectors, s.cluster.Selector())
		}
	})
	return s.err
}

// BenchmarkS9x1000 is the scaling headline: the §9 deployment a
// thousand times over — 5,000,000 principals on 650,000 workstations —
// served by a sharded principal database behind a load-balanced
// 3-instance KDC cluster, with kprop v3 shipping per-shard deltas to
// the replica. One iteration is one user session (AS + three TGS over
// real UDP sockets). Reported alongside ns/op: sessions/s throughput,
// client-observed p99 per exchange, and the master→replica propagation
// lag for a 1,000-user churn round.
func BenchmarkS9x1000(b *testing.B) {
	if err := s9x1000Setup(); err != nil {
		b.Fatal(err)
	}
	s := &s9x1000State
	var pick atomic.Uint64
	d := &workload.Driver{
		Spec: s.spec, Realm: benchRealm,
		Exchange: func(req []byte) ([]byte, error) {
			sel := s.selectors[int(pick.Add(1))%len(s.selectors)]
			return sel.Exchange(req, 10*time.Second)
		},
		Addr:            core.Addr{127, 0, 0, 1},
		TicketsPerLogin: 3,
	}
	m := &workload.Metrics{}
	var next atomic.Uint64
	start := time.Now()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			// Stride through the population so successive sessions hit
			// different shards and different decrypted-key cache lines.
			i := int(next.Add(1)*104_729) % s.spec.Users
			if err := d.RunUser(i, m); err != nil {
				b.Fatalf("user %d: %v", i, err)
			}
		}
	})
	b.StopTimer()
	elapsed := time.Since(start)
	if f := m.Failures.Load(); f != 0 {
		b.Fatalf("%d failures", f)
	}
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "sessions/s")
	as, tgs := m.ASLatency.Snapshot(), m.TGSLatency.Snapshot()
	b.ReportMetric(float64(as.Quantile(0.99).Nanoseconds()), "as-p99-ns")
	b.ReportMetric(float64(tgs.Quantile(0.99).Nanoseconds()), "tgs-p99-ns")

	// Propagation lag: a 1,000-user churn round on the master, shipped
	// to the replica as per-shard deltas over the real socket.
	churn := 1000.0 / float64(s.spec.Users)
	if _, err := workload.Churn(s.master, s.spec, benchRealm, churn, int64(b.N), time.Now()); err != nil {
		b.Fatal(err)
	}
	mp := kprop.NewMaster(s.master, []string{s.propAddr}, nil)
	propStart := time.Now()
	if err := mp.PropagateAll(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(time.Since(propStart).Nanoseconds())/1e6, "prop-lag-ms")
	if s.replica.Digest() != s.master.Digest() {
		b.Fatal("replica diverged after churn propagation")
	}

	// Put the churned users' install-time passwords back (and ship the
	// restore) so the next harness invocation's sessions still decrypt.
	if _, err := workload.Revert(s.master, s.spec, benchRealm, churn, int64(b.N), time.Now()); err != nil {
		b.Fatal(err)
	}
	if err := mp.PropagateAll(); err != nil {
		b.Fatal(err)
	}
}

// Package workload generates the synthetic Athena-scale population used
// to reproduce §9 of the paper: "Since January of 1987, Kerberos has
// been Project Athena's sole means of authenticating its 5,000 users,
// 650 workstations, and 65 servers."
//
// The population is deterministic in its seed, so experiment runs are
// repeatable. The driver replays a synthetic workday against a KDC
// in-process (message level), measuring authentication throughput the
// way the deployment would experience it.
package workload

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"kerberos/internal/client"
	"kerberos/internal/core"
	"kerberos/internal/des"
	"kerberos/internal/kdb"
	"kerberos/internal/kdc"
	"kerberos/internal/obs"
)

// Spec sizes a synthetic deployment.
type Spec struct {
	Users        int
	Workstations int
	Services     int
	Seed         int64
}

// Athena is the §9 deployment: 5,000 users, 650 workstations, 65
// servers.
var Athena = Spec{Users: 5000, Workstations: 650, Services: 65}

// Small is a laptop-friendly smoke-test population.
var Small = Spec{Users: 50, Workstations: 10, Services: 5}

// UserName returns the i-th synthetic username.
func (s Spec) UserName(i int) string { return fmt.Sprintf("u%05d", i) }

// UserPassword returns the i-th user's password (deterministic).
func (s Spec) UserPassword(i int) string {
	return fmt.Sprintf("pw-%d-%d", s.Seed, i)
}

// UserPrincipal returns the i-th user principal in realm.
func (s Spec) UserPrincipal(i int, realm string) core.Principal {
	return core.Principal{Name: s.UserName(i), Realm: realm}
}

// WorkstationAddr returns the i-th workstation's address, spread over a
// 10.0.0.0/8-style space as Athena's subnets were over MITnet.
func (s Spec) WorkstationAddr(i int) core.Addr {
	return core.Addr{10, byte(i >> 16), byte(i >> 8), byte(i)}
}

// ServicePrincipal returns the i-th service principal: one service type
// per host, mirroring the instance-per-machine convention of §3.
func (s Spec) ServicePrincipal(i int, realm string) core.Principal {
	kinds := []string{"rlogin", "rsh", "pop", "nfs", "zephyr"}
	return core.Principal{
		Name:     kinds[i%len(kinds)],
		Instance: fmt.Sprintf("host%03d", i),
		Realm:    realm,
	}
}

// Install registers the whole population in a realm database: every
// user with a password-derived key, every service with a random key.
func Install(db *kdb.Database, spec Spec, realm string, now time.Time) error {
	for i := 0; i < spec.Users; i++ {
		if err := installUser(db, spec, realm, i, now); err != nil {
			return fmt.Errorf("workload: installing user %d: %w", i, err)
		}
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	for i := 0; i < spec.Services; i++ {
		if err := installService(db, spec, realm, i, rng.Int63(), now); err != nil {
			return fmt.Errorf("workload: installing service %d: %w", i, err)
		}
	}
	return nil
}

// installUser registers one user, wiping the derived key before the
// loop moves on (one helper call per principal keeps the wipe scoped).
func installUser(db *kdb.Database, spec Spec, realm string, i int, now time.Time) error {
	p := spec.UserPrincipal(i, realm)
	key := client.PasswordKey(p, spec.UserPassword(i))
	defer clear(key[:])
	return db.Add(p.Name, p.Instance, key, 0, "register", now)
}

// installService registers one service with a deterministic per-seed
// key, derived like a password.
func installService(db *kdb.Database, spec Spec, realm string, i int, seed int64, now time.Time) error {
	p := spec.ServicePrincipal(i, realm)
	key := des.StringToKey(fmt.Sprintf("svc-%d-%d", seed, i), realm)
	defer clear(key[:])
	return db.Add(p.Name, p.Instance, key, 0, "kadmin", now)
}

// Churn mutates a fraction of the user population, modeling the write
// traffic a live realm feeds into incremental propagation (§5.3): the
// dominant operation is a password change (SetKey), with an occasional
// deregistration and re-registration. Deterministic in (Seed, round) so
// benchmark and test runs are repeatable; returns how many journal
// changes the round produced.
func Churn(db *kdb.Database, spec Spec, realm string, fraction float64, round int64, now time.Time) (int, error) {
	if spec.Users == 0 || fraction <= 0 {
		return 0, nil
	}
	start, n := churnSpan(spec, fraction, round)
	changes := 0
	for j := 0; j < n; j++ {
		i := (start + j) % spec.Users
		p := spec.UserPrincipal(i, realm)
		if err := churnUser(db, spec, p, i, round, j%10 == 3, now); err != nil {
			return changes, fmt.Errorf("workload: churn round %d user %d: %w", round, i, err)
		}
		changes++
		if j%10 == 3 {
			changes++ // delete + re-add journals two changes
		}
	}
	return changes, nil
}

// churnSpan picks the pseudo-random user range a churn round touches.
// Deterministic in (Seed, round) so Revert can retrace the same span.
func churnSpan(spec Spec, fraction float64, round int64) (start, n int) {
	n = int(float64(spec.Users) * fraction)
	if n < 1 {
		n = 1
	}
	rng := rand.New(rand.NewSource(spec.Seed*1_000_003 + round))
	return rng.Intn(spec.Users), n
}

// Revert undoes a Churn round: every user in the round's span gets the
// install-time password back. Benchmarks that measure churn propagation
// use it so the population's keys match the Driver's again afterwards
// (the KVNOs keep climbing, as they would in a live realm).
func Revert(db *kdb.Database, spec Spec, realm string, fraction float64, round int64, now time.Time) (int, error) {
	if spec.Users == 0 || fraction <= 0 {
		return 0, nil
	}
	start, n := churnSpan(spec, fraction, round)
	for j := 0; j < n; j++ {
		i := (start + j) % spec.Users
		if err := revertUser(db, spec, spec.UserPrincipal(i, realm), i, now); err != nil {
			return j, fmt.Errorf("workload: revert round %d user %d: %w", round, i, err)
		}
	}
	return n, nil
}

// revertUser restores one user's original key — a helper call per
// principal so the derived key is wiped before the loop moves on.
func revertUser(db *kdb.Database, spec Spec, p core.Principal, i int, now time.Time) error {
	key := client.PasswordKey(p, spec.UserPassword(i))
	defer clear(key[:])
	return db.SetKey(p.Name, p.Instance, key, "kadmin", now)
}

// churnUser applies one user's churn — a helper call per principal so
// the derived key is wiped before the loop moves on.
func churnUser(db *kdb.Database, spec Spec, p core.Principal, i int, round int64, reregister bool, now time.Time) error {
	key := client.PasswordKey(p, fmt.Sprintf("%s-r%d", spec.UserPassword(i), round))
	defer clear(key[:])
	if reregister {
		if err := db.Delete(p.Name, p.Instance); err != nil {
			return err
		}
		return db.Add(p.Name, p.Instance, key, 0, "kadmin", now)
	}
	return db.SetKey(p.Name, p.Instance, key, "kadmin", now)
}

// Metrics aggregates a driver run. Beyond the exchange counts, the
// latency histograms capture the client-observed distribution of each
// round trip — the §9 experience is shaped by its tail, not its mean.
type Metrics struct {
	ASExchanges  atomic.Uint64
	TGSExchanges atomic.Uint64
	Failures     atomic.Uint64
	Elapsed      time.Duration
	ASLatency    obs.Histogram
	TGSLatency   obs.Histogram
}

// Summary renders the run in one line, with p50/p95/p99 per exchange.
func (m *Metrics) Summary() string {
	as, tgs := m.ASLatency.Snapshot(), m.TGSLatency.Snapshot()
	return fmt.Sprintf(
		"AS %d (p50 %v p95 %v p99 %v) TGS %d (p50 %v p95 %v p99 %v) failures %d in %v",
		m.ASExchanges.Load(), as.Quantile(0.50), as.Quantile(0.95), as.Quantile(0.99),
		m.TGSExchanges.Load(), tgs.Quantile(0.50), tgs.Quantile(0.95), tgs.Quantile(0.99),
		m.Failures.Load(), m.Elapsed)
}

// Driver replays user sessions against a KDC handler.
type Driver struct {
	Spec  Spec
	Realm string
	// Handle is the KDC entry point (master or slave); message-level so
	// the experiment measures the server, not the socket stack.
	Handle func(msg []byte, from core.Addr) []byte
	// Exchange, when set, carries each message to the KDC instead of
	// Handle — e.g. a kdc.Selector closure over real sockets, so
	// resilience experiments can inject packet loss, duplication, and
	// dead masters between the workstation and the KDC. It returns the
	// KDC's error reply or the reply accept took, as
	// kdc.Selector.Exchange does.
	Exchange func(req []byte, accept func(reply []byte) error) ([]byte, error)
	// Addr, when nonzero, overrides the synthetic per-user workstation
	// address. Required when driving real sockets: the KDC then sees the
	// true source address, and authenticators must carry it too.
	Addr core.Addr
	// TicketsPerLogin is how many TGS exchanges follow each login.
	TicketsPerLogin int

	seq atomic.Uint32
}

// send carries one encoded request to the KDC via whichever path the
// driver is configured with, and returns its reply opened under key,
// or the KDC's error. A reply must echo sent, the request's timestamp.
func (d *Driver) send(msg []byte, from core.Addr, key des.Key, sent core.KerberosTime) (*core.EncTicketReply, error) {
	var enc *core.EncTicketReply
	open := func(raw []byte) error {
		rep, err := core.DecodeAuthReply(raw)
		if err != nil {
			return err
		}
		opened, err := rep.Open(key)
		if err != nil {
			return err
		}
		if opened.RequestTime != sent {
			return core.NewError(core.ErrRepeat, "KDC reply does not match request")
		}
		enc = opened
		return nil
	}
	var raw []byte
	var err error
	if d.Exchange != nil {
		raw, err = d.Exchange(msg, open)
	} else if raw = d.Handle(msg, from); core.IfErrorMessage(raw) == nil {
		err = open(raw)
	}
	if err != nil {
		return nil, err
	}
	if err := core.IfErrorMessage(raw); err != nil {
		return nil, err
	}
	return enc, nil
}

// wsAddr picks the workstation address user i authenticates from.
func (d *Driver) wsAddr(i int) core.Addr {
	if d.Addr != (core.Addr{}) {
		return d.Addr
	}
	return d.Spec.WorkstationAddr(i % max(d.Spec.Workstations, 1))
}

// RunUser performs one user's session: an AS exchange (the login of
// §4.2) followed by TicketsPerLogin TGS exchanges (§4.4), verifying
// every reply cryptographically as a real workstation would.
func (d *Driver) RunUser(i int, m *Metrics) error {
	userP := d.Spec.UserPrincipal(i, d.Realm)
	userKey := client.PasswordKey(userP, d.Spec.UserPassword(i))
	defer clear(userKey[:])
	ws := d.wsAddr(i)
	now := time.Now()

	// Phase 1: initial ticket.
	asReq := &core.AuthRequest{
		Client:  userP,
		Service: core.TGSPrincipal(d.Realm, d.Realm),
		Life:    core.DefaultTGTLife,
		Time:    core.TimeFromGo(now),
	}
	asStart := time.Now()
	tgt, err := d.send(asReq.Encode(), ws, userKey, asReq.Time)
	if err != nil {
		m.Failures.Add(1)
		return err
	}
	m.ASLatency.Observe(time.Since(asStart))
	m.ASExchanges.Add(1)

	// Phases 2+3 repeated: service tickets via the TGS.
	for t := 0; t < d.TicketsPerLogin; t++ {
		svc := d.Spec.ServicePrincipal((i+t)%max(d.Spec.Services, 1), d.Realm)
		// The sequence number rides in the checksum so simultaneous
		// requests never collide in the replay cache.
		auth := core.NewAuthenticator(userP, ws, time.Now(), d.seq.Add(1))
		tgsReq := &core.TGSRequest{
			APReq: core.APRequest{
				TicketRealm:   d.Realm,
				Ticket:        tgt.Ticket,
				Authenticator: auth.Seal(tgt.SessionKey),
			},
			Service: svc,
			Life:    core.MaxLife,
			Time:    core.TimeFromGo(time.Now()),
		}
		tgsStart := time.Now()
		if _, err := d.send(tgsReq.Encode(), ws, tgt.SessionKey, tgsReq.Time); err != nil {
			m.Failures.Add(1)
			return err
		}
		m.TGSLatency.Observe(time.Since(tgsStart))
		m.TGSExchanges.Add(1)
	}
	return nil
}

// Run replays sessions for every user with the given concurrency,
// returning aggregate metrics.
func (d *Driver) Run(concurrency int) *Metrics {
	if concurrency < 1 {
		concurrency = 1
	}
	m := &Metrics{}
	start := time.Now()
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				_ = d.RunUser(i, m)
			}
		}()
	}
	for i := 0; i < d.Spec.Users; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	m.Elapsed = time.Since(start)
	return m
}

// NewRealmServer builds a KDC over a freshly installed population —
// convenience for tests and benchmarks.
func NewRealmServer(spec Spec, realm string) (*kdc.Server, *kdb.Database, error) {
	db := kdb.New(client.PasswordKey(core.Principal{Name: "K", Instance: "M", Realm: realm}, "master"))
	now := time.Now()
	tgsKey, err := des.NewRandomKey()
	defer clear(tgsKey[:]) // before the error check: cover every exit path
	if err != nil {
		return nil, nil, err
	}
	if err := db.Add(core.TGSName, realm, tgsKey, 0, "kdb_init", now); err != nil {
		return nil, nil, err
	}
	if err := Install(db, spec, realm, now); err != nil {
		return nil, nil, err
	}
	return kdc.New(realm, db), db, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

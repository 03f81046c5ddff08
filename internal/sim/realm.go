package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"kerberos/internal/client"
	"kerberos/internal/core"
	"kerberos/internal/des"
	"kerberos/internal/kdb"
	"kerberos/internal/kdc"
	"kerberos/internal/obs"
	"kerberos/internal/workload"
)

// instance is one simulated KDC server: a real kdc.Server sharing the
// realm database, fronted by a virtual queue of workers. handle is the
// current request path — the bare server, or a FaultInjector-wrapped
// version during a fault phase.
type instance struct {
	idx     int
	srv     *kdc.Server
	handle  func(msg []byte, from core.Addr) []byte
	workers []time.Time // per-worker busy-until, in virtual time
}

// Sim is one prepared simulation run: population installed, instances
// built, every cohort arrival / fault phase / churn round scheduled on
// the engine. Execute drives it to completion.
type Sim struct {
	sc   *Scenario
	spec workload.Spec
	eng  *Engine
	day  time.Time
	db   *kdb.Database
	reg  *obs.Registry

	metrics   Metrics
	instances []*instance
	sessions  []*session
	rng       *rand.Rand
	seq       uint32

	traced  bool
	modeled bool
	trace   strings.Builder

	samples        []time.Duration
	renewalOffsets []time.Duration
	replayLenMax   int
}

// Option customizes a Sim.
type Option func(*Sim)

// Untraced disables the event trace (saturation probes run millions of
// events; the trace is for scenario runs and determinism checks).
func Untraced() Option { return func(s *Sim) { s.traced = false } }

// Modeled skips the real cryptographic exchanges and drives the queue
// model alone — every delivered request succeeds after its modeled
// service time. Saturation probes use it: correctness is validated by
// the scenario tests, capacity is a function of the timing model.
func Modeled() Option { return func(s *Sim) { s.modeled = true } }

// WithObsRegistry additionally publishes the sim_* metrics on reg (a
// fresh internal registry is always built regardless).
func WithObsRegistry(reg *obs.Registry) Option {
	return func(s *Sim) { s.metrics.register(reg) }
}

// New builds a run for the scenario: realm database with the
// scenario's shard count, population install, one kdc.Server per
// instance on the shared engine clock, and every scenario event
// pre-scheduled.
func New(sc *Scenario, opts ...Option) (*Sim, error) {
	if _, err := sc.Normalize(); err != nil {
		return nil, err
	}
	day := sc.day()
	s := &Sim{
		sc:     sc,
		spec:   workload.Spec{Users: sc.Users, Workstations: sc.Workstations, Services: sc.Services, Seed: sc.Seed},
		eng:    NewEngine(day),
		day:    day,
		reg:    obs.NewRegistry(),
		rng:    rand.New(rand.NewSource(sc.Seed)),
		traced: true,
	}
	s.metrics.register(s.reg)
	for _, o := range opts {
		o(s)
	}

	// The realm database: per-shard EpochStores, deterministic master and
	// TGS keys (key material never shows in the trace, but deterministic
	// inputs keep every layer reproducible on principle).
	stores := make([]kdb.Store, sc.Topology.Shards)
	for i := range stores {
		stores[i] = kdb.NewEpochStore()
	}
	master := client.PasswordKey(core.Principal{Name: "K", Instance: "M", Realm: sc.Realm}, "sim-master")
	s.db = kdb.NewSharded(master, stores)
	tgsKey := des.StringToKey("sim-tgs", sc.Realm)
	defer clear(tgsKey[:])
	if err := s.db.Add(core.TGSName, sc.Realm, tgsKey, 0, "kdb_init", day); err != nil {
		return nil, fmt.Errorf("sim: installing TGS key: %w", err)
	}
	if !s.modeled {
		if err := workload.Install(s.db, s.spec, sc.Realm, day); err != nil {
			return nil, fmt.Errorf("sim: installing population: %w", err)
		}
	}

	for i := 0; i < sc.Topology.Instances; i++ {
		srv := kdc.New(sc.Realm, s.db, kdc.WithClock(s.eng.Clock().Now))
		inst := &instance{idx: i, srv: srv, handle: srv.Handle,
			workers: make([]time.Time, sc.Topology.Workers)}
		s.instances = append(s.instances, inst)
	}

	s.scheduleCohorts()
	s.scheduleFaults()
	s.scheduleChurn()
	s.scheduleSampling()
	return s, nil
}

// Engine exposes the event engine (tests schedule probes on it).
func (s *Sim) Engine() *Engine { return s.eng }

// Metrics exposes the run's counters while it executes.
func (s *Sim) Metrics() *Metrics { return &s.metrics }

// Registry exposes the run's obs registry (sim_* metrics).
func (s *Sim) Registry() *obs.Registry { return s.reg }

// tracef appends one deterministic event-trace line, stamped with the
// virtual offset from scenario start.
func (s *Sim) tracef(format string, args ...any) {
	if !s.traced {
		return
	}
	fmt.Fprintf(&s.trace, "+%v "+format+"\n",
		append([]any{s.eng.Now().Sub(s.day)}, args...)...)
}

// nextSeq hands out authenticator sequence numbers.
func (s *Sim) nextSeq() uint32 {
	s.seq++
	return s.seq
}

// svcTime draws the virtual service time for one exchange.
func (s *Sim) svcTime(kind exKind) time.Duration {
	base := s.sc.Service.AS.D()
	if kind == exTGS {
		base = s.sc.Service.TGS.D()
	}
	if j := s.sc.Service.Jitter.D(); j > 0 {
		base += time.Duration(s.rng.Int63n(int64(2*j))) - j
		if base < time.Microsecond {
			base = time.Microsecond
		}
	}
	return base
}

// scheduleCohorts turns every cohort member into a login event at its
// storm arrival instant.
func (s *Sim) scheduleCohorts() {
	n := len(s.instances)
	for ci, cs := range s.sc.Cohorts {
		co := cs.cohort()
		arrivals := co.Storm.Arrivals(workload.ArrivalSeed(s.sc.Seed, ci), co.Users)
		for j := 0; j < co.Users; j++ {
			sess := &session{
				sim:  s,
				co:   co,
				user: co.User(j),
				addr: s.spec.WorkstationAddr(co.User(j) % max(s.spec.Workstations, 1)),
				pref: (ci*31 + j) % n,
			}
			s.sessions = append(s.sessions, sess)
			s.eng.At(s.day.Add(arrivals[j]), sess.login)
		}
	}
}

// scheduleFaults arms each fault phase: at its start the target
// instance's handler is wrapped in a seeded FaultInjector; at its end
// the bare handler is restored and the injector's counters fold into
// the run metrics.
func (s *Sim) scheduleFaults() {
	for pi, f := range s.sc.Faults {
		pi, f := pi, f
		s.eng.At(s.day.Add(f.At.D()), func() {
			inst := s.instances[f.Instance]
			inj := kdc.NewFaultInjector(f.spec(s.sc.Seed, pi))
			inst.handle = inj.WrapHandler(inst.srv.Handle)
			s.tracef("fault instance=%d drop=%.2f dup=%.2f for=%v", f.Instance, f.Drop, f.Dup, f.Dur.D())
			s.eng.After(f.Dur.D(), func() {
				inst.handle = inst.srv.Handle
				s.metrics.Duplicates.Add(uint64(inj.Duplicated.Load()))
				s.tracef("fault-clear instance=%d sent=%d dropped=%d", f.Instance, inj.Sent.Load(), inj.Dropped.Load())
			})
		})
	}
}

// scheduleChurn arms the kadmin write phases, reusing workload.Churn /
// workload.Revert so the simulated day feeds the same journaled write
// traffic a live realm would.
func (s *Sim) scheduleChurn() {
	if s.modeled {
		return
	}
	for ci, ch := range s.sc.Churn {
		round := int64(ci + 1)
		ch := ch
		s.eng.At(s.day.Add(ch.At.D()), func() {
			n, err := workload.Churn(s.db, s.spec, s.sc.Realm, ch.Fraction, round, s.eng.Now())
			if err != nil {
				s.tracef("churn round=%d error=%v", round, err)
				return
			}
			s.metrics.ChurnChanges.Add(uint64(n))
			s.tracef("churn round=%d changes=%d", round, n)
			if ch.RevertAfter > 0 {
				s.eng.After(ch.RevertAfter.D(), func() {
					n, err := workload.Revert(s.db, s.spec, s.sc.Realm, ch.Fraction, round, s.eng.Now())
					if err != nil {
						s.tracef("revert round=%d error=%v", round, err)
						return
					}
					s.metrics.ChurnChanges.Add(uint64(n))
					s.tracef("revert round=%d changes=%d", round, n)
				})
			}
		})
	}
}

// scheduleSampling walks the replay caches every simulated half hour;
// the maximum observed size is the renewal-wave test's memory bound.
func (s *Sim) scheduleSampling() {
	if s.modeled {
		return
	}
	var tick func()
	tick = func() {
		s.sampleReplayLen()
		if s.eng.Now().Sub(s.day) < s.sc.Duration.D() {
			s.eng.After(30*time.Minute, tick)
		}
	}
	s.eng.After(30*time.Minute, tick)
}

func (s *Sim) sampleReplayLen() {
	total := 0
	for _, inst := range s.instances {
		total += inst.srv.ReplayLen()
	}
	if total > s.replayLenMax {
		s.replayLenMax = total
	}
}

// exKind distinguishes the two exchange shapes for the service-time
// model.
type exKind int

const (
	exAS exKind = iota
	exTGS
)

// xstatus is the client-observed outcome of one exchange.
type xstatus int

const (
	xOK       xstatus = iota
	xErrReply         // server answered in time with a protocol error
	xOverload         // server answered, but past the client's deadline
	xTimeout          // no answer within the attempt budget
)

// exchange carries one request to the realm through the virtual
// network and queue model: pick the preferred instance, apply its
// fault injector, queue on its least-busy worker, charge the modeled
// service time, retransmit with doubling RTO toward the next instance
// on silence. The real handler runs at event time; the latency the
// client observes is entirely virtual.
func (s *Sim) exchange(sess *session, kind exKind, msg []byte) (reply []byte, done time.Time, status xstatus) {
	now := s.eng.Now()
	cm := s.sc.Client
	deadline := now.Add(cm.Timeout.D())
	sendAt := now
	n := len(s.instances)
	for attempt := 0; attempt < cm.MaxAttempts; attempt++ {
		inst := s.instances[(sess.pref+attempt)%n]
		if attempt > 0 {
			s.metrics.Retransmits.Inc()
		}
		delivered := true
		if s.modeled {
			reply = nil
		} else {
			reply = inst.handle(msg, sess.addr)
			delivered = reply != nil
		}
		if !delivered {
			// The datagram vanished: wait out the RTO (doubling per
			// attempt) and try the next instance in rotation.
			sendAt = sendAt.Add(rto(cm.RTO.D(), attempt))
			if sendAt.After(deadline) {
				break
			}
			continue
		}
		arrive := sendAt.Add(cm.RTT.D() / 2)
		w := 0
		for i := 1; i < len(inst.workers); i++ {
			if inst.workers[i].Before(inst.workers[w]) {
				w = i
			}
		}
		start := arrive
		if inst.workers[w].After(start) {
			start = inst.workers[w]
		}
		finish := start.Add(s.svcTime(kind))
		inst.workers[w] = finish
		replyAt := finish.Add(cm.RTT.D() / 2)
		wait := start.Sub(arrive)
		lat := replyAt.Sub(now)
		s.metrics.QueueWait.Observe(wait)
		s.metrics.Latency.Observe(lat)
		s.samples = append(s.samples, lat)
		if inst.idx != sess.pref {
			s.metrics.Failovers.Inc()
			sess.pref = inst.idx // sticky: stay on the survivor
		}
		if replyAt.After(deadline) {
			s.metrics.OverloadRejections.Inc()
			return nil, replyAt, xOverload
		}
		if !s.modeled {
			if core.IfErrorMessage(reply) != nil {
				return reply, replyAt, xErrReply
			}
		}
		return reply, replyAt, xOK
	}
	s.metrics.Timeouts.Inc()
	return nil, deadline, xTimeout
}

// rto returns the retransmission backoff for the given attempt:
// base << attempt, capped at 8× base.
func rto(base time.Duration, attempt int) time.Duration {
	if attempt > 3 {
		attempt = 3
	}
	return base << uint(attempt)
}

// Result is the outcome of one executed run.
type Result struct {
	Scenario *Scenario
	Steps    int

	Metrics     *Metrics
	MetricsText []byte
	Trace       []byte

	// Exact quantiles over every exchange's virtual latency.
	P50, P99, MaxLatency time.Duration
	Samples              int

	// ReplayLenMax is the largest combined replay-cache population
	// observed at any half-hour sample.
	ReplayLenMax int

	// RenewalOffsets are the virtual offsets (from scenario start) of
	// every successful renewal exchange, in completion order.
	RenewalOffsets []time.Duration

	// KDC aggregates the real servers' counters across instances.
	KDC struct {
		AS, TGS, Errors, SkewErrors, Retransmits uint64
	}
}

// Execute runs the scenario to its end and assembles the result.
func (s *Sim) Execute() *Result {
	s.eng.Run(s.day.Add(s.sc.Duration.D()))
	if !s.modeled {
		s.sampleReplayLen()
	}
	res := &Result{
		Scenario:       s.sc,
		Steps:          s.eng.Steps(),
		Metrics:        &s.metrics,
		MetricsText:    s.metrics.Text(),
		Trace:          []byte(s.trace.String()),
		P50:            quantile(s.samples, 0.50),
		P99:            quantile(s.samples, 0.99),
		MaxLatency:     quantile(s.samples, 1.0),
		Samples:        len(s.samples),
		ReplayLenMax:   s.replayLenMax,
		RenewalOffsets: s.renewalOffsets,
	}
	for _, inst := range s.instances {
		m := inst.srv.Metrics()
		res.KDC.AS += m.ASRequests.Load()
		res.KDC.TGS += m.TGSRequests.Load()
		res.KDC.Errors += m.Errors.Load()
		res.KDC.SkewErrors += m.SkewErrors.Load()
		res.KDC.Retransmits += m.TGSRetransmits.Load()
	}
	return res
}

// Summary renders the run in a few operator-facing lines.
func (r *Result) Summary() string {
	m := r.Metrics
	return fmt.Sprintf(
		"%s: %d events | logins %d (fail %d) tgs %d (fail %d) renewals %d (fail %d)\n"+
			"rejections: skew %d overload %d timeout %d | retransmits %d failovers %d dups %d\n"+
			"latency p50 %v p99 %v max %v over %d exchanges | replay cache max %d | churn %d",
		r.Scenario.Name, r.Steps,
		m.Logins.Load(), m.LoginFailures.Load(), m.TGS.Load(), m.TGSFailures.Load(),
		m.Renewals.Load(), m.RenewalFails.Load(),
		m.SkewRejections.Load(), m.OverloadRejections.Load(), m.Timeouts.Load(),
		m.Retransmits.Load(), m.Failovers.Load(), m.Duplicates.Load(),
		r.P50, r.P99, r.MaxLatency, r.Samples, r.ReplayLenMax, m.ChurnChanges.Load())
}

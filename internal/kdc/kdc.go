// Package kdc implements the Kerberos authentication server — the
// read-only daemon of §2.2 that performs "the authentication of
// principals, and generation of session keys". One Server instance
// answers both protocol exchanges:
//
//   - the initial ticket exchange with the authentication service
//     (Figure 5), and
//   - the ticket-granting exchange (Figure 8).
//
// Because it never writes the database, a Server may run over either the
// master database or a slave's read-only copy (Figure 10).
package kdc

import (
	"errors"
	"fmt"
	"log"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/des"
	"kerberos/internal/kdb"
	"kerberos/internal/obs"
	"kerberos/internal/replay"
)

// Metrics counts and times served requests, for monitoring and for the
// §9 scale experiments. All fields are lock-free and safe to read while
// the server runs.
type Metrics struct {
	ASRequests  obs.Counter
	TGSRequests obs.Counter
	Errors      obs.Counter
	// SkewErrors counts the subset of Errors rejected for clock skew
	// (ErrSkew): a workstation whose clock drifted past ±5 minutes. The
	// realm simulator and operators read it to tell a skew epidemic — a
	// cohort of drifted clients being refused and retrying — apart from
	// overload, which rejects nothing but answers late.
	SkewErrors obs.Counter
	// TGSRetransmits counts duplicate TGS requests answered with the
	// remembered original reply instead of fresh work or a replay error.
	TGSRetransmits obs.Counter
	// UDPOverflows counts replies that exceeded the UDP datagram bound
	// and were replaced by the "retry over TCP" signal.
	UDPOverflows obs.Counter
	// UDPSendErrors counts UDP replies the socket refused to send. Each
	// is skipped; the rest of its burst is still sent.
	UDPSendErrors obs.Counter
	// ASLatency and TGSLatency distribute per-request service time,
	// including requests answered with an error reply.
	ASLatency  obs.Histogram
	TGSLatency obs.Histogram
	// BatchSizes distributes HandleBatch call sizes — how many requests
	// each drained burst actually carried (a lone datagram is a batch of
	// one).
	BatchSizes obs.SizeHistogram
}

// register attaches every field to reg under the kdc_ prefix.
func (m *Metrics) register(reg *obs.Registry) {
	reg.RegisterCounter("kdc_as_requests", &m.ASRequests)
	reg.RegisterCounter("kdc_tgs_requests", &m.TGSRequests)
	reg.RegisterCounter("kdc_errors", &m.Errors)
	reg.RegisterCounter("kdc_skew_errors", &m.SkewErrors)
	reg.RegisterCounter("kdc_tgs_retransmits", &m.TGSRetransmits)
	reg.RegisterCounter("kdc_udp_overflows", &m.UDPOverflows)
	reg.RegisterCounter("kdc_udp_send_errors", &m.UDPSendErrors)
	reg.RegisterHistogram("kdc_as_latency", &m.ASLatency)
	reg.RegisterHistogram("kdc_tgs_latency", &m.TGSLatency)
	reg.RegisterSizeHistogram("kdc_batch_size", &m.BatchSizes)
	// Library-wide crypto counter: messages sealed or unsealed through
	// the des batch entry points.
	reg.GaugeFunc("kdc_batch_scalar_ops", func() int64 {
		_, s := des.BatchCounters()
		return int64(s)
	})
}

// Server is an authentication server for one realm.
type Server struct {
	realm   string
	db      *kdb.Database
	replays *replay.Cache
	clock   func() time.Time
	logger  *log.Logger // nil: logging disabled (the request hot path pays nothing)
	metrics Metrics
	sink    obs.Sink // nil: tracing disabled (no events built, no strings rendered)
}

// Option customizes a Server.
type Option func(*Server)

// WithClock substitutes the time source (tests, simulations).
func WithClock(clock func() time.Time) Option {
	return func(s *Server) { s.clock = clock }
}

// WithLogger directs the server's request log.
func WithLogger(l *log.Logger) Option {
	return func(s *Server) { s.logger = l }
}

// WithRegistry publishes the server's metrics — request counters,
// latency histograms, and the replay cache's counters — on reg under
// the kdc_ prefix.
func WithRegistry(reg *obs.Registry) Option {
	return func(s *Server) {
		s.metrics.register(reg)
		s.replays.RegisterMetrics(reg, "kdc_replay")
	}
}

// WithTraceSink emits one obs.Event per completed AS/TGS exchange to
// sink. A nil sink (the default) disables tracing entirely.
func WithTraceSink(sink obs.Sink) Option {
	return func(s *Server) { s.sink = sink }
}

// New creates an authentication server for realm over db. The database
// must contain the realm's own TGS principal (krbtgt.<realm>).
func New(realm string, db *kdb.Database, opts ...Option) *Server {
	s := &Server{
		realm:   realm,
		db:      db,
		replays: replay.New(),
		clock:   time.Now,
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Realm returns the realm this server authenticates for.
func (s *Server) Realm() string { return s.realm }

// Metrics exposes the request counters and latency histograms.
func (s *Server) Metrics() *Metrics { return &s.metrics }

// ReplayLen reports how many authenticators the replay cache currently
// holds — the number the renewal-wave simulation watches to prove the
// amortized sweep keeps memory bounded across a day of bursts.
func (s *Server) ReplayLen() int { return s.replays.Len() }

// Handle processes one encoded request from the given address and
// returns the encoded reply. It is transport-independent: the TCP
// listener, in-process tests, and benchmarks call it; UDP bursts go
// through HandleBatch. It runs the request pipeline HandleBatch runs,
// on a batch of one. It never returns nil; protocol failures become
// MsgError replies.
func (s *Server) Handle(msg []byte, from core.Addr) []byte {
	one := [1]BatchRequest{{Msg: msg, From: from}}
	s.handleBatch(one[:])
	return one[0].Reply
}

func (s *Server) errorReply(err error) []byte {
	s.metrics.Errors.Inc()
	var pe *core.ProtocolError
	if !errors.As(err, &pe) {
		pe = core.NewError(core.ErrGeneric, "%v", err)
	}
	if pe.Code == core.ErrSkew {
		s.metrics.SkewErrors.Inc()
	}
	if s.logger != nil {
		s.logger.Printf("kdc %s: error reply: %v", s.realm, pe)
	}
	return (&core.ErrorMessage{Code: pe.Code, Text: pe.Text}).Encode()
}

// fail builds the error reply and, when tracing, records the protocol
// error code on the exchange's event.
func (s *Server) fail(ev *obs.Event, err error) []byte {
	if s.sink != nil {
		var pe *core.ProtocolError
		if errors.As(err, &pe) {
			ev.Err = pe.Code.String()
		} else {
			ev.Err = err.Error()
		}
	}
	return s.errorReply(err)
}

// trace finishes and emits ev; a no-op without a sink.
func (s *Server) trace(ev *obs.Event, kind obs.Kind, start time.Time, d time.Duration, reply []byte) {
	if s.sink == nil {
		return
	}
	ev.Kind = kind
	ev.Time = start
	ev.Duration = d
	ev.Bytes = len(reply)
	s.sink.Emit(*ev)
}

// lookup reads a principal's entry from this realm's database into
// the lane's e, mapping kdb errors to protocol errors. The entry may
// alias the store and must be treated as read-only.
func (s *Server) lookup(p core.Principal, now time.Time, e *kdb.Entry) error {
	if err := s.db.Lookup(p.Name, p.Instance, e); err != nil {
		return core.NewError(core.ErrPrincipalUnknown, "%v", p)
	}
	if e.Expired(now) {
		return core.NewError(core.ErrPrincipalExpired, "%v expired %v", p, e.Expiration)
	}
	return nil
}

// effMaxLife interprets an entry's MaxLife: zero means "no specific
// limit".
func effMaxLife(e *kdb.Entry) core.Lifetime {
	if e.MaxLife == 0 {
		return core.MaxLife
	}
	return e.MaxLife
}

// RegisterCrossRealm records the shared inter-realm key in db: "the
// administrators of each pair of realms select a key to be shared
// between their realms" (§7.2). Call it on both realms' databases with
// the same key; each side stores it as krbtgt.<other realm>.
func RegisterCrossRealm(db *kdb.Database, otherRealm string, shared des.Key, now time.Time) error {
	err := db.Add(core.TGSName, otherRealm, shared, 0, "cross-realm", now)
	if err != nil {
		return fmt.Errorf("kdc: registering cross-realm key for %s: %w", otherRealm, err)
	}
	return nil
}

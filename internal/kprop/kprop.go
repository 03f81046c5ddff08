// Package kprop implements the database propagation software of §5.3
// (Figure 13): "A program on the master host, called kprop, sends the
// update to a peer program, called kpropd, running on each of the slave
// machines. First kprop sends a checksum of the new database it is about
// to send. The checksum is encrypted in the Kerberos master database
// key, which both the master and slave Kerberos machines possess. The
// data is then transferred over the network ... The slave propagation
// server calculates a checksum of the data it has received, and if it
// matches the checksum sent by the master, the new information is used
// to update the slave's database."
//
// On top of the paper's full-dump scheme, one conversation per shard of
// the database (an unsharded database is one shard): the slave
// advertises the (serial, digest) its shard is at and the master ships
// only the flate-compressed journal segment it is missing — O(churn)
// instead of O(database) per round — falling back to a compressed full
// dump of the shard whenever the slave's state cannot be verified (out
// of retention, diverged, ahead, or the slave rejects the delta).
// Fan-out over (slave, shard) pairs runs with bounded concurrency and
// optional per-slave retry/backoff instead of one serial round per slave.
package kprop

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"
	"time"

	"kerberos/internal/des"
	"kerberos/internal/kdb"
	"kerberos/internal/obs"
)

// DefaultInterval is how often the master pushes the database: "The
// master database is dumped every hour" (§5.3).
const DefaultInterval = time.Hour

// DefaultFanout bounds how many slaves one round updates concurrently.
const DefaultFanout = 4

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Option customizes a Master or a Slave.
type Option func(*options)

type options struct {
	reg       *obs.Registry
	sink      obs.Sink
	fanout    int
	forceFull bool
	retries   int
	backoff   time.Duration
	dial      func(addr string, timeout time.Duration) (net.Conn, error)
}

// WithRegistry publishes propagation metrics on reg (kprop_* for the
// master side, kpropd_* for the slave side).
func WithRegistry(reg *obs.Registry) Option {
	return func(o *options) { o.reg = reg }
}

// WithTraceSink emits one obs.KpropRound event per push (master side)
// to sink.
func WithTraceSink(sink obs.Sink) Option {
	return func(o *options) { o.sink = sink }
}

// WithFanout bounds the number of slaves updated concurrently per round
// (master side). n < 1 means DefaultFanout; 1 restores serial rounds.
func WithFanout(n int) Option {
	return func(o *options) { o.fanout = n }
}

// WithForceFull disables deltas: every push ships a full (still
// compressed) dump, the paper's original behaviour.
func WithForceFull() Option {
	return func(o *options) { o.forceFull = true }
}

// WithRetry retries a failed slave push up to retries more times within
// the same round, sleeping backoff (with jitter, doubling per attempt)
// in between. The default is no retries.
func WithRetry(retries int, backoff time.Duration) Option {
	return func(o *options) { o.retries, o.backoff = retries, backoff }
}

// WithDialer replaces the TCP dialer (master side) — used by tests and
// benchmarks to inject latency or failures.
func WithDialer(dial func(addr string, timeout time.Duration) (net.Conn, error)) Option {
	return func(o *options) { o.dial = dial }
}

// masterMetrics tracks the kprop side: how many rounds went out as
// deltas versus full dumps, why full dumps happened, how many bytes hit
// the wire for each, and how long pushes and whole fan-out rounds take.
type masterMetrics struct {
	pushes       obs.Counter
	failures     obs.Counter
	retries      obs.Counter
	bytes        obs.Counter // total wire bytes, delta + full
	deltaRounds  obs.Counter
	fullRounds   obs.Counter
	deltaBytes   obs.Counter
	fullBytes    obs.Counter
	fbRetention  obs.Counter // slave behind the journal horizon
	fbAhead      obs.Counter // slave ahead of the master (other lineage)
	fbDivergence obs.Counter // digest mismatch at a known serial
	fbReject     obs.Counter // slave NACKed a delta and asked for full
	lastSuccess  obs.Gauge   // unix seconds of the last successful push
	roundLatency obs.Histogram
	fanoutLat    obs.Histogram
}

func (m *masterMetrics) register(reg *obs.Registry) {
	reg.RegisterCounter("kprop_pushes", &m.pushes)
	reg.RegisterCounter("kprop_failures", &m.failures)
	reg.RegisterCounter("kprop_retries", &m.retries)
	reg.RegisterCounter("kprop_bytes", &m.bytes)
	reg.RegisterCounter("kprop_delta_rounds", &m.deltaRounds)
	reg.RegisterCounter("kprop_full_rounds", &m.fullRounds)
	reg.RegisterCounter("kprop_delta_bytes", &m.deltaBytes)
	reg.RegisterCounter("kprop_full_bytes", &m.fullBytes)
	reg.RegisterCounter("kprop_fallback_retention", &m.fbRetention)
	reg.RegisterCounter("kprop_fallback_ahead", &m.fbAhead)
	reg.RegisterCounter("kprop_fallback_divergence", &m.fbDivergence)
	reg.RegisterCounter("kprop_fallback_reject", &m.fbReject)
	reg.RegisterGauge("kprop_last_success_unix", &m.lastSuccess)
	reg.RegisterHistogram("kprop_round_latency", &m.roundLatency)
	reg.RegisterHistogram("kprop_fanout_latency", &m.fanoutLat)
}

// Master is the kprop side: it tracks what each slave has acknowledged
// and pushes deltas (or full dumps) to bring them current.
type Master struct {
	db        *kdb.Database
	slaves    []string
	logger    *log.Logger
	metrics   masterMetrics
	sink      obs.Sink
	fanout    int
	forceFull bool
	retries   int
	backoff   time.Duration
	dial      func(addr string, timeout time.Duration) (net.Conn, error)

	mu    sync.Mutex
	acked map[string]uint64 // slave addr → last acked serial
}

// NewMaster creates the propagation client for the master database.
func NewMaster(db *kdb.Database, slaveAddrs []string, logger *log.Logger, opts ...Option) *Master {
	if logger == nil {
		logger = log.New(discard{}, "", 0)
	}
	o := options{fanout: DefaultFanout, backoff: 250 * time.Millisecond}
	for _, opt := range opts {
		opt(&o)
	}
	if o.fanout < 1 {
		o.fanout = DefaultFanout
	}
	if o.dial == nil {
		o.dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp4", addr, timeout)
		}
	}
	m := &Master{
		db: db, slaves: slaveAddrs, logger: logger, sink: o.sink,
		fanout: o.fanout, forceFull: o.forceFull,
		retries: o.retries, backoff: o.backoff, dial: o.dial,
		acked: make(map[string]uint64, len(slaveAddrs)),
	}
	if o.reg != nil {
		m.metrics.register(o.reg)
		o.reg.GaugeFunc("kprop_serial", func() int64 { return int64(db.Serial()) })
		for _, addr := range slaveAddrs {
			addr := addr
			o.reg.GaugeFunc(fmt.Sprintf("kprop_slave_lag{slave=%q}", addr), func() int64 {
				return int64(db.Serial() - m.AckedSerial(addr))
			})
		}
	}
	return m
}

// shardKey renders the acked-map key for one slave's shard.
func shardKey(addr string, shard int) string {
	return fmt.Sprintf("%s#%d", addr, shard)
}

// AckedSerial reports the last serial a slave acknowledged (0 before the
// first successful push this process made to it): the sum of the
// per-shard acked serials, comparable to Database.Serial.
func (m *Master) AckedSerial(addr string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum uint64
	for i := 0; i < m.db.Shards(); i++ {
		sum += m.acked[shardKey(addr, i)]
	}
	return sum
}

// AckedShardSerial reports the last serial a slave acknowledged for one
// shard.
func (m *Master) AckedShardSerial(addr string, shard int) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.acked[shardKey(addr, shard)]
}

func (m *Master) setAcked(addr string, shard int, serial uint64) {
	key := shardKey(addr, shard)
	m.mu.Lock()
	if serial > m.acked[key] {
		m.acked[key] = serial
	}
	m.mu.Unlock()
}

// sealSum computes the §5.3 keyed checksum of data and seals it in the
// master database key.
func sealSum(key des.Key, data []byte) []byte {
	var sumBytes [8]byte
	binary.BigEndian.PutUint64(sumBytes[:], kdb.DumpChecksum(key, data))
	return des.Seal(key, sumBytes[:])
}

// openSum unseals a §5.3 checksum.
func openSum(key des.Key, sealed []byte) (uint64, error) {
	sumBytes, err := des.Unseal(key, sealed)
	if err != nil || len(sumBytes) != 8 {
		return 0, errors.New("kprop: checksum not sealed in the master database key")
	}
	return binary.BigEndian.Uint64(sumBytes), nil
}

// round caches the expensive full-dump artifacts so one fan-out round
// dumps, checksums, and compresses each shard at most once no matter how
// many slaves need the full path.
type round struct {
	m     *Master
	fulls []roundFull // by shard
}

type roundFull struct {
	once    sync.Once
	msg     []byte // encoded FullDumpMsg
	rawLen  int    // uncompressed dump size
	wireLen int    // compressed payload size
}

func newRound(m *Master) *round {
	return &round{m: m, fulls: make([]roundFull, m.db.Shards())}
}

// fullMsg returns the cached full-dump message for one shard.
func (r *round) fullMsg(shard int) ([]byte, int, int) {
	rf := &r.fulls[shard]
	rf.once.Do(func() {
		dump := r.m.db.DumpShard(shard)
		payload := deflate(dump)
		f := FullDumpMsg{SealedSum: sealSum(r.m.db.MasterKey(), dump), Payload: payload}
		rf.msg = f.Encode()
		rf.rawLen = len(dump)
		rf.wireLen = len(payload)
	})
	return rf.msg, rf.rawLen, rf.wireLen
}

// pushResult describes what one push shipped.
type pushResult struct {
	kind      string // "delta" or "full"
	fallback  string // why a full dump was sent, "" for a chosen delta
	wireBytes int    // payload bytes on the wire (compressed)
	changes   int    // delta changes shipped
	serial    uint64 // serial the slave acked
}

// PropagateTo pushes one update (delta if possible) to a single kpropd —
// every shard, in parallel bounded by the fanout.
//
//kerb:clockadapter -- propagation latency metrics and dial deadlines are wall-clock
func (m *Master) PropagateTo(addr string) error {
	rnd := newRound(m)
	sem := make(chan struct{}, m.fanout)
	var (
		wg   sync.WaitGroup
		emu  sync.Mutex
		errs []error
	)
	for shard := 0; shard < m.db.Shards(); shard++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(shard int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := m.push(addr, shard, rnd); err != nil {
				emu.Lock()
				errs = append(errs, err)
				emu.Unlock()
			}
		}(shard)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// push runs one instrumented exchange with one shard of one slave.
//
//kerb:clockadapter -- propagation latency metrics are wall-clock observability
func (m *Master) push(addr string, shard int, rnd *round) error {
	start := time.Now()
	res, err := m.exchange(addr, shard, rnd)
	d := time.Since(start)
	m.metrics.pushes.Inc()
	m.metrics.roundLatency.Observe(d)
	if err != nil {
		m.metrics.failures.Inc()
	} else {
		m.metrics.bytes.Add(uint64(res.wireBytes))
		m.metrics.lastSuccess.Set(time.Now().Unix())
		m.setAcked(addr, shard, res.serial)
		switch res.kind {
		case "delta":
			m.metrics.deltaRounds.Inc()
			m.metrics.deltaBytes.Add(uint64(res.wireBytes))
			m.logger.Printf("kprop: delta %d changes (%d bytes) to %s, serial %d",
				res.changes, res.wireBytes, addr, res.serial)
		case "full":
			m.metrics.fullRounds.Inc()
			m.metrics.fullBytes.Add(uint64(res.wireBytes))
			m.logger.Printf("kprop: full dump (%d bytes, %d principals) to %s (%s), serial %d",
				res.wireBytes, m.db.Len(), addr, res.fallback, res.serial)
		}
	}
	switch res.fallback {
	case kdb.FallbackRetention.String():
		m.metrics.fbRetention.Inc()
	case kdb.FallbackAhead.String():
		m.metrics.fbAhead.Inc()
	case kdb.FallbackDivergence.String():
		m.metrics.fbDivergence.Inc()
	case "reject":
		m.metrics.fbReject.Inc()
	}
	if m.sink != nil {
		ev := obs.Event{
			Kind:     obs.KpropRound,
			Time:     start,
			Duration: d,
			Service:  addr,
			Bytes:    res.wireBytes,
			Detail:   res.kind,
		}
		if res.fallback != "" {
			ev.Detail = res.kind + ":" + res.fallback
		}
		if err != nil {
			ev.Err = err.Error()
		}
		m.sink.Emit(ev)
	}
	return err
}

// exchange speaks one conversation with a slave about one shard.
//
//kerb:clockadapter -- connection deadlines are wall-clock I/O timeouts
func (m *Master) exchange(addr string, shard int, rnd *round) (pushResult, error) {
	var res pushResult
	conn, err := m.dial(addr, 5*time.Second)
	if err != nil {
		return res, fmt.Errorf("kprop: connecting to %s: %w", addr, err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(60 * time.Second))

	hello := MasterHello{
		Version: wireVersion,
		Serial:  m.db.ShardSerial(shard),
		Digest:  m.db.ShardDigest(shard),
		Shard:   uint32(shard),
		Shards:  uint32(m.db.Shards()),
	}
	if err := writeFrame(conn, hello.Encode()); err != nil {
		return res, fmt.Errorf("kprop: sending hello to %s: %w", addr, err)
	}
	frame, err := readFrame(conn)
	if err != nil {
		return res, fmt.Errorf("kprop: reading hello from %s: %w", addr, err)
	}
	sh, err := DecodeSlaveHello(frame)
	if err != nil {
		return res, fmt.Errorf("kprop: slave %s hello: %w", addr, err)
	}

	sendFull := m.forceFull
	if !sendFull {
		recs, verdict := m.db.ChangesSinceShard(shard, sh.Serial, sh.Digest)
		if verdict != kdb.DeltaOK {
			sendFull = true
			res.fallback = verdict.String()
		} else {
			seg := kdb.EncodeChanges(recs)
			to := sh.Serial + uint64(len(recs))
			d := DeltaMsg{
				From:      sh.Serial,
				To:        to,
				SealedSum: sealSum(m.db.MasterKey(), seg),
				Payload:   deflate(seg),
			}
			if err := writeFrame(conn, d.Encode()); err != nil {
				return res, fmt.Errorf("kprop: sending delta to %s: %w", addr, err)
			}
			res.kind = "delta"
			res.changes = len(recs)
			res.wireBytes = len(d.Payload)
			ack, err := m.readAck(conn, addr)
			if err != nil {
				return res, err
			}
			if ack.OK {
				res.serial = ack.Serial
				return res, nil
			}
			if !ack.NeedFull {
				return res, fmt.Errorf("kprop: slave %s rejected delta: %s", addr, ack.Err)
			}
			// The slave could not apply the delta (e.g. it restarted into
			// a diverged copy between hello and apply) and asked for a
			// full resync on this connection.
			sendFull = true
			res.fallback = "reject"
		}
	}

	msg, _, wireLen := rnd.fullMsg(shard)
	if err := writeFrame(conn, msg); err != nil {
		return res, fmt.Errorf("kprop: sending dump to %s: %w", addr, err)
	}
	res.kind = "full"
	res.wireBytes += wireLen
	ack, err := m.readAck(conn, addr)
	if err != nil {
		return res, err
	}
	if !ack.OK {
		return res, fmt.Errorf("kprop: slave %s rejected dump: %s", addr, ack.Err)
	}
	res.serial = ack.Serial
	return res, nil
}

func (m *Master) readAck(conn net.Conn, addr string) (AckMsg, error) {
	frame, err := readFrame(conn)
	if err != nil {
		return AckMsg{}, fmt.Errorf("kprop: reading ack from %s: %w", addr, err)
	}
	ack, err := DecodeAckMsg(frame)
	if err != nil {
		return AckMsg{}, fmt.Errorf("kprop: slave %s ack: %w", addr, err)
	}
	return ack, nil
}

// pushWithRetry retries transient failures with jittered, doubling
// backoff — one sick slave costs its own retries, never the round.
//
//kerb:clockadapter -- retry backoff sleeps are wall-clock by nature
func (m *Master) pushWithRetry(addr string, shard int, rnd *round) error {
	err := m.push(addr, shard, rnd)
	for attempt := 0; err != nil && attempt < m.retries; attempt++ {
		m.metrics.retries.Inc()
		sleep := m.backoff << attempt
		sleep += time.Duration(rand.Int63n(int64(sleep)/2 + 1))
		time.Sleep(sleep)
		err = m.push(addr, shard, rnd)
	}
	return err
}

// PropagateAll pushes to every configured slave with bounded
// concurrency, collecting errors; one sick slave does not block the
// others. The work units are (slave, shard) pairs, so independent shards
// of independent slaves ship in parallel. Each shard's full dump, if any
// slave needs it, is computed once.
//
//kerb:clockadapter -- fan-out round latency metric is wall-clock observability
func (m *Master) PropagateAll() error {
	start := time.Now()
	rnd := newRound(m)
	sem := make(chan struct{}, m.fanout)
	var (
		wg   sync.WaitGroup
		emu  sync.Mutex
		errs []error
	)
	for _, addr := range m.slaves {
		for shard := 0; shard < m.db.Shards(); shard++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(addr string, shard int) {
				defer wg.Done()
				defer func() { <-sem }()
				if err := m.pushWithRetry(addr, shard, rnd); err != nil {
					m.logger.Printf("kprop: %v", err)
					emu.Lock()
					errs = append(errs, err)
					emu.Unlock()
				}
			}(addr, shard)
		}
	}
	wg.Wait()
	m.metrics.fanoutLat.Observe(time.Since(start))
	return errors.Join(errs...)
}

// Run pushes on the given interval until the context is cancelled — the
// periodic kick-off the administrator arranges (§6.3). A zero interval
// means DefaultInterval.
func (m *Master) Run(ctx context.Context, interval time.Duration) {
	if interval == 0 {
		interval = DefaultInterval
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			_ = m.PropagateAll()
		}
	}
}

// slaveMetrics tracks the kpropd side: installed and rejected updates,
// the delta/full split, resync recoveries, bytes received, and how long
// an install (verify + swap) takes.
type slaveMetrics struct {
	updates        obs.Counter
	rejected       obs.Counter
	deltas         obs.Counter
	fulls          obs.Counter
	resyncs        obs.Counter // deltas that failed and healed via full dump
	bytes          obs.Counter
	lastBytes      obs.Gauge
	serial         obs.Gauge
	installLatency obs.Histogram
}

func (m *slaveMetrics) register(reg *obs.Registry) {
	reg.RegisterCounter("kpropd_updates", &m.updates)
	reg.RegisterCounter("kpropd_rejected", &m.rejected)
	reg.RegisterCounter("kpropd_deltas", &m.deltas)
	reg.RegisterCounter("kpropd_fulls", &m.fulls)
	reg.RegisterCounter("kpropd_resyncs", &m.resyncs)
	reg.RegisterCounter("kpropd_bytes", &m.bytes)
	reg.RegisterGauge("kpropd_last_bytes", &m.lastBytes)
	reg.RegisterGauge("kpropd_serial", &m.serial)
	reg.RegisterHistogram("kpropd_install_latency", &m.installLatency)
}

// Slave is the kpropd side: it receives updates, verifies them against
// the encrypted checksum, and applies them to the local read-only
// database — deltas atomically in place, full dumps as a swap. Over a
// SegmentStore every update is durable before it is acknowledged.
type Slave struct {
	db      *kdb.Database
	logger  *log.Logger
	metrics slaveMetrics
}

// NewSlave creates the propagation server over a slave database. The
// database is forced read-only: only propagation may modify it (§5).
func NewSlave(db *kdb.Database, logger *log.Logger, opts ...Option) *Slave {
	if logger == nil {
		logger = log.New(discard{}, "", 0)
	}
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	db.SetReadOnly(true)
	s := &Slave{db: db, logger: logger}
	if o.reg != nil {
		s.metrics.register(o.reg)
	}
	return s
}

// Updates reports how many updates (deltas or dumps) have been installed.
func (s *Slave) Updates() uint64 { return s.metrics.updates.Load() }

// Rejected reports how many updates failed verification.
func (s *Slave) Rejected() uint64 { return s.metrics.rejected.Load() }

// Resyncs reports how many failed deltas were healed by a full dump.
func (s *Slave) Resyncs() uint64 { return s.metrics.resyncs.Load() }

// Fulls reports how many full-dump installs have been applied.
func (s *Slave) Fulls() uint64 { return s.metrics.fulls.Load() }

// handleConn processes one kprop conversation about one shard.
//
//kerb:clockadapter -- connection read deadlines are wall-clock I/O timeouts
func (s *Slave) handleConn(conn net.Conn) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(60 * time.Second))

	first, err := readFrame(conn)
	if err != nil {
		return
	}
	hello, err := DecodeMasterHello(first)
	if err != nil {
		return
	}
	// The conversation is only valid when the slave's shard shape
	// matches the master's. On a mismatch the slave still answers the
	// handshake but NACKs the update — the operator re-shards
	// deliberately, never by propagation accident.
	shard := int(hello.Shard)
	mismatch := ""
	if int(hello.Shards) != s.db.Shards() {
		mismatch = fmt.Sprintf("kpropd: master has %d shards, slave has %d", hello.Shards, s.db.Shards())
	}
	sh := SlaveHello{}
	if mismatch == "" {
		sh = SlaveHello{
			Serial:     s.db.ShardSerial(shard),
			Digest:     s.db.ShardDigest(shard),
			Principals: uint32(s.db.ShardLen(shard)),
		}
	}
	// On a mismatch the zero state never tempts the master into a delta
	// it would build against the wrong shard shape.
	if err := writeFrame(conn, sh.Encode()); err != nil {
		return
	}
	msg, err := readFrame(conn)
	if err != nil {
		return
	}
	var ack AckMsg
	if mismatch != "" {
		s.metrics.rejected.Inc()
		s.logger.Printf("%s", mismatch)
		ack = AckMsg{Err: mismatch}
	} else {
		ack = s.applyUpdate(hello, msg, shard)
	}
	if err := writeFrame(conn, ack.Encode()); err != nil {
		return
	}
	if !ack.NeedFull {
		return
	}
	// The delta could not be applied; the master sends a full dump on
	// the same connection and the slave heals from it.
	msg, err = readFrame(conn)
	if err != nil {
		return
	}
	ack = s.applyUpdate(hello, msg, shard)
	if ack.OK {
		s.metrics.resyncs.Inc()
	}
	writeFrame(conn, ack.Encode())
}

// applyUpdate dispatches one update message for a shard and returns the
// ack.
func (s *Slave) applyUpdate(hello MasterHello, msg []byte, shard int) AckMsg {
	if len(msg) >= 5 && [4]byte(msg[:4]) == wireMagic {
		switch msg[4] {
		case kindDelta:
			return s.applyDelta(hello, msg, shard)
		case kindFullDump:
			return s.applyFull(msg, shard)
		}
	}
	s.metrics.rejected.Inc()
	return AckMsg{Serial: s.db.ShardSerial(shard), Err: "kpropd: unknown update message"}
}

// applyDelta verifies and atomically applies a journal segment. Any
// failure asks the master for a full resync: stale or out-of-order
// serials, a checksum that does not open under the master key, or a
// digest chain that does not land where the master said it would.
func (s *Slave) applyDelta(hello MasterHello, msg []byte, shard int) AckMsg {
	changes, payloadLen, wantDigest, err := s.verifyDelta(hello, msg)
	if err != nil {
		s.metrics.rejected.Inc() // install() was never reached
	} else {
		err = s.install(func() error { return s.db.ApplyChangesShard(shard, changes, wantDigest) }, payloadLen)
	}
	if err != nil {
		s.logger.Printf("kpropd: delta rejected: %v", err)
		return AckMsg{Serial: s.db.ShardSerial(shard), NeedFull: true, Err: err.Error()}
	}
	s.metrics.deltas.Inc()
	s.logger.Printf("kpropd: applied delta of %d changes, serial %d", len(changes), s.db.Serial())
	return AckMsg{Serial: s.db.ShardSerial(shard), OK: true}
}

// verifyDelta decodes, decompresses, and checksum-verifies a delta
// message without touching the database.
func (s *Slave) verifyDelta(hello MasterHello, msg []byte) (changes []kdb.Change, payloadLen int, wantDigest uint64, err error) {
	d, err := DecodeDeltaMsg(msg)
	if err != nil {
		return nil, 0, 0, err
	}
	seg, err := inflate(d.Payload)
	if err != nil {
		return nil, 0, 0, err
	}
	want, err := openSum(s.db.MasterKey(), d.SealedSum)
	if err != nil {
		return nil, 0, 0, err
	}
	if got := kdb.DumpChecksum(s.db.MasterKey(), seg); got != want {
		return nil, 0, 0, fmt.Errorf("kpropd: delta checksum %x does not match master's %x", got, want)
	}
	changes, err = kdb.DecodeChanges(seg)
	if err != nil {
		return nil, 0, 0, err
	}
	if len(changes) > 0 && changes[0].Serial != d.From+1 {
		return nil, 0, 0, fmt.Errorf("kpropd: delta starts at serial %d, header says %d", changes[0].Serial, d.From+1)
	}
	// When the delta lands exactly on the master's advertised state, the
	// applied digest chain must land on the master's digest — the
	// divergence check that catches same-serial different-history copies.
	if d.To == hello.Serial {
		wantDigest = hello.Digest
	}
	return changes, len(d.Payload), wantDigest, nil
}

// applyFull verifies and installs a compressed full dump of one shard.
// A dump that fails to install — a bad checksum, or a disk error under
// the store — is refused, and the shard keeps serving its previous
// copy.
func (s *Slave) applyFull(msg []byte, shard int) AckMsg {
	f, err := DecodeFullDumpMsg(msg)
	var dump []byte
	if err == nil {
		dump, err = inflate(f.Payload)
	}
	if err != nil {
		s.metrics.rejected.Inc() // InstallShard() was never reached
		s.logger.Printf("kpropd: rejected update: %v", err)
		return AckMsg{Serial: s.db.ShardSerial(shard), Err: err.Error()}
	}
	if err := s.InstallShard(shard, f.SealedSum, dump); err != nil {
		s.logger.Printf("kpropd: rejected update: %v", err)
		return AckMsg{Serial: s.db.ShardSerial(shard), Err: err.Error()}
	}
	s.metrics.fulls.Inc()
	return AckMsg{Serial: s.db.ShardSerial(shard), OK: true}
}

// InstallShard verifies a (sealed checksum, uncompressed dump) pair and
// swaps it into one shard, contents and lineage. "it is essential that
// only information from the master host be accepted by the slaves, and
// that tampering of data be detected, thus the checksum" (§5.3).
//
//kerb:clockadapter -- install latency metrics are wall-clock observability, not protocol time
func (s *Slave) InstallShard(shard int, sealedSum, dump []byte) error {
	return s.install(func() error {
		want, err := openSum(s.db.MasterKey(), sealedSum)
		if err != nil {
			return err
		}
		if got := kdb.DumpChecksum(s.db.MasterKey(), dump); got != want {
			return fmt.Errorf("kpropd: dump checksum %x does not match master's %x", got, want)
		}
		if err := s.db.LoadDumpShard(shard, dump); err != nil {
			return fmt.Errorf("kpropd: installing shard dump: %w", err)
		}
		return nil
	}, len(dump))
}

// install runs one verified apply under the install metrics.
//
//kerb:clockadapter -- install latency metrics are wall-clock observability, not protocol time
func (s *Slave) install(apply func() error, wireBytes int) error {
	start := time.Now()
	err := apply()
	s.metrics.installLatency.Observe(time.Since(start))
	if err != nil {
		s.metrics.rejected.Inc()
		return err
	}
	s.metrics.updates.Inc()
	s.metrics.bytes.Add(uint64(wireBytes))
	s.metrics.lastBytes.Set(int64(wireBytes))
	s.metrics.serial.Set(int64(s.db.Serial()))
	s.logger.Printf("kpropd: installed update (%d wire bytes, %d principals, serial %d)",
		wireBytes, s.db.Len(), s.db.Serial())
	return nil
}

// Listener serves kpropd over TCP.
type Listener struct {
	tcp    net.Listener
	wg     sync.WaitGroup
	ctx    context.Context
	cancel context.CancelFunc
}

// Serve binds kpropd on addr.
func Serve(s *Slave, addr string) (*Listener, error) {
	tcp, err := net.Listen("tcp4", addr)
	if err != nil {
		return nil, fmt.Errorf("kpropd: binding: %w", err)
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
				s.handleConn(conn)
			}()
		}
	}()
	return l, nil
}

// Addr returns the bound address.
func (l *Listener) Addr() string { return l.tcp.Addr().String() }

// Close stops the listener.
func (l *Listener) Close() error {
	l.cancel()
	l.tcp.Close()
	l.wg.Wait()
	return nil
}

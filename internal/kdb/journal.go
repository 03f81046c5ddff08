package kdb

import (
	"errors"
	"fmt"
	"hash/fnv"
)

// Incremental propagation support (the kprop delta plane). The paper's §4.3
// scheme ships the whole database "about once an hour"; at millions of
// principals that is the dominant replication cost, so the database now
// keeps a monotonic serial, a rolling content digest, and a bounded
// in-memory journal of entry-level changes. A slave that advertises a
// (serial, digest) the master can still verify receives only the journal
// segment it is missing — O(churn) instead of O(database) — and anything
// the master cannot verify (serial out of retention, digest mismatch, a
// slave from a different lineage) falls back to a full dump.
//
// The digest is a chained FNV-1a over the canonical encoding of every
// change since the last full load. It is NOT an integrity mechanism —
// transit integrity stays with the master-key CBC checksum of §5.3 — it
// exists to detect divergence: two databases at the same serial whose
// histories differ will disagree in their digests, and the slave is then
// healed with a full resync rather than silently drifting.

// ChangeOp distinguishes journal operations.
type ChangeOp uint8

// Journal operations.
const (
	ChangeUpsert ChangeOp = 1 // Entry carries the full new record
	ChangeDelete ChangeOp = 2 // Entry carries only Name/Instance
)

// Change is one journaled mutation: the serial it was applied under and
// the entry it created, replaced, or removed.
type Change struct {
	Serial uint64
	Op     ChangeOp
	Entry  *Entry
}

// LogRec is one durable change record: the canonical encoding plus the
// lineage coordinates it moves the shard to. Store.ApplyLogged receives
// the records of every mutation it applies.
type LogRec struct {
	Enc    []byte // appendChange encoding (op, serial, id, body)
	Serial uint64
	Digest uint64
}

// journalRec pairs a change with the database digest after applying it.
type journalRec struct {
	change Change
	digest uint64
}

// DefaultJournalCap bounds the in-memory journal: at 1% hourly churn it
// retains several propagation rounds even for a 100k-principal realm.
const DefaultJournalCap = 8192

// Errors returned by the delta-apply path.
var (
	ErrSerialGap  = errors.New("kdb: serial gap (full resync required)")
	ErrBadChanges = errors.New("kdb: malformed change set")
)

var changesMagic = [4]byte{'K', 'C', 'H', '1'}

// minChangeSize is the smallest possible encoded change: one op byte, an
// eight-byte serial, and two zero-length (one varint byte each) strings.
const minChangeSize = 11

// chainDigest folds one canonically encoded change into the rolling
// database digest (FNV-1a 64; divergence detection, not integrity).
func chainDigest(prev uint64, encodedChange []byte) uint64 {
	h := fnv.New64a()
	var seed [8]byte
	for i := 0; i < 8; i++ {
		seed[i] = byte(prev >> (56 - 8*i))
	}
	h.Write(seed[:])
	h.Write(encodedChange)
	return h.Sum64()
}

// appendChange serializes one change canonically (the encoding both the
// journal digest and the kprop delta payload use).
func appendChange(buf []byte, c Change) []byte {
	buf = append(buf, byte(c.Op))
	u64 := func(b []byte, v uint64) []byte {
		return append(b,
			byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
			byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	buf = u64(buf, c.Serial)
	buf = appendString(buf, c.Entry.Name)
	buf = appendString(buf, c.Entry.Instance)
	if c.Op == ChangeUpsert {
		buf = appendEntryBody(buf, c.Entry)
	}
	return buf
}

// encodeChange serializes a single change (journal digest unit).
func encodeChange(c Change) []byte { return appendChange(nil, c) }

// EncodeChanges serializes a journal segment for the wire. The serials
// ride inside, so a keyed checksum of this buffer covers them.
func EncodeChanges(changes []Change) []byte {
	buf := append([]byte(nil), changesMagic[:]...)
	var n [4]byte
	n[0], n[1], n[2], n[3] = byte(len(changes)>>24), byte(len(changes)>>16), byte(len(changes)>>8), byte(len(changes))
	buf = append(buf, n[:]...)
	for _, c := range changes {
		buf = appendChange(buf, c)
	}
	return buf
}

// DecodeChanges parses a wire journal segment, validating structure and
// strictly ascending, contiguous serials.
func DecodeChanges(data []byte) ([]Change, error) {
	if len(data) < 8 || [4]byte(data[:4]) != changesMagic {
		return nil, ErrBadChanges
	}
	count := uint32(data[4])<<24 | uint32(data[5])<<16 | uint32(data[6])<<8 | uint32(data[7])
	// Each change is ≥ 11 bytes (op + serial + two empty strings), so a
	// count the payload cannot possibly hold is rejected before the
	// pre-allocation below can amplify a small hostile delta into a
	// multi-megabyte reservation.
	if uint64(count) > uint64(len(data))/minChangeSize {
		return nil, fmt.Errorf("%w: implausible count %d", ErrBadChanges, count)
	}
	r := dumpReader{data: data[8:]}
	changes := make([]Change, 0, count)
	for i := uint32(0); i < count; i++ {
		op := ChangeOp(r.u8())
		c := Change{Op: op, Serial: r.u64()}
		e := &Entry{Name: r.str(), Instance: r.str()}
		switch op {
		case ChangeUpsert:
			readEntryBody(&r, e)
		case ChangeDelete:
			// name+instance only
		default:
			return nil, fmt.Errorf("%w: unknown op %d", ErrBadChanges, op)
		}
		if r.err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadChanges, r.err)
		}
		c.Entry = e
		if n := len(changes); n > 0 && c.Serial != changes[n-1].Serial+1 {
			return nil, fmt.Errorf("%w: serials not contiguous", ErrBadChanges)
		}
		changes = append(changes, c)
	}
	if len(r.data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadChanges, len(r.data))
	}
	return changes, nil
}

// Serial returns the database's monotonic change serial: the shard
// serial of a single-shard database, the sum of the shard serials of a
// sharded one (each shard advances by one per journaled mutation, so
// the sum is still monotonic and counts total mutations).
func (db *Database) Serial() uint64 {
	var sum uint64
	for _, sh := range db.shards {
		sum += sh.serial.Load()
	}
	return sum
}

// Digest returns the rolling content digest at the current serial (the
// XOR-fold of the shard digests for a sharded database — an order-
// independent divergence indicator; the per-shard digests remain the
// authoritative lineage checks).
func (db *Database) Digest() uint64 {
	var fold uint64
	for _, sh := range db.shards {
		fold ^= sh.digest.Load()
	}
	return fold
}

// ShardSerial returns shard i's monotonic change serial.
func (db *Database) ShardSerial(i int) uint64 { return db.shards[i].serial.Load() }

// ShardDigest returns shard i's rolling content digest.
func (db *Database) ShardDigest(i int) uint64 { return db.shards[i].digest.Load() }

// SetJournalCap bounds each shard's in-memory change journal (0 restores
// the default). Retention is the delta horizon: a slave further behind
// than the journal reaches gets a full dump.
func (db *Database) SetJournalCap(n int) {
	if n <= 0 {
		n = DefaultJournalCap
	}
	for _, sh := range db.shards {
		sh.wmu.Lock()
		sh.journalCap = n
		sh.trimJournalLocked(true)
		sh.wmu.Unlock()
	}
}

// JournalLen reports how many changes are currently retained across all
// shards.
func (db *Database) JournalLen() int {
	n := 0
	for _, sh := range db.shards {
		sh.wmu.Lock()
		n += len(sh.journal)
		sh.wmu.Unlock()
	}
	return n
}

// apply journals one mutation and applies it to the shard store
// durably. Callers hold sh.wmu. The store receives the already-encoded
// record, so a persisting Store writes the post-change lineage alongside
// the data — and SegmentStore appends O(change) bytes instead of
// rewriting the database.
func (sh *dbShard) apply(op ChangeOp, e *Entry) {
	c := Change{Serial: sh.serial.Load() + 1, Op: op, Entry: e.clone()}
	enc := encodeChange(c)
	digest := chainDigest(sh.digest.Load(), enc)
	sh.serial.Store(c.Serial)
	sh.digest.Store(digest)
	sh.journal = append(sh.journal, journalRec{change: c, digest: digest})
	sh.trimJournalLocked(false)
	recs := []LogRec{{Enc: enc, Serial: c.Serial, Digest: digest}}
	var err error
	if op == ChangeDelete {
		err = sh.store.ApplyLogged(recs, nil, []string{c.Entry.ID()})
	} else {
		err = sh.store.ApplyLogged(recs, []*Entry{c.Entry}, nil)
	}
	if err != nil {
		// Continuing with a diverged file or log would silently violate
		// the single-definitive-copy rule of §5.
		panic(fmt.Errorf("kdb: appending change: %w", err))
	}
}

// trimJournalLocked drops the oldest records past the cap, remembering
// the digest of the newest dropped one (the pre-retention boundary).
// Trimming is amortized: the journal is allowed to grow 25% past the cap
// before one bulk copy drops it back down, so a long mutation burst
// (a million-principal install) pays O(1) amortized per change instead
// of one full-journal copy per change. exact forces an immediate trim
// to the cap (SetJournalCap shrinking retention).
func (sh *dbShard) trimJournalLocked(exact bool) {
	cap := sh.journalCap
	if cap <= 0 {
		cap = DefaultJournalCap
	}
	slack := cap / 4
	if exact {
		slack = 0
	}
	if len(sh.journal) <= cap+slack {
		return
	}
	drop := len(sh.journal) - cap
	sh.preBaseDigest = sh.journal[drop-1].digest
	sh.journal = append(sh.journal[:0:0], sh.journal[drop:]...)
}

// resetJournalLocked empties the journal after a bulk replacement; the
// current digest becomes the retention boundary.
func (sh *dbShard) resetJournalLocked(serial, digest uint64) {
	sh.serial.Store(serial)
	sh.digest.Store(digest)
	sh.journal = nil
	sh.preBaseDigest = digest
}

// DeltaVerdict says how the master can serve a slave at a given state.
type DeltaVerdict uint8

// ChangesSince verdicts.
const (
	DeltaOK            DeltaVerdict = iota // changes returned (possibly none)
	FallbackRetention                      // slave older than the journal reaches
	FallbackAhead                          // slave claims a serial beyond the master's
	FallbackDivergence                     // serial known but digest disagrees
)

// String names the verdict for logs.
func (v DeltaVerdict) String() string {
	switch v {
	case DeltaOK:
		return "delta"
	case FallbackRetention:
		return "retention"
	case FallbackAhead:
		return "ahead"
	case FallbackDivergence:
		return "divergence"
	default:
		return fmt.Sprintf("verdict(%d)", uint8(v))
	}
}

// ChangesSinceShard returns the journal segment a slave's shard i at
// (serial, digest) is missing, verifying the digest against the
// master's history at that serial. Any verdict other than DeltaOK means
// the slave's shard must be healed with a full dump.
func (db *Database) ChangesSinceShard(i int, serial, digest uint64) ([]Change, DeltaVerdict) {
	return db.shards[i].changesSince(serial, digest)
}

func (sh *dbShard) changesSince(serial, digest uint64) ([]Change, DeltaVerdict) {
	sh.wmu.Lock()
	defer sh.wmu.Unlock()
	cur := sh.serial.Load()
	switch {
	case serial > cur:
		return nil, FallbackAhead
	case serial == cur:
		if digest != sh.digest.Load() {
			return nil, FallbackDivergence
		}
		return nil, DeltaOK
	}
	if len(sh.journal) == 0 {
		return nil, FallbackRetention
	}
	base := sh.journal[0].change.Serial // oldest retained change
	if serial < base-1 {
		return nil, FallbackRetention
	}
	// Digest the master had at the slave's serial.
	var at uint64
	if serial == base-1 {
		at = sh.preBaseDigest
	} else {
		at = sh.journal[serial-base].digest
	}
	if at != digest {
		return nil, FallbackDivergence
	}
	seg := sh.journal
	if serial >= base {
		seg = sh.journal[serial-base+1:]
	}
	changes := make([]Change, len(seg))
	for i, rec := range seg {
		changes[i] = rec.change
	}
	return changes, DeltaOK
}

// ApplyChangesShard installs a verified journal segment on shard i of a
// slave copy, bypassing the read-only discipline exactly like
// LoadDumpShard. The segment must start at the shard's current serial + 1
// (no gaps, no replays) and, when wantDigest is nonzero, must chain to
// it — otherwise nothing is applied and the caller should request a full
// resync. Every change must belong to shard i (the master sharded them
// the same way); a misrouted change is rejected before anything is
// applied.
func (db *Database) ApplyChangesShard(i int, changes []Change, wantDigest uint64) error {
	for _, c := range changes {
		if c.Entry == nil {
			return ErrBadChanges
		}
		if ShardIndex(c.Entry.Name, c.Entry.Instance, len(db.shards)) != i {
			return fmt.Errorf("%w: change for %s does not belong to shard %d",
				ErrBadChanges, c.Entry.ID(), i)
		}
	}
	return db.shards[i].applyChanges(changes, wantDigest)
}

func (sh *dbShard) applyChanges(changes []Change, wantDigest uint64) error {
	sh.wmu.Lock()
	defer sh.wmu.Unlock()
	cur := sh.serial.Load()
	if len(changes) == 0 {
		if wantDigest != 0 && wantDigest != sh.digest.Load() {
			return fmt.Errorf("%w: digest mismatch at serial %d", ErrSerialGap, cur)
		}
		return nil
	}
	if changes[0].Serial != cur+1 {
		return fmt.Errorf("%w: have serial %d, delta starts at %d", ErrSerialGap, cur, changes[0].Serial)
	}
	// Validate and chain the digest before touching the store: the apply
	// must be all-or-nothing.
	digest := sh.digest.Load()
	digests := make([]uint64, len(changes))
	recs := make([]LogRec, len(changes))
	var upserts []*Entry
	var deletes []string
	for i, c := range changes {
		if c.Entry == nil || c.Serial != cur+1+uint64(i) {
			return ErrBadChanges
		}
		switch c.Op {
		case ChangeUpsert:
			upserts = append(upserts, c.Entry)
		case ChangeDelete:
			deletes = append(deletes, c.Entry.ID())
		default:
			return ErrBadChanges
		}
		enc := encodeChange(c)
		digest = chainDigest(digest, enc)
		digests[i] = digest
		recs[i] = LogRec{Enc: enc, Serial: c.Serial, Digest: digest}
	}
	if wantDigest != 0 && digest != wantDigest {
		return fmt.Errorf("%w: digest mismatch after serial %d", ErrSerialGap, changes[len(changes)-1].Serial)
	}
	if err := sh.store.ApplyLogged(recs, upserts, deletes); err != nil {
		return fmt.Errorf("kdb: appending delta: %w", err)
	}
	for i, c := range changes {
		sh.journal = append(sh.journal, journalRec{change: c, digest: digests[i]})
	}
	sh.serial.Store(changes[len(changes)-1].Serial)
	sh.digest.Store(digest)
	sh.trimJournalLocked(false)
	return nil
}

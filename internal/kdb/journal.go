package kdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
)

// Incremental propagation support (the kprop delta plane). The paper's §4.3
// scheme ships the whole database "about once an hour"; at millions of
// principals that is the dominant replication cost, so the database now
// keeps a monotonic serial, a rolling content digest, and a bounded
// in-memory journal of the last change records. A slave that advertises a
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

// LogRec is one change record, the only form a change takes from the
// mutation that makes it to the segment log, the journal and the kprop
// delta payload: its canonical encoding plus the lineage coordinates it
// moves the shard to. Store.ApplyLogged receives the records of every
// mutation it applies.
type LogRec struct {
	Enc    []byte // appendChange encoding (op, serial, id, body)
	Serial uint64
	Digest uint64 // 0 when not recorded: a delta payload carries no digests
}

// Change is one decoded change record: the record, and the entry it
// created, replaced, or removed.
type Change struct {
	LogRec
	Op    ChangeOp
	Entry *Entry
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

// next is the lineage rule every applied record obeys — the writer's
// replay, a follower's tail and a slave's delta alike: rec extends the
// lineage at m when its serial is m.Serial+1, and it moves the lineage to
// its serial and to m's digest chained over its encoding, which a
// recorded digest must equal. It returns that lineage and whether rec
// extends m.
func (m DumpMeta) next(rec LogRec) (DumpMeta, bool) {
	to := DumpMeta{Serial: rec.Serial, Digest: chainDigest(m.Digest, rec.Enc)}
	return to, rec.Serial == m.Serial+1 && (rec.Digest == 0 || rec.Digest == to.Digest)
}

// appendChange serializes one change canonically. Only a local mutation
// encodes a change; everywhere else the change travels as these bytes.
func appendChange(buf []byte, serial uint64, op ChangeOp, e *Entry) []byte {
	buf = append(buf, byte(op))
	buf = binary.BigEndian.AppendUint64(buf, serial)
	buf = appendString(buf, e.Name)
	buf = appendString(buf, e.Instance)
	if op == ChangeUpsert {
		buf = appendEntryBody(buf, e)
	}
	return buf
}

// decodeChange parses the change encoded at the head of data. The
// change's Enc is the exact span it was decoded from, a subslice of
// data; its Digest is not recorded.
func decodeChange(data []byte) (Change, error) {
	r := dumpReader{data: data}
	op := ChangeOp(r.u8())
	serial := r.u64()
	e := &Entry{Name: r.str(), Instance: r.str()}
	switch op {
	case ChangeUpsert:
		readEntryBody(&r, e)
	case ChangeDelete:
		// name+instance only
	default:
		return Change{}, fmt.Errorf("%w: unknown op %d", ErrBadChanges, op)
	}
	if r.err != nil {
		return Change{}, fmt.Errorf("%w: %v", ErrBadChanges, r.err)
	}
	n := len(data) - len(r.data)
	return Change{LogRec: LogRec{Enc: data[:n:n], Serial: serial}, Op: op, Entry: e}, nil
}

// EncodeChanges frames journal records for the wire: the header, then
// each record's encoding as it was written. The serials ride inside, so
// a keyed checksum of this buffer covers them.
func EncodeChanges(recs []LogRec) []byte {
	n := 8
	for _, rec := range recs {
		n += len(rec.Enc)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, changesMagic[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(recs)))
	for _, rec := range recs {
		buf = append(buf, rec.Enc...)
	}
	return buf
}

// DecodeChanges parses a wire journal segment, validating structure and
// strictly ascending, contiguous serials. Each change's Enc aliases data.
func DecodeChanges(data []byte) ([]Change, error) {
	if len(data) < 8 || [4]byte(data[:4]) != changesMagic {
		return nil, ErrBadChanges
	}
	count := binary.BigEndian.Uint32(data[4:])
	// Each change is ≥ 11 bytes (op + serial + two empty strings), so a
	// count the payload cannot possibly hold is rejected before the
	// pre-allocation below can amplify a small hostile delta into a
	// multi-megabyte reservation.
	if uint64(count) > uint64(len(data))/minChangeSize {
		return nil, fmt.Errorf("%w: implausible count %d", ErrBadChanges, count)
	}
	rest := data[8:]
	changes := make([]Change, 0, count)
	for i := uint32(0); i < count; i++ {
		c, err := decodeChange(rest)
		if err != nil {
			return nil, err
		}
		if n := len(changes); n > 0 && c.Serial != changes[n-1].Serial+1 {
			return nil, fmt.Errorf("%w: serials not contiguous", ErrBadChanges)
		}
		changes = append(changes, c)
		rest = rest[len(c.Enc):]
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadChanges, len(rest))
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

// apply makes one local mutation: it encodes the change as the shard's
// next record, has the store apply it durably, and only then advances
// the shard's serial, digest and journal. Callers hold sh.wmu. A store
// that fails (a disk error under a SegmentStore) leaves the shard as it
// was, and the error is the mutation's. This is the only place a change
// is encoded; every other path carries the record's bytes.
func (sh *dbShard) apply(op ChangeOp, e *Entry) error {
	serial := sh.serial.Load() + 1
	enc := appendChange(nil, serial, op, e)
	recs := []LogRec{{Enc: enc, Serial: serial, Digest: chainDigest(sh.digest.Load(), enc)}}
	var err error
	if op == ChangeDelete {
		err = sh.store.ApplyLogged(recs, nil, []string{e.ID()})
	} else {
		err = sh.store.ApplyLogged(recs, []*Entry{e}, nil)
	}
	// Whatever the store did, no hot-key slot keeps the key it replaced.
	sh.hot.retire(hashPair(e.Name, e.Instance))
	if err != nil {
		return fmt.Errorf("kdb: appending change: %w", err)
	}
	sh.journalLocked(recs)
	return nil
}

// journalLocked appends applied records, the last of which is the
// shard's new lineage, to the journal. Each keeps its own copy of its
// encoding, so the journal never pins the buffer a record was read from
// (a segment file, a delta payload). Records older than the cap would be
// trimmed at once, so they are skipped before being copied.
func (sh *dbShard) journalLocked(recs []LogRec) {
	if len(recs) == 0 {
		return
	}
	if drop := len(recs) - sh.cap(); drop > 0 {
		sh.journal = nil
		sh.preBaseDigest = recs[drop-1].Digest
		recs = recs[drop:]
	}
	for _, rec := range recs {
		rec.Enc = bytes.Clone(rec.Enc)
		sh.journal = append(sh.journal, rec)
	}
	last := recs[len(recs)-1]
	sh.serial.Store(last.Serial)
	sh.digest.Store(last.Digest)
	sh.trimJournalLocked(false)
}

// cap is the journal's retention.
func (sh *dbShard) cap() int {
	if sh.journalCap <= 0 {
		return DefaultJournalCap
	}
	return sh.journalCap
}

// trimJournalLocked drops the oldest records past the cap, remembering
// the digest of the newest dropped one (the pre-retention boundary).
// Trimming is amortized: the journal is allowed to grow 25% past the cap
// before one bulk copy drops it back down, so a long mutation burst
// (a million-principal install) pays O(1) amortized per change instead
// of one full-journal copy per change. exact forces an immediate trim
// to the cap (SetJournalCap shrinking retention).
func (sh *dbShard) trimJournalLocked(exact bool) {
	cap := sh.cap()
	slack := cap / 4
	if exact {
		slack = 0
	}
	if len(sh.journal) <= cap+slack {
		return
	}
	drop := len(sh.journal) - cap
	sh.preBaseDigest = sh.journal[drop-1].Digest
	sh.journal = append(sh.journal[:0:0], sh.journal[drop:]...)
}

// resetJournalLocked puts the shard at base with an empty journal — a
// bulk replacement — and then journals recs, the records that lead on
// from base, so a slave the records reach can still be sent a delta.
func (sh *dbShard) resetJournalLocked(base DumpMeta, recs []LogRec) {
	sh.serial.Store(base.Serial)
	sh.digest.Store(base.Digest)
	sh.journal = nil
	sh.preBaseDigest = base.Digest
	sh.journalLocked(recs)
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

// ChangesSinceShard returns the journal records a slave's shard i at
// (serial, digest) is missing, verifying the digest against the
// master's history at that serial. Any verdict other than DeltaOK means
// the slave's shard must be healed with a full dump. The records' bytes
// are the journal's own and must not be modified.
func (db *Database) ChangesSinceShard(i int, serial, digest uint64) ([]LogRec, DeltaVerdict) {
	return db.shards[i].changesSince(serial, digest)
}

func (sh *dbShard) changesSince(serial, digest uint64) ([]LogRec, DeltaVerdict) {
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
	base := sh.journal[0].Serial // oldest retained change
	if serial < base-1 {
		return nil, FallbackRetention
	}
	// Digest the master had at the slave's serial.
	var at uint64
	if serial == base-1 {
		at = sh.preBaseDigest
	} else {
		at = sh.journal[serial-base].Digest
	}
	if at != digest {
		return nil, FallbackDivergence
	}
	return append([]LogRec(nil), sh.journal[serial+1-base:]...), DeltaOK
}

// ApplyChangesShard installs a verified journal segment on shard i of a
// slave copy, bypassing the read-only discipline exactly like
// LoadDumpShard. Every change must extend the shard's lineage in turn
// (DumpMeta.next: no gaps, no replays, and a recorded digest must chain)
// and, when wantDigest is nonzero, the last must land on it — otherwise
// nothing is applied and the caller should request a full resync. Every
// change must belong to shard i (the master sharded them the same way);
// a misrouted change is rejected before anything is applied.
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
	at := DumpMeta{Serial: sh.serial.Load(), Digest: sh.digest.Load()}
	// Validate and chain the digest before touching the store: the apply
	// must be all-or-nothing. The store takes a set, so only each
	// principal's last change reaches it: a delete then a re-add of one
	// principal must leave it present.
	recs := make([]LogRec, len(changes))
	last := make(map[string]*Entry, len(changes))
	var order []string
	for i, c := range changes {
		next, ok := at.next(c.LogRec)
		if !ok {
			return fmt.Errorf("%w: have serial %d, change at %d does not extend it", ErrSerialGap, at.Serial, c.Serial)
		}
		id := c.Entry.ID()
		if _, seen := last[id]; !seen {
			order = append(order, id)
		}
		switch c.Op {
		case ChangeUpsert:
			last[id] = c.Entry
		case ChangeDelete:
			last[id] = nil
		default:
			return ErrBadChanges
		}
		recs[i] = LogRec{Enc: c.Enc, Serial: c.Serial, Digest: next.Digest}
		at = next
	}
	if wantDigest != 0 && at.Digest != wantDigest {
		return fmt.Errorf("%w: digest mismatch at serial %d", ErrSerialGap, at.Serial)
	}
	if len(recs) == 0 {
		return nil
	}
	var upserts []*Entry
	var deletes []string
	for _, id := range order {
		if e := last[id]; e != nil {
			upserts = append(upserts, e)
		} else {
			deletes = append(deletes, id)
		}
	}
	err := sh.store.ApplyLogged(recs, upserts, deletes)
	for _, id := range order {
		sh.hot.retire(hashID(id))
	}
	if err != nil {
		return fmt.Errorf("kdb: appending delta: %w", err)
	}
	sh.journalLocked(recs)
	return nil
}

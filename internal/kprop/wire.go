package kprop

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// kprop wire format. Every message is one length-prefixed frame (the
// same u32 big-endian framing the KDC TCP transport uses, with a larger
// cap because full dumps outgrow KDC messages). One conversation covers
// one shard of the database (an unsharded database is shard 0 of 1):
//
//	master → slave   MasterHello   (shard, shard count, serial + digest the master's shard is at)
//	slave  → master  SlaveHello    (serial + digest the slave's shard is at)
//	master → slave   DeltaMsg      (journal segment)  — or FullDumpMsg
//	slave  → master  AckMsg        (ok, or need-full)
//	master → slave   FullDumpMsg   (only if the ack asked for one)
//	slave  → master  AckMsg
//
// Payloads (journal segments and dumps) travel flate-compressed; the
// keyed checksum of §5.3 is computed over the *uncompressed* bytes, so
// compression is transparent to integrity. Change serials ride inside
// the encoded segment and are therefore covered by its checksum.

// MaxMessage bounds one framed propagation message: large enough for a
// million-principal compressed dump, small enough to stop a hostile
// length prefix from ballooning memory.
const MaxMessage = 64 << 20

// MaxInflate bounds decompression output: adversarial deflate streams
// can expand ~1000×, so the inflater stops at this many bytes.
const MaxInflate = 64 << 20

// Message kind bytes (fifth byte of every message, after the magic).
const (
	kindMasterHello = 0x01
	kindSlaveHello  = 0x02
	kindDelta       = 0x03
	kindFullDump    = 0x04
	kindAck         = 0x05
)

// wireVersion is the protocol revision MasterHello carries; a slave
// refuses any other. A conversation covers one shard (the hello names the
// shard and the master's shard count), so the per-shard deltas of a large
// realm ship in parallel over independent connections.
const wireVersion = 3

var wireMagic = [4]byte{'K', 'P', 'v', '2'}

// ErrBadMessage reports a propagation message that failed structural
// validation.
var ErrBadMessage = errors.New("kprop: malformed propagation message")

// readFrame reads one length-prefixed message (layout-compatible with
// kdc.ReadFrame, higher cap for dumps).
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxMessage {
		return nil, fmt.Errorf("kprop: bad frame length %d", n)
	}
	msg := make([]byte, n)
	if _, err := io.ReadFull(r, msg); err != nil {
		return nil, err
	}
	return msg, nil
}

// writeFrame writes one length-prefixed message.
func writeFrame(w io.Writer, msg []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(msg)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(msg)
	return err
}

// wireReader consumes message bodies.
type wireReader struct {
	data []byte
	err  error
}

func (r *wireReader) u64() uint64 {
	if r.err != nil || len(r.data) < 8 {
		r.err = ErrBadMessage
		return 0
	}
	v := binary.BigEndian.Uint64(r.data)
	r.data = r.data[8:]
	return v
}

func (r *wireReader) u32() uint32 {
	if r.err != nil || len(r.data) < 4 {
		r.err = ErrBadMessage
		return 0
	}
	v := binary.BigEndian.Uint32(r.data)
	r.data = r.data[4:]
	return v
}

func (r *wireReader) u8() uint8 {
	if r.err != nil || len(r.data) < 1 {
		r.err = ErrBadMessage
		return 0
	}
	v := r.data[0]
	r.data = r.data[1:]
	return v
}

func (r *wireReader) blob() []byte {
	if r.err != nil {
		return nil
	}
	// Only a length's minimal encoding is accepted, so a message decodes
	// from exactly the bytes it encodes to.
	var minimal [binary.MaxVarintLen64]byte
	n, used := binary.Uvarint(r.data)
	if used <= 0 || used != binary.PutUvarint(minimal[:], n) || n > MaxMessage || uint64(len(r.data)-used) < n {
		r.err = ErrBadMessage
		return nil
	}
	b := r.data[used : used+int(n)]
	r.data = r.data[used+int(n):]
	return b
}

func (r *wireReader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.data) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadMessage, len(r.data))
	}
	return nil
}

func appendBlob(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// header emits magic + kind, the shared prefix of every message.
func header(kind byte) []byte {
	return append(append(make([]byte, 0, 64), wireMagic[:]...), kind)
}

// body strips a validated magic + kind prefix.
func body(data []byte, kind byte) ([]byte, error) {
	if len(data) < 5 || [4]byte(data[:4]) != wireMagic || data[4] != kind {
		return nil, ErrBadMessage
	}
	return data[5:], nil
}

// MasterHello opens a conversation: the protocol version, the shard it
// covers out of the master's shard count, and the (serial, digest) the
// master's shard is at.
type MasterHello struct {
	Version uint8
	Serial  uint64
	Digest  uint64
	Shard   uint32 // which shard this conversation covers
	Shards  uint32 // the master's total shard count
}

// Encode serializes the hello.
func (h MasterHello) Encode() []byte {
	buf := header(kindMasterHello)
	buf = append(buf, h.Version)
	buf = binary.BigEndian.AppendUint64(buf, h.Serial)
	buf = binary.BigEndian.AppendUint64(buf, h.Digest)
	buf = binary.BigEndian.AppendUint32(buf, h.Shard)
	return binary.BigEndian.AppendUint32(buf, h.Shards)
}

// DecodeMasterHello parses a MasterHello message.
func DecodeMasterHello(data []byte) (MasterHello, error) {
	var h MasterHello
	b, err := body(data, kindMasterHello)
	if err != nil {
		return h, err
	}
	r := wireReader{data: b}
	h.Version = r.u8()
	h.Serial = r.u64()
	h.Digest = r.u64()
	h.Shard = r.u32()
	h.Shards = r.u32()
	if err := r.done(); err != nil {
		return h, err
	}
	if h.Version != wireVersion {
		return h, fmt.Errorf("%w: unsupported version %d", ErrBadMessage, h.Version)
	}
	if h.Shards == 0 || h.Shard >= h.Shards {
		return h, fmt.Errorf("%w: shard %d of %d", ErrBadMessage, h.Shard, h.Shards)
	}
	return h, nil
}

// SlaveHello is the slave's reply: the (serial, digest) its copy is at,
// plus its principal count for the master's logs.
type SlaveHello struct {
	Serial     uint64
	Digest     uint64
	Principals uint32
}

// Encode serializes the hello.
func (h SlaveHello) Encode() []byte {
	buf := header(kindSlaveHello)
	buf = binary.BigEndian.AppendUint64(buf, h.Serial)
	buf = binary.BigEndian.AppendUint64(buf, h.Digest)
	return binary.BigEndian.AppendUint32(buf, h.Principals)
}

// DecodeSlaveHello parses a SlaveHello message.
func DecodeSlaveHello(data []byte) (SlaveHello, error) {
	var h SlaveHello
	b, err := body(data, kindSlaveHello)
	if err != nil {
		return h, err
	}
	r := wireReader{data: b}
	h.Serial = r.u64()
	h.Digest = r.u64()
	h.Principals = r.u32()
	return h, r.done()
}

// DeltaMsg carries a compressed journal segment advancing the slave from
// serial From to serial To. SealedSum is the §5.3 keyed checksum of the
// *uncompressed* segment, sealed in the master database key; the change
// serials ride inside the segment and are covered by it.
type DeltaMsg struct {
	From      uint64
	To        uint64
	SealedSum []byte
	Payload   []byte // flate-compressed kdb.EncodeChanges output
}

// Encode serializes the delta message.
func (d DeltaMsg) Encode() []byte {
	buf := header(kindDelta)
	buf = binary.BigEndian.AppendUint64(buf, d.From)
	buf = binary.BigEndian.AppendUint64(buf, d.To)
	buf = appendBlob(buf, d.SealedSum)
	return appendBlob(buf, d.Payload)
}

// DecodeDeltaMsg parses a DeltaMsg.
func DecodeDeltaMsg(data []byte) (DeltaMsg, error) {
	var d DeltaMsg
	b, err := body(data, kindDelta)
	if err != nil {
		return d, err
	}
	r := wireReader{data: b}
	d.From = r.u64()
	d.To = r.u64()
	d.SealedSum = append([]byte(nil), r.blob()...)
	d.Payload = append([]byte(nil), r.blob()...)
	if err := r.done(); err != nil {
		return d, err
	}
	if d.To < d.From {
		return d, fmt.Errorf("%w: delta runs backwards (%d → %d)", ErrBadMessage, d.From, d.To)
	}
	return d, nil
}

// FullDumpMsg carries a compressed full dump of one shard. SealedSum is
// the keyed checksum of the *uncompressed* dump — exactly the §5.3
// integrity check.
type FullDumpMsg struct {
	SealedSum []byte
	Payload   []byte // flate-compressed kdb.Database.DumpShard output
}

// Encode serializes the full-dump message.
func (f FullDumpMsg) Encode() []byte {
	buf := header(kindFullDump)
	buf = appendBlob(buf, f.SealedSum)
	return appendBlob(buf, f.Payload)
}

// DecodeFullDumpMsg parses a FullDumpMsg.
func DecodeFullDumpMsg(data []byte) (FullDumpMsg, error) {
	var f FullDumpMsg
	b, err := body(data, kindFullDump)
	if err != nil {
		return f, err
	}
	r := wireReader{data: b}
	f.SealedSum = append([]byte(nil), r.blob()...)
	f.Payload = append([]byte(nil), r.blob()...)
	return f, r.done()
}

// Ack flag bits.
const (
	ackOK       = 0x01
	ackNeedFull = 0x02
)

// AckMsg is the slave's verdict on an update: the serial its database is
// now at, whether the update applied, and — when a delta could not be
// applied — a request for a full resync on the same connection.
type AckMsg struct {
	Serial   uint64
	OK       bool
	NeedFull bool
	Err      string
}

// Encode serializes the ack.
func (a AckMsg) Encode() []byte {
	buf := header(kindAck)
	buf = binary.BigEndian.AppendUint64(buf, a.Serial)
	var flags byte
	if a.OK {
		flags |= ackOK
	}
	if a.NeedFull {
		flags |= ackNeedFull
	}
	buf = append(buf, flags)
	return appendBlob(buf, []byte(a.Err))
}

// DecodeAckMsg parses an AckMsg.
func DecodeAckMsg(data []byte) (AckMsg, error) {
	var a AckMsg
	b, err := body(data, kindAck)
	if err != nil {
		return a, err
	}
	r := wireReader{data: b}
	a.Serial = r.u64()
	flags := r.u8()
	a.OK = flags&ackOK != 0
	a.NeedFull = flags&ackNeedFull != 0
	a.Err = string(r.blob())
	if err := r.done(); err != nil {
		return a, err
	}
	if flags&^(ackOK|ackNeedFull) != 0 {
		return a, fmt.Errorf("%w: unknown ack flags %#x", ErrBadMessage, flags)
	}
	return a, nil
}

// deflate compresses a payload for the wire.
func deflate(data []byte) []byte {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		panic(err) // only on invalid level
	}
	if _, err := w.Write(data); err != nil {
		panic(err) // bytes.Buffer cannot fail
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// inflate decompresses a payload, refusing to expand past MaxInflate so
// a hostile stream cannot balloon memory.
func inflate(data []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(data))
	defer r.Close()
	out, err := io.ReadAll(io.LimitReader(r, MaxInflate+1))
	if err != nil {
		return nil, fmt.Errorf("kprop: inflating payload: %w", err)
	}
	if len(out) > MaxInflate {
		return nil, fmt.Errorf("kprop: payload inflates past %d bytes", MaxInflate)
	}
	return out, nil
}

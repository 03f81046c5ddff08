package kprop

// Golden wire vectors for the kprop v2 messages, recorded next to the
// other protocol vectors under internal/wire/testdata (the wiresym
// analyzer checks for them there). All inputs are fixed — des.Seal has
// no random confounder and flate is deterministic for a pinned Go
// toolchain — so the vectors pin the byte format exactly. Re-record an
// intentional protocol revision with
//
//	go test ./internal/kprop -run TestKpropGolden -update

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"kerberos/internal/core"
	"kerberos/internal/des"
	"kerberos/internal/kdb"
)

var update = flag.Bool("update", false, "rewrite wire goldens and the FuzzDelta seed corpus")

var goldenDir = filepath.Join("..", "wire", "testdata")

var goldenMasterKey = des.StringToKey("golden-master-pw", testRealm)

func goldenEntry() *kdb.Entry {
	return &kdb.Entry{
		Name:     "jis",
		Instance: "",
		EncKey: []byte{
			0x10, 0x32, 0x54, 0x76, 0x98, 0xba, 0xdc, 0xfe,
			0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef,
		},
		KVNO:       3,
		Expiration: t0.AddDate(4, 0, 0),
		MaxLife:    core.DefaultTGTLife,
		ModTime:    t0,
		ModBy:      "kadmin",
	}
}

// goldenChangeSet is an upsert of goldenEntry at serial 42 and a delete
// of old.priam at 43, encoded here from the change format itself (op,
// serial, name, instance, and for an upsert the entry body) — the
// package has no change encoder of its own to use.
func goldenChangeSet() []kdb.LogRec {
	str := func(b []byte, s string) []byte { return append(binary.AppendUvarint(b, uint64(len(s))), s...) }
	change := func(serial uint64, op kdb.ChangeOp, e *kdb.Entry) kdb.LogRec {
		b := binary.BigEndian.AppendUint64([]byte{byte(op)}, serial)
		b = str(str(b, e.Name), e.Instance)
		if op == kdb.ChangeUpsert {
			b = str(b, string(e.EncKey))
			b = append(b, e.KVNO)
			b = binary.BigEndian.AppendUint64(b, uint64(e.Expiration.Unix()))
			b = append(b, byte(e.MaxLife))
			b = binary.BigEndian.AppendUint64(b, uint64(e.ModTime.Unix()))
			b = str(b, e.ModBy)
		}
		return kdb.LogRec{Enc: b, Serial: serial}
	}
	return []kdb.LogRec{
		change(42, kdb.ChangeUpsert, goldenEntry()),
		change(43, kdb.ChangeDelete, &kdb.Entry{Name: "old", Instance: "priam"}),
	}
}

func goldenDeltaMsg() DeltaMsg {
	seg := kdb.EncodeChanges(goldenChangeSet())
	return DeltaMsg{
		From:      41,
		To:        43,
		SealedSum: sealSum(goldenMasterKey, seg),
		Payload:   deflate(seg),
	}
}

func goldenFullDumpMsg() FullDumpMsg {
	dump := kdb.EncodeEntriesAt([]*kdb.Entry{goldenEntry()}, kdb.DumpMeta{Serial: 43, Digest: 0x1122334455667788})
	return FullDumpMsg{
		SealedSum: sealSum(goldenMasterKey, dump),
		Payload:   deflate(dump),
	}
}

func kpropVectors() map[string][]byte {
	return map[string][]byte{
		"masterhello.golden": MasterHello{Version: wireVersion, Serial: 43, Digest: 0xfeedfacecafef00d, Shards: 1}.Encode(),
		"slavehello.golden":  SlaveHello{Serial: 41, Digest: 0x0123456789abcdef, Principals: 5000}.Encode(),
		"deltamsg.golden":    goldenDeltaMsg().Encode(),
		"fulldumpmsg.golden": goldenFullDumpMsg().Encode(),
		"ackmsg.golden":      AckMsg{Serial: 43, OK: true}.Encode(),
	}
}

func TestKpropGoldenVectors(t *testing.T) {
	vecs := kpropVectors()
	if *update {
		for name, data := range vecs {
			if err := os.WriteFile(filepath.Join(goldenDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		writeDeltaFuzzCorpus(t, vecs)
	}
	for name, want := range vecs {
		got, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatalf("%s: %v (run with -update to record)", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: encoding diverged from the recorded vector (%d vs %d bytes); "+
				"if the wire format change is intentional, re-record with -update",
				name, len(want), len(got))
		}
	}
}

// writeDeltaFuzzCorpus seeds FuzzDelta with every wire message plus the
// raw (uncompressed) change-set encoding.
func writeDeltaFuzzCorpus(t *testing.T, vecs map[string][]byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzDelta")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	seeds := [][]byte{
		vecs["masterhello.golden"],
		vecs["slavehello.golden"],
		vecs["deltamsg.golden"],
		vecs["fulldumpmsg.golden"],
		vecs["ackmsg.golden"],
		kdb.EncodeChanges(goldenChangeSet()),
	}
	for i, seed := range seeds {
		entry := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
		path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		if err := os.WriteFile(path, []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestKpropGoldenRoundTrip proves each recorded vector decodes to the
// original structure and re-encodes byte-identically.
func TestKpropGoldenRoundTrip(t *testing.T) {
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			t.Fatalf("%v (run with -update to record)", err)
		}
		return data
	}

	t.Run("masterhello", func(t *testing.T) {
		h, err := DecodeMasterHello(read("masterhello.golden"))
		if err != nil {
			t.Fatal(err)
		}
		if h.Version != wireVersion || h.Serial != 43 || h.Digest != 0xfeedfacecafef00d || h.Shard != 0 || h.Shards != 1 {
			t.Errorf("decoded = %+v", h)
		}
		if !bytes.Equal(h.Encode(), read("masterhello.golden")) {
			t.Error("re-encode is not byte-identical")
		}
	})

	t.Run("slavehello", func(t *testing.T) {
		h, err := DecodeSlaveHello(read("slavehello.golden"))
		if err != nil {
			t.Fatal(err)
		}
		if h.Serial != 41 || h.Digest != 0x0123456789abcdef || h.Principals != 5000 {
			t.Errorf("decoded = %+v", h)
		}
		if !bytes.Equal(h.Encode(), read("slavehello.golden")) {
			t.Error("re-encode is not byte-identical")
		}
	})

	t.Run("deltamsg", func(t *testing.T) {
		d, err := DecodeDeltaMsg(read("deltamsg.golden"))
		if err != nil {
			t.Fatal(err)
		}
		if d.From != 41 || d.To != 43 {
			t.Errorf("decoded header = %+v", d)
		}
		seg, err := inflate(d.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := openSum(goldenMasterKey, d.SealedSum); err != nil ||
			got != kdb.DumpChecksum(goldenMasterKey, seg) {
			t.Errorf("sealed checksum does not verify: %v", err)
		}
		changes, err := kdb.DecodeChanges(seg)
		if err != nil {
			t.Fatal(err)
		}
		want := goldenChangeSet()
		if len(changes) != len(want) {
			t.Fatalf("decoded %d changes, want %d", len(changes), len(want))
		}
		for i, op := range []kdb.ChangeOp{kdb.ChangeUpsert, kdb.ChangeDelete} {
			if changes[i].Serial != want[i].Serial || changes[i].Op != op ||
				!bytes.Equal(changes[i].Enc, want[i].Enc) {
				t.Errorf("change %d = %+v", i, changes[i])
			}
		}
		if changes[1].Entry.ID() != "old.priam" {
			t.Errorf("delete names %s", changes[1].Entry.ID())
		}
		if changes[0].Entry.KVNO != 3 || !bytes.Equal(changes[0].Entry.EncKey, goldenEntry().EncKey) {
			t.Errorf("upsert entry body diverged: %+v", changes[0].Entry)
		}
		if !bytes.Equal(d.Encode(), read("deltamsg.golden")) {
			t.Error("re-encode is not byte-identical")
		}
	})

	t.Run("fulldumpmsg", func(t *testing.T) {
		f, err := DecodeFullDumpMsg(read("fulldumpmsg.golden"))
		if err != nil {
			t.Fatal(err)
		}
		dump, err := inflate(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := openSum(goldenMasterKey, f.SealedSum); err != nil ||
			got != kdb.DumpChecksum(goldenMasterKey, dump) {
			t.Errorf("sealed checksum does not verify: %v", err)
		}
		entries, meta, err := kdb.ParseDumpFull(dump)
		if err != nil {
			t.Fatal(err)
		}
		if meta.Serial != 43 || meta.Digest != 0x1122334455667788 || len(entries) != 1 {
			t.Errorf("dump meta = %+v, %d entries", meta, len(entries))
		}
		if entries[0].Name != "jis" || entries[0].KVNO != 3 {
			t.Errorf("dump entry = %+v", entries[0])
		}
		if !bytes.Equal(f.Encode(), read("fulldumpmsg.golden")) {
			t.Error("re-encode is not byte-identical")
		}
	})

	t.Run("ackmsg", func(t *testing.T) {
		a, err := DecodeAckMsg(read("ackmsg.golden"))
		if err != nil {
			t.Fatal(err)
		}
		if a.Serial != 43 || !a.OK || a.NeedFull || a.Err != "" {
			t.Errorf("decoded = %+v", a)
		}
		if !bytes.Equal(a.Encode(), read("ackmsg.golden")) {
			t.Error("re-encode is not byte-identical")
		}
	})
}

// TestWireMessageRejectsCorruption: structural validation on every
// decoder, including hostile lengths.
func TestWireMessageRejectsCorruption(t *testing.T) {
	vecs := kpropVectors()
	decoders := map[string]func([]byte) error{
		"masterhello.golden": func(b []byte) error { _, err := DecodeMasterHello(b); return err },
		"slavehello.golden":  func(b []byte) error { _, err := DecodeSlaveHello(b); return err },
		"deltamsg.golden":    func(b []byte) error { _, err := DecodeDeltaMsg(b); return err },
		"fulldumpmsg.golden": func(b []byte) error { _, err := DecodeFullDumpMsg(b); return err },
		"ackmsg.golden":      func(b []byte) error { _, err := DecodeAckMsg(b); return err },
	}
	for name, decode := range decoders {
		good := vecs[name]
		if err := decode(good); err != nil {
			t.Fatalf("%s: good vector rejected: %v", name, err)
		}
		if err := decode(nil); err == nil {
			t.Errorf("%s: empty input accepted", name)
		}
		if err := decode(good[:4]); err == nil {
			t.Errorf("%s: truncated input accepted", name)
		}
		if err := decode(append(append([]byte(nil), good...), 0x00)); err == nil {
			t.Errorf("%s: trailing garbage accepted", name)
		}
		wrongKind := append([]byte(nil), good...)
		wrongKind[4] ^= 0x40
		if err := decode(wrongKind); err == nil {
			t.Errorf("%s: wrong kind byte accepted", name)
		}
	}
	// Wrong version, or a shard outside the count, in an otherwise valid
	// MasterHello.
	for _, h := range []MasterHello{
		{Version: 9, Serial: 1, Digest: 2, Shards: 1},
		{Version: 2, Serial: 1, Digest: 2, Shards: 1},
		{Version: wireVersion, Shard: 1, Shards: 1},
		{Version: wireVersion},
	} {
		if _, err := DecodeMasterHello(h.Encode()); err == nil {
			t.Errorf("hello %+v accepted", h)
		}
	}
	// A delta running backwards.
	d := goldenDeltaMsg()
	d.From, d.To = d.To, d.From
	if _, err := DecodeDeltaMsg(d.Encode()); err == nil {
		t.Error("backwards delta accepted")
	}
}

// TestInflateBound: a tiny hostile deflate stream that expands beyond
// MaxInflate must be refused, not buffered.
func TestInflateBound(t *testing.T) {
	huge := deflate(make([]byte, 1<<20)) // ~1 KiB compressed, 1 MiB inflated
	out, err := inflate(huge)
	if err != nil || len(out) != 1<<20 {
		t.Fatalf("legitimate payload refused: %v", err)
	}
	if _, err := inflate([]byte{0xff, 0x00, 0x01}); err == nil {
		t.Error("garbage deflate stream accepted")
	}
}

// TestDeflateRoundTrip: compression is transparent.
func TestDeflateRoundTrip(t *testing.T) {
	for _, size := range []int{0, 1, 1000, 1 << 16} {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i * 7)
		}
		out, err := inflate(deflate(data))
		if err != nil || !bytes.Equal(out, data) {
			t.Fatalf("size %d: round trip failed: %v", size, err)
		}
	}
}

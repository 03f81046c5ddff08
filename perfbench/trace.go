package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"kerberos/internal/core"
)

// Spans are recorded from the benchmark's own files, around its calls
// into each module's public functions. Each generator goroutine owns one
// spanBuf, so recording takes no lock; a nil *spanBuf records nothing,
// which is how untraced operations pay (almost) nothing.

type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for an op's root span
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run's epoch
	End    int64  `json:"end_ns"`
}

type spanBuf struct {
	epoch time.Time
	base  int32 // ids of this buffer are base+index, unique across buffers
	spans []span
	cur   int32 // innermost open span, the parent of the next begin
	op    int64
}

func newSpanBuf(epoch time.Time, worker int) *spanBuf {
	return &spanBuf{epoch: epoch, base: int32(worker) << 24, cur: -1}
}

// begin opens a span as a child of the innermost open one.
func (b *spanBuf) begin(name string) int32 {
	if b == nil {
		return -1
	}
	id := b.base + int32(len(b.spans))
	b.spans = append(b.spans, span{ID: id, Parent: b.cur, Op: b.op, Name: name,
		Start: time.Since(b.epoch).Nanoseconds()})
	b.cur = id
	return id
}

// end closes span id and makes its parent current again.
func (b *spanBuf) end(id int32) {
	if b == nil || id < 0 {
		return
	}
	s := &b.spans[id-b.base]
	s.End = time.Since(b.epoch).Nanoseconds()
	b.cur = s.Parent
}

// add records a finished span with an explicit parent, for generators
// that interleave many operations in one goroutine.
func (b *spanBuf) add(name string, parent int32, op int64, start, end time.Time) int32 {
	id := b.base + int32(len(b.spans))
	b.spans = append(b.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(b.epoch).Nanoseconds(), End: end.Sub(b.epoch).Nanoseconds()})
	return id
}

// startOp opens the root span of operation op.
func (b *spanBuf) startOp(op int64) int32 {
	if b == nil {
		return -1
	}
	b.op = op
	b.cur = -1
	return b.begin("op")
}

// spanStats is what the per-layer metrics read from the recorded spans.
type spanStats struct {
	byName        map[string][]float64 // span durations, µs
	opUS          float64              // total duration of root spans
	unattributeUS float64              // root time not covered by child spans
}

func analyzeSpans(bufs []*spanBuf) spanStats {
	st := spanStats{byName: map[string][]float64{}}
	for _, b := range bufs {
		if b == nil {
			continue
		}
		childUS := map[int32]float64{}
		for _, s := range b.spans {
			if s.End == 0 {
				continue // op abandoned at the window's end
			}
			d := float64(s.End-s.Start) / 1e3
			st.byName[s.Name] = append(st.byName[s.Name], d)
			if s.Parent >= 0 {
				childUS[s.Parent] += d
			}
		}
		// Children of a root run one after another, so their durations
		// sum to the part of the root they cover.
		for _, s := range b.spans {
			if s.Parent != -1 || s.Name != "op" || s.End == 0 {
				continue
			}
			d := float64(s.End-s.Start) / 1e3
			st.opUS += d
			if un := d - childUS[s.ID]; un > 0 {
				st.unattributeUS += un
			}
		}
	}
	return st
}

// median of a span's durations, 0 when the span never occurred.
func (st spanStats) median(name string) float64 { return quantile(st.byName[name], 0.5) }

// writeSpans writes every span as one JSON object per line.
func writeSpans(path string, bufs []*spanBuf) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, b := range bufs {
		if b == nil {
			continue
		}
		for i := range b.spans {
			if err := enc.Encode(&b.spans[i]); err != nil {
				f.Close()
				return fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// exchStats accumulates what the timing conn observes, per worker.
type exchStats struct {
	exchanges   int
	retransmits int
	rttUS       []float64
}

// timedConn wraps the client side of one UDP KDC exchange, installed
// through client.Config.DialUDP. It counts datagrams written beyond the
// first (retransmissions) and times first write → first valid reply as
// a kdc.rtt span under whatever client span is open.
type timedConn struct {
	net.Conn
	st     *exchStats
	spans  *spanBuf
	writes int
	first  time.Time
	spanID int32
	done   bool
}

func timedDialer(st *exchStats, spans *spanBuf) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		c, err := net.Dial("udp4", addr)
		if err != nil {
			return nil, err
		}
		return &timedConn{Conn: c, st: st, spans: spans, spanID: -1}, nil
	}
}

func (c *timedConn) Write(p []byte) (int, error) {
	if c.writes == 0 {
		c.first = time.Now()
		c.spanID = c.spans.begin("kdc.rtt")
	}
	c.writes++
	return c.Conn.Write(p)
}

func (c *timedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if err == nil && !c.done {
		if t, perr := core.PeekType(p[:n]); perr == nil && (t == core.MsgAuthReply || t == core.MsgError) {
			c.done = true
			c.st.rttUS = append(c.st.rttUS, float64(time.Since(c.first).Nanoseconds())/1e3)
			c.spans.end(c.spanID)
		}
	}
	return n, err
}

func (c *timedConn) Close() error {
	if !c.done {
		c.spans.end(c.spanID)
	}
	if c.writes > 0 {
		c.st.exchanges++
		c.st.retransmits += c.writes - 1
	}
	return c.Conn.Close()
}

// quantile returns the q-quantile of xs by linear interpolation (xs is
// sorted in place); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

// timeEach runs fn n times and returns the median duration of one call
// in nanoseconds: for operations well above the clock's resolution.
func timeEach(n int, fn func(i int)) float64 {
	ds := make([]float64, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		fn(i)
		ds[i] = float64(time.Since(t).Nanoseconds())
	}
	return quantile(ds, 0.5)
}

// timeLoop times rounds of n calls and returns the median per-call cost
// in nanoseconds: for operations too short to time one at a time.
func timeLoop(rounds, n int, fn func(i int)) float64 {
	ds := make([]float64, rounds)
	k := 0
	for r := 0; r < rounds; r++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn(k)
			k++
		}
		ds[r] = float64(time.Since(t).Nanoseconds()) / float64(n)
	}
	return quantile(ds, 0.5)
}

//go:build !(linux && (amd64 || arm64))

package kdc

import (
	"net/netip"

	"kerberos/internal/core"
)

// Without the burst syscalls a worker reads one datagram at a time, so
// every burst is a batch of one, the read token is never handed off,
// and the datagrams are served serially.

// burstIO is a worker's one receive buffer and the sender of the
// datagram in it.
type burstIO struct {
	buf  [MaxUDPMessage]byte
	peer netip.AddrPort
}

func newUDPWorker(l *Listener) (*udpWorker, error) { return &udpWorker{l: l}, nil }

// recv reads one datagram into w.batch.
//
//kerb:hotpath
func (w *udpWorker) recv() (int, error) {
	n, from, err := w.l.udp.ReadFromUDPAddrPort(w.buf[:])
	if err != nil {
		return 0, err
	}
	w.peer = from
	var a core.Addr
	if ip := from.Addr().Unmap(); ip.Is4() {
		a = ip.As4()
	}
	w.batch[0] = BatchRequest{Msg: w.buf[:n], From: a}
	return 1, nil
}

// send writes the reply of the burst's one lane back to its sender; a
// failed write is counted in UDPSendErrors.
//
//kerb:hotpath
func (w *udpWorker) send(int) {
	reply := w.l.udpDatagram(w.batch[0].Reply)
	w.batch[0] = BatchRequest{}
	if reply == nil {
		return
	}
	if _, err := w.l.udp.WriteToUDPAddrPort(reply, w.peer); err != nil && w.l.ctx.Err() == nil {
		w.l.server.metrics.UDPSendErrors.Inc()
	}
}

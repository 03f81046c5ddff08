//go:build linux && (amd64 || arm64)

package kdc

import (
	"runtime"
	"syscall"
	"unsafe"

	"kerberos/internal/core"
)

// The burst syscalls: one recvmmsg reads every queued datagram, up to
// udpBurst, and one sendmmsg writes the burst's replies. Both run inside
// the socket's RawConn callbacks, so a worker with nothing to read parks
// in the runtime's network poller like any other blocked read.

// mmsghdr is struct mmsghdr: a msghdr plus the byte count the kernel
// fills in for that entry.
type mmsghdr struct {
	hdr syscall.Msghdr
	n   uint32
	_   [4]byte
}

// sysSendmmsg is sendmmsg(2)'s number. The syscall package lists it for
// arm64 but its amd64 table stops short of it; runtime.GOARCH is a
// constant, so the choice folds away at compile time.
func sysSendmmsg() uintptr {
	if runtime.GOARCH == "amd64" {
		return 307
	}
	return 269
}

// burstIO is a worker's receive buffers and syscall arrays. Entry i of
// in reads into bufs[i] and names[i]; entry j of out sends outIov[j] to
// the name of the lane it answers.
type burstIO struct {
	rc             syscall.RawConn
	recvFn, sendFn func(fd uintptr) bool // w.recvFD, w.sendFD, bound once

	names  [udpBurst]syscall.RawSockaddrInet4
	iov    [udpBurst]syscall.Iovec
	in     [udpBurst]mmsghdr
	outIov [udpBurst]syscall.Iovec
	out    [udpBurst]mmsghdr

	got     int           // datagrams the last recvmmsg read
	recvErr syscall.Errno // its failure, if any
	queued  int           // entries of out to send
	sent    int           // entries of out sendmmsg has taken
	failed  uint64        // entries skipped because their send failed

	// Last, and burstIO last in udpWorker, so the garbage collector's
	// scan of a worker stops before its 512 KiB of packet bytes.
	bufs [udpBurst][MaxUDPMessage]byte
}

func newUDPWorker(l *Listener) (*udpWorker, error) {
	rc, err := l.udp.SyscallConn()
	if err != nil {
		return nil, err
	}
	w := &udpWorker{l: l}
	w.rc = rc
	w.recvFn, w.sendFn = w.recvFD, w.sendFD
	for i := range w.in {
		w.iov[i].Base = &w.bufs[i][0]
		w.iov[i].SetLen(MaxUDPMessage)
		w.in[i].hdr.Name = (*byte)(unsafe.Pointer(&w.names[i]))
		w.in[i].hdr.Iov = &w.iov[i]
		w.in[i].hdr.Iovlen = 1
		w.out[i].hdr.Iov = &w.outIov[i]
		w.out[i].hdr.Iovlen = 1
	}
	return w, nil
}

// recv reads one burst into w.batch and returns its size.
//
//kerb:hotpath
func (w *udpWorker) recv() (int, error) {
	for i := range w.in {
		w.in[i].hdr.Namelen = syscall.SizeofSockaddrInet4
	}
	if err := w.rc.Read(w.recvFn); err != nil {
		return 0, err
	}
	if w.recvErr != 0 {
		return 0, w.recvErr
	}
	for i := 0; i < w.got; i++ {
		w.batch[i] = BatchRequest{Msg: w.bufs[i][:w.in[i].n], From: core.Addr(w.names[i].Addr)}
	}
	return w.got, nil
}

// recvFD is the RawConn read callback; it reports false to wait for the
// socket to become readable.
func (w *udpWorker) recvFD(fd uintptr) bool {
	for {
		n, _, errno := syscall.Syscall6(syscall.SYS_RECVMMSG, fd,
			uintptr(unsafe.Pointer(&w.in[0])), udpBurst, 0, 0, 0)
		switch errno {
		case 0:
			w.got, w.recvErr = int(n), 0
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		}
		w.got, w.recvErr = 0, errno
		return true
	}
}

// send writes the replies of the burst's first n lanes with sendmmsg,
// each to the address its request came from, and drops the burst's
// buffer references. A lane whose send fails is skipped and counted in
// UDPSendErrors; the lanes after it are still sent.
//
//kerb:hotpath
func (w *udpWorker) send(n int) {
	q := 0
	for i := 0; i < n; i++ {
		reply := w.l.udpDatagram(w.batch[i].Reply)
		w.batch[i] = BatchRequest{}
		if reply == nil {
			continue
		}
		w.outIov[q].Base = &reply[0]
		w.outIov[q].SetLen(len(reply))
		w.out[q].hdr.Name = w.in[i].hdr.Name
		w.out[q].hdr.Namelen = w.in[i].hdr.Namelen
		q++
	}
	if q == 0 {
		return
	}
	w.queued, w.sent, w.failed = q, 0, 0
	w.rc.Write(w.sendFn) // fails only once the socket is closed
	if w.failed > 0 {
		w.l.server.metrics.UDPSendErrors.Add(w.failed)
	}
	for j := 0; j < q; j++ {
		w.outIov[j].Base = nil
	}
}

// sendFD is the RawConn write callback. sendmmsg stops at the first
// entry that fails and reports only the entries before it; a call that
// sends nothing reports the failure, and that entry is skipped.
func (w *udpWorker) sendFD(fd uintptr) bool {
	for w.sent < w.queued {
		n, _, errno := syscall.Syscall6(sysSendmmsg(), fd,
			uintptr(unsafe.Pointer(&w.out[w.sent])), uintptr(w.queued-w.sent), 0, 0, 0)
		switch errno {
		case 0:
			w.sent += int(n)
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			w.sent++
			w.failed++
		}
	}
	return true
}

//go:build unix

package kdc

import (
	"net"
	"syscall"
	"time"
)

// drainUDP discards every datagram already queued on c, using buf as
// scratch, and reports whether c is fit for another exchange. The read
// loop runs inside one non-blocking pass over the descriptor: it ends at
// EAGAIN (the queue is empty) or at any other error — such as a pending
// ECONNREFUSED from an earlier ICMP port unreachable — which makes the
// socket unfit.
func drainUDP(c *net.UDPConn, buf []byte) bool {
	// A raw read fails without reading once the read deadline has
	// passed, and the last exchange's deadline usually has.
	if c.SetReadDeadline(time.Time{}) != nil {
		return false
	}
	rc, err := c.SyscallConn()
	if err != nil {
		return false
	}
	ok := false
	err = rc.Read(func(fd uintptr) bool {
		for {
			_, err := syscall.Read(int(fd), buf)
			if err != nil {
				ok = err == syscall.EAGAIN || err == syscall.EWOULDBLOCK
				return true
			}
		}
	})
	return err == nil && ok
}

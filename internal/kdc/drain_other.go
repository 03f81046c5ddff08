//go:build !unix

package kdc

import "net"

// drainUDP reports every socket unfit for another exchange: without a
// non-blocking read there is no way to empty the queue, so a Selector
// dials a fresh socket for each exchange here.
func drainUDP(*net.UDPConn, []byte) bool { return false }

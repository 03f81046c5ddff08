package kdc

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"kerberos/internal/kdb"
)

// Cluster runs several KDC server instances over read-only replicas of
// one principal database and load-balances clients across them — the
// "multiple kerberosd instances behind the Selector" deployment that
// takes a realm past what one server process can absorb. The paper's
// slave machines (§5.3) already make this sound: every replica serves
// from a propagated read-only copy, so any instance can answer any
// ticket request, and the Selector's stickiness plus the rotated
// preference handed to each client spread load without a coordinator.
type Cluster struct {
	realm     string
	listeners []*Listener
	servers   []*Server
	next      atomic.Uint64
}

// NewCluster starts n KDC instances for realm, each with its own UDP/TCP
// listener on an OS-assigned loopback port, all serving db. db is
// typically a read-only replica kept current by kprop; the instances
// share it (lookups are lock-free reads), so one propagation feed
// updates every instance at once.
func NewCluster(realm string, db *kdb.Database, n int, opts ...Option) (*Cluster, error) {
	if n < 1 {
		n = 1
	}
	c := &Cluster{realm: realm}
	for i := 0; i < n; i++ {
		srv := New(realm, db, opts...)
		l, err := Serve(srv, "127.0.0.1:0")
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("kdc: starting cluster instance %d: %w", i, err)
		}
		c.servers = append(c.servers, srv)
		c.listeners = append(c.listeners, l)
	}
	return c, nil
}

// Addrs returns the instances' addresses.
func (c *Cluster) Addrs() []string {
	addrs := make([]string, len(c.listeners))
	for i, l := range c.listeners {
		addrs[i] = l.Addr()
	}
	return addrs
}

// Servers returns the running instances (metrics inspection).
func (c *Cluster) Servers() []*Server { return c.servers }

// Selector returns a client-side Selector over the cluster with a
// rotated initial preference, so successive clients lead with different
// instances: the Selector's stickiness then keeps each client pinned to
// a healthy instance while failures spill to the others.
func (c *Cluster) Selector() *Selector {
	addrs := c.Addrs()
	if len(addrs) == 0 {
		return NewSelector()
	}
	start := int(c.next.Add(1)-1) % len(addrs)
	rotated := make([]string, 0, len(addrs))
	rotated = append(rotated, addrs[start:]...)
	rotated = append(rotated, addrs[:start]...)
	return NewSelector(rotated...)
}

// Exchange sends one request through a fresh rotated Selector — the
// convenience path for callers that do not hold a per-client Selector.
func (c *Cluster) Exchange(req []byte, timeout time.Duration) ([]byte, error) {
	if len(c.listeners) == 0 {
		return nil, errors.New("kdc: cluster has no instances")
	}
	s := c.Selector()
	defer s.Close()
	return s.Exchange(req, timeout)
}

// Close stops every instance.
func (c *Cluster) Close() error {
	var errs []error
	for _, l := range c.listeners {
		if l != nil {
			if err := l.Close(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	return errors.Join(errs...)
}

package client

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/des"
	"kerberos/internal/kdc"
)

// Config is the client-side realm configuration (the krb.conf role):
// which KDC addresses serve which realm, with slaves listed after the
// master for failover (§5.3). Exchanges run through a per-realm
// kdc.Selector, so one lost datagram costs a retransmission interval
// (not the whole timeout), a dead master is raced against the slaves
// after a short head start, and the last-responsive KDC is remembered
// across exchanges.
type Config struct {
	// Realms maps realm name → KDC addresses, master listed first.
	Realms map[string][]string
	// Timeout bounds one whole KDC exchange — retransmissions, slave
	// failover, and a TCP fallback included. Zero means one second.
	Timeout time.Duration

	// DialUDP and DialTCP override socket construction for every
	// selector this config builds (fault injection in tests). Nil means
	// real sockets, and lets a selector keep its UDP sockets across
	// exchanges; a non-nil DialUDP is called once per exchange, and the
	// socket it returns is closed when the exchange ends.
	DialUDP kdc.UDPDial
	DialTCP kdc.TCPDial

	mu        sync.Mutex
	selectors map[string]*kdc.Selector
}

func (c *Config) timeout() time.Duration {
	if c.Timeout == 0 {
		return time.Second
	}
	return c.Timeout
}

// selector returns the realm's sticky KDC selector, building it on
// first use (and rebuilding if the address list was edited since).
func (c *Config) selector(realm string) (*kdc.Selector, error) {
	addrs := c.Realms[realm]
	if len(addrs) == 0 {
		return nil, fmt.Errorf("client: no KDCs configured for realm %s", realm)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.selectors == nil {
		c.selectors = make(map[string]*kdc.Selector)
	}
	s, ok := c.selectors[realm]
	if !ok || !slices.Equal(s.Addrs(), addrs) {
		if ok {
			s.Close()
		}
		s = kdc.NewSelector(addrs...)
		s.DialUDP = c.DialUDP
		s.DialTCP = c.DialTCP
		c.selectors[realm] = s
	}
	return s, nil
}

// Salt derives the string-to-key salt for a principal: realm plus name
// plus instance, so equal passwords under different names or realms give
// different keys.
func Salt(p core.Principal) string { return p.Realm + p.Name + p.Instance }

// PasswordKey converts a principal's password into its private DES key.
func PasswordKey(p core.Principal, password string) des.Key {
	return des.StringToKey(password, Salt(p))
}

// Client performs the user-side protocol: the initial ticket exchange
// (kinit / login), ticket-granting exchanges, and cross-realm
// credential acquisition. One Client serves one principal.
type Client struct {
	Principal core.Principal
	Config    *Config
	Cache     *CredCache

	// Addr is the workstation address to place in authenticators. It
	// must match the source address the KDC and services observe; leave
	// zero to have it inferred per-exchange from the ticket.
	Addr core.Addr

	// Clock substitutes the time source; nil means time.Now.
	Clock func() time.Time
}

// New creates a client for principal with an empty credential cache.
func New(principal core.Principal, cfg *Config) *Client {
	return &Client{
		Principal: principal,
		Config:    cfg,
		Cache:     NewCredCache(principal),
	}
}

// now falls back to the wall clock when no test clock is injected.
//
//kerb:clockadapter -- the declared fallback boundary for Client.Clock
func (c *Client) now() time.Time {
	if c.Clock != nil {
		return c.Clock()
	}
	return time.Now()
}

// exchange sends req to the principal's realm KDCs (or the named
// realm's) through the realm's sticky selector.
func (c *Client) exchange(realm string, req []byte) ([]byte, error) {
	sel, err := c.Config.selector(realm)
	if err != nil {
		return nil, err
	}
	reply, err := sel.Exchange(req, c.Config.timeout())
	if err != nil {
		return nil, err
	}
	if err := core.IfErrorMessage(reply); err != nil {
		return nil, err
	}
	return reply, nil
}

// credFromReply converts an opened KDC reply into cached credentials.
func credFromReply(enc *core.EncTicketReply, ticketRealm string) *Credentials {
	return &Credentials{
		Service:     enc.Server,
		SessionKey:  enc.SessionKey,
		Ticket:      enc.Ticket,
		KVNO:        enc.KVNO,
		TicketRealm: ticketRealm,
		Issued:      enc.Issued,
		Life:        enc.Life,
	}
}

// LoginService performs the initial authentication exchange (Figure 5)
// for an arbitrary AS-issued service — the TGS for a normal login, or
// changepw.kerberos for kpasswd (§5.1). The password is converted to a
// DES key, used to decrypt the reply, and both are discarded before
// returning ("the user's password and DES key are erased from memory",
// §4.2).
func (c *Client) LoginService(password string, service core.Principal, life core.Lifetime) (*Credentials, error) {
	now := c.now()
	req := &core.AuthRequest{
		Client:  c.Principal,
		Service: service,
		Life:    life,
		Time:    core.TimeFromGo(now),
	}
	raw, err := c.exchange(c.Principal.Realm, req.Encode())
	if err != nil {
		return nil, err
	}
	rep, err := core.DecodeAuthReply(raw)
	if err != nil {
		return nil, err
	}
	key := PasswordKey(c.Principal, password)
	// Drop the cached schedule and the key itself on every return path.
	defer des.ForgetKey(key)
	defer clear(key[:])
	enc, err := rep.Open(key)
	if err != nil {
		return nil, fmt.Errorf("client: cannot decrypt KDC reply (incorrect password?): %w", err)
	}
	// Bind the reply to our request: the sealed echo must match, so a
	// recorded reply to an older request cannot be substituted, and so
	// must the service, since the echo has one-second resolution.
	if enc.RequestTime != req.Time {
		return nil, core.NewError(core.ErrRepeat, "KDC reply does not match request (echo %d != %d)",
			enc.RequestTime, req.Time)
	}
	if !enc.Server.SameEntity(service) {
		return nil, core.NewError(core.ErrRepeat, "KDC reply is for %v, not %v", enc.Server, service)
	}
	cred := credFromReply(enc, c.Principal.Realm)
	c.Cache.Store(cred)
	return cred, nil
}

// Login is kinit: obtain the ticket-granting ticket with the user's
// password (§4.2, §6.1).
func (c *Client) Login(password string) (*Credentials, error) {
	return c.LoginService(password,
		core.TGSPrincipal(c.Principal.Realm, c.Principal.Realm), core.DefaultTGTLife)
}

// ErrNoTGT reports a TGS operation attempted without a valid TGT.
var ErrNoTGT = errors.New("client: no valid ticket-granting ticket (run kinit)")

// tgt returns the cached local TGT.
func (c *Client) tgt(now time.Time) (*Credentials, error) {
	cred, ok := c.Cache.Get(core.TGSPrincipal(c.Principal.Realm, c.Principal.Realm), now)
	if !ok {
		return nil, ErrNoTGT
	}
	return cred, nil
}

// tgsExchange runs the Figure 8 exchange at the KDCs of kdcRealm, using
// the given (possibly cross-realm) TGT.
func (c *Client) tgsExchange(tgt *Credentials, kdcRealm string, service core.Principal, life core.Lifetime) (*Credentials, error) {
	now := c.now()
	auth := core.NewAuthenticator(c.Principal, c.Addr, now, 0)
	req := &core.TGSRequest{
		APReq: core.APRequest{
			KVNO:          tgt.KVNO,
			TicketRealm:   tgt.TicketRealm,
			Ticket:        tgt.Ticket,
			Authenticator: auth.Seal(tgt.SessionKey),
		},
		Service: service,
		Life:    life,
		Time:    core.TimeFromGo(now),
	}
	raw, err := c.exchange(kdcRealm, req.Encode())
	if err != nil {
		return nil, err
	}
	rep, err := core.DecodeAuthReply(raw)
	if err != nil {
		return nil, err
	}
	enc, err := rep.Open(tgt.SessionKey)
	if err != nil {
		return nil, err
	}
	// The echo has one-second resolution, so a reply to another request
	// from the same second passes it; the service name must match too.
	if enc.RequestTime != req.Time {
		return nil, core.NewError(core.ErrRepeat, "TGS reply does not match request")
	}
	if !enc.Server.SameEntity(service) {
		return nil, core.NewError(core.ErrRepeat, "TGS reply is for %v, not %v", enc.Server, service)
	}
	cred := credFromReply(enc, kdcRealm)
	c.Cache.Store(cred)
	return cred, nil
}

// GetCredentials returns credentials for a service, from the cache when
// possible, otherwise via the ticket-granting exchange — including the
// cross-realm path of §7.2 when the service lives in another realm: the
// local TGS first issues a TGT for the remote realm's TGS, which is then
// presented to the remote KDC.
func (c *Client) GetCredentials(service core.Principal) (*Credentials, error) {
	service = service.WithRealm(c.Principal.Realm)
	now := c.now()
	if cred, ok := c.Cache.Get(service, now); ok {
		return cred, nil
	}
	tgt, err := c.tgt(now)
	if err != nil {
		return nil, err
	}
	if service.Realm == c.Principal.Realm {
		return c.tgsExchange(tgt, c.Principal.Realm, service, core.MaxLife)
	}
	// Cross-realm: obtain (or reuse) krbtgt.<remote>@<local>.
	remoteTGS := core.Principal{Name: core.TGSName, Instance: service.Realm, Realm: c.Principal.Realm}
	xtgt, ok := c.Cache.Get(remoteTGS, now)
	if !ok {
		xtgt, err = c.tgsExchange(tgt, c.Principal.Realm, remoteTGS, core.MaxLife)
		if err != nil {
			return nil, fmt.Errorf("client: getting cross-realm TGT for %s: %w", service.Realm, err)
		}
	}
	cred, err := c.tgsExchange(xtgt, service.Realm, service, core.MaxLife)
	if err != nil {
		return nil, fmt.Errorf("client: remote TGS exchange in %s: %w", service.Realm, err)
	}
	return cred, nil
}

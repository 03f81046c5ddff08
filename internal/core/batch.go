package core

// Batch-friendly seal entry points. The KDC's batched pipeline
// (internal/kdc.HandleBatch) stages many independent exchanges through
// des.SealBatch and des.UnsealBatch, which need the cleartext encodings
// that Seal, OpenTicket, NewAuthReply, and OpenAuthenticator wrap: the
// batch gathers payloads, seals or unseals all of them in one call, and
// reassembles the results. These helpers expose exactly those payloads
// and their parsers; the wire formats are unchanged, so anything sealed
// through them is byte-identical to the scalar path's output.

// SealPayload returns the cleartext encoding Seal would encrypt — hand
// it to des.SealBatch with the server key to seal many tickets in one
// call.
func (t *Ticket) SealPayload() []byte { return t.encode() }

// ParseTicketPayload parses the plaintext a batched unseal recovered
// from a sealed ticket: the partner of OpenTicket for the batch path.
// The session-key bytes are scrubbed from plain as a side effect, as
// OpenTicket does.
func ParseTicketPayload(plain []byte) (*Ticket, error) {
	return decodeTicket(plain)
}

// SealPayload returns the cleartext encoding NewAuthReply would seal —
// hand it to des.SealBatch with the client key (AS) or TGT session key
// (TGS) to seal many reply parts in one call. The sealed
// result belongs in AuthReply.Sealed.
func (m *EncTicketReply) SealPayload() []byte { return m.encode() }

// ParseAuthenticatorPayload parses the plaintext a batched unseal
// recovered from a sealed authenticator: the partner of
// OpenAuthenticator for the batch path.
func ParseAuthenticatorPayload(plain []byte) (*Authenticator, error) {
	return decodeAuthenticator(plain)
}

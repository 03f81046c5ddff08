// Quickstart: stand up a complete Kerberos realm in-process and walk the
// paper's three authentication phases (§4, Figure 9): the initial ticket
// from the authentication server, a service ticket from the
// ticket-granting server, and mutual authentication with the end server.
package main

import (
	"fmt"
	"log"

	"kerberos"
)

func main() {
	// A realm is a database plus an authentication server. NewRealm
	// registers the essential principals (krbtgt, changepw) and starts a
	// KDC on loopback.
	realm, err := kerberos.NewRealm(kerberos.RealmConfig{
		Name:           "ATHENA.MIT.EDU",
		MasterPassword: "kdb-master-password",
	})
	if err != nil {
		log.Fatal(err)
	}
	defer realm.Close()

	// Register a user and a service — what register and kadmin do.
	if err := realm.AddUser("jis", "zanzibar"); err != nil {
		log.Fatal(err)
	}
	srvtab, err := realm.AddService("rlogin", "priam")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("realm ATHENA.MIT.EDU up; KDC at", realm.MasterAddr())

	// Phase 1 (§4.2): the user logs in. The password never leaves the
	// workstation — it only decrypts the KDC's reply.
	user, err := realm.NewLoggedInClient("jis", "zanzibar")
	if err != nil {
		log.Fatal(err)
	}
	tgt := user.Cache.List()[0]
	fmt.Printf("phase 1: TGT for %v, expires %v\n", tgt.Service, tgt.ExpiresAt())

	// Phase 2 (§4.4): a ticket for rlogin.priam via the TGS; no password.
	service, _ := kerberos.ParsePrincipal("rlogin.priam@ATHENA.MIT.EDU")
	cred, err := user.GetCredentials(service)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 2: service ticket for %v (life %v)\n", cred.Service, cred.Life.Duration())

	// Phase 3 (§4.3, Figures 6–7): present ticket + authenticator to the
	// server; ask the server to prove itself back.
	apReq, session, err := user.MkReq(service, 0, true)
	if err != nil {
		log.Fatal(err)
	}
	server := realm.NewServiceContext("rlogin", "priam", srvtab)
	serverSession, err := server.ReadRequest(apReq, kerberos.Addr{127, 0, 0, 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 3: server authenticated client as %v\n", serverSession.Client)
	if err := session.VerifyReply(serverSession.Reply); err != nil {
		log.Fatal(err)
	}
	fmt.Println("phase 3: client verified the server (mutual authentication)")

	// The two sides now share a session key: exchange a private message.
	//kerb:ignore deferwipe -- "secret" is the sealed PRIVATE message (ciphertext), not key material
	secret := serverSession.MkPriv([]byte("welcome to priam, your shell awaits"))
	plain, err := session.RdPriv(secret, kerberos.Addr{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("private message from server: %q\n", plain)

	// klist: everything obtained silently on the user's behalf (§6.1).
	fmt.Println("\nklist:")
	for _, c := range user.Cache.List() {
		fmt.Printf("  %v (expires %v)\n", c.Service, c.ExpiresAt())
	}
}

// Command kadmind is the KDBM administration server of §5: the only
// daemon with write access to the database, so it runs exclusively on
// the master machine (Figure 11). It authorizes self-service password
// changes directly and everything else against the ACL file; every
// request, permitted or denied, is logged.
//
// The database is opened write-through: every change lands in the file
// before the reply goes out, so the colocated kerberosd (which re-reads
// the file on change) and the hourly kprop always see current data —
// the role ndbm played on the Athena master.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"kerberos/internal/des"
	"kerberos/internal/kadm"
	"kerberos/internal/kdb"
)

func main() {
	var (
		realm   = flag.String("realm", "ATHENA.MIT.EDU", "realm name")
		dbPath  = flag.String("db", "principal.db", "master database file")
		aclPath = flag.String("acl", "kadm.acl", "access control list file")
		addr    = flag.String("addr", "127.0.0.1:7510", "listen address (tcp)")
	)
	flag.Parse()

	fmt.Fprint(os.Stderr, "Master database password: ")
	line, _ := bufio.NewReader(os.Stdin).ReadString('\n')
	masterPw := strings.TrimRight(line, "\r\n")

	store, err := kdb.OpenFileStore(*dbPath)
	if err != nil {
		log.Fatalf("kadmind: %v", err)
	}
	db := kdb.NewWithStore(des.StringToKey(masterPw, *realm), store)
	acl, err := kadm.LoadACL(*aclPath)
	if err != nil {
		log.Fatalf("kadmind: %v", err)
	}
	logger := log.New(os.Stderr, "kadmind ", log.LstdFlags)
	server := kadm.NewServer(*realm, db, acl, kadm.WithLogger(logger))
	l, err := kadm.Serve(server, *addr)
	if err != nil {
		log.Fatalf("kadmind: %v", err)
	}
	logger.Printf("KDBM for realm %s on %s (%d principals, %d ACL entries)",
		*realm, l.Addr(), db.Len(), acl.Len())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	l.Close()
}

// Command kadmind is the KDBM administration server of §5: the only
// daemon with write access to the database, so it runs exclusively on
// the master machine (Figure 11). It authorizes self-service password
// changes directly and everything else against the ACL file; every
// request, permitted or denied, is logged.
//
// kadmind is the one writer of the master's database directory: every
// change is appended to its segment log and made durable before the
// reply goes out, and the colocated kerberosd and kprop follow the log
// read-only — the role ndbm played on the Athena master.
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
		dbDir   = flag.String("dbdir", "principal", "master database directory (created by kdb_init)")
		aclPath = flag.String("acl", "kadm.acl", "access control list file")
		addr    = flag.String("addr", "127.0.0.1:7510", "listen address (tcp)")
	)
	flag.Parse()

	fmt.Fprint(os.Stderr, "Master database password: ")
	line, _ := bufio.NewReader(os.Stdin).ReadString('\n')
	masterPw := strings.TrimRight(line, "\r\n")

	if n, err := kdb.DetectShards(*dbDir); err != nil {
		log.Fatalf("kadmind: %v", err)
	} else if n == 0 {
		log.Fatalf("kadmind: no database in %s (run kdb_init)", *dbDir)
	}
	db, segs, err := kdb.OpenSegmentDB(des.StringToKey(masterPw, *realm), *dbDir, 0, kdb.SegmentOptions{})
	if err != nil {
		log.Fatalf("kadmind: %v", err)
	}
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
	for _, s := range segs {
		s.Close()
	}
}

// Command kdb_init initializes a realm's master database (§6.3: "The
// Kerberos administrator's job begins with running a program to
// initialize the database"): it creates the essential principals — the
// ticket-granting service and the KDBM change-password service — plus an
// initial administrator, and creates the database directory every other
// daemon opens (-dbdir).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"kerberos/internal/client"
	"kerberos/internal/core"
	"kerberos/internal/des"
	"kerberos/internal/kdb"
)

func main() {
	var (
		realm   = flag.String("realm", "ATHENA.MIT.EDU", "realm name")
		dbDir   = flag.String("dbdir", "principal", "database directory to create")
		shards  = flag.Int("shards", 1, "how many shards to split the principal space into")
		admin   = flag.String("admin", "", "username to register with an admin instance")
		aclPath = flag.String("acl", "kadm.acl", "ACL file to write when -admin is given")
	)
	flag.Parse()

	n, err := kdb.DetectShards(*dbDir)
	check(err)
	if n > 0 {
		check(fmt.Errorf("%s already holds a database", *dbDir))
	}
	in := bufio.NewReader(os.Stdin)
	masterPw := prompt(in, "Master database password: ")
	db, segs, err := kdb.OpenSegmentDB(des.StringToKey(masterPw, *realm), *dbDir, *shards, kdb.SegmentOptions{})
	check(err)
	now := time.Now()

	tgsKey, err := des.NewRandomKey()
	check(err)
	defer clear(tgsKey[:])
	check(db.Add(core.TGSName, *realm, tgsKey, 0, "kdb_init", now))
	cpKey, err := des.NewRandomKey()
	check(err)
	defer clear(cpKey[:])
	check(db.Add(core.ChangePwName, core.ChangePwInstance, cpKey, 12, "kdb_init", now))

	if *admin != "" {
		adminPw := prompt(in, fmt.Sprintf("Password for %s.admin: ", *admin))
		p := core.Principal{Name: *admin, Instance: core.AdminInstance, Realm: *realm}
		check(db.Add(*admin, core.AdminInstance, client.PasswordKey(p, adminPw), 0, "kdb_init", now))
		acl := fmt.Sprintf("# KDBM access control list\n%s\n", p)
		check(os.WriteFile(*aclPath, []byte(acl), 0o600))
		fmt.Printf("wrote %s\n", *aclPath)
	}
	for _, s := range segs {
		check(s.Close())
	}
	fmt.Printf("initialized realm %s in %s (%d principals, %d shards)\n", *realm, *dbDir, db.Len(), db.Shards())
}

func prompt(in *bufio.Reader, msg string) string {
	fmt.Fprint(os.Stderr, msg)
	line, err := in.ReadString('\n')
	if err != nil && line == "" {
		check(err)
	}
	return strings.TrimRight(line, "\r\n")
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "kdb_init:", err)
		os.Exit(1)
	}
}

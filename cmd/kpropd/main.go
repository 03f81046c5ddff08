// Command kpropd is the slave-side propagation daemon of §5.3: it
// receives updates from kprop — incremental deltas when its (serial,
// digest) checks out against the master's journal, full dumps otherwise,
// shard by shard — verifies the checksum sealed in the master database
// key, and installs verified updates atomically into the local read-only
// copy. It is the one writer of the slave's database directory: an
// update is durable before it is acknowledged, and the colocated slave
// kerberosd follows the directory read-only.
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
	"kerberos/internal/kdb"
	"kerberos/internal/kprop"
	"kerberos/internal/obs"
)

func main() {
	var (
		realm = flag.String("realm", "ATHENA.MIT.EDU", "realm name")
		dbDir = flag.String("dbdir", "principal.slave", "slave database directory (created empty if missing)")
		addr  = flag.String("addr", "127.0.0.1:7520", "listen address (tcp)")
		admin = flag.String("admin", "",
			"admin listener address serving /metrics, /healthz and /debug/pprof (e.g. 127.0.0.1:7603); empty disables")
	)
	flag.Parse()

	fmt.Fprint(os.Stderr, "Master database password: ")
	line, _ := bufio.NewReader(os.Stdin).ReadString('\n')
	masterPw := strings.TrimRight(line, "\r\n")

	// A fresh slave starts empty, one shard; give a sharded master's
	// slave its shard count with kdb_init -shards first.
	db, segs, err := kdb.OpenSegmentDB(des.StringToKey(masterPw, *realm), *dbDir, 0, kdb.SegmentOptions{})
	if err != nil {
		log.Fatalf("kpropd: %v", err)
	}
	logger := log.New(os.Stderr, "kpropd ", log.LstdFlags)
	reg := obs.NewRegistry()
	reg.GaugeFunc("kpropd_db_principals", func() int64 { return int64(db.Len()) })
	slave := kprop.NewSlave(db, logger, kprop.WithRegistry(reg))
	l, err := kprop.Serve(slave, *addr)
	if err != nil {
		log.Fatalf("kpropd: %v", err)
	}
	logger.Printf("receiving for realm %s on %s", *realm, l.Addr())

	if *admin != "" {
		a, err := obs.ServeAdmin(*admin, reg)
		if err != nil {
			log.Fatalf("kpropd: %v", err)
		}
		defer a.Close()
		logger.Printf("admin listener (metrics, pprof) on %s", a.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	l.Close()
	for _, s := range segs {
		s.Close()
	}
}

// Command kerberosd is the authentication server (§2.2): it answers the
// initial-ticket and ticket-granting exchanges over UDP and TCP. It
// performs read-only database operations, so it follows a database
// directory another daemon writes — the master's (kadmind) or a slave's
// propagated copy (kpropd) — and creates and writes nothing.
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
	"kerberos/internal/kdc"
	"kerberos/internal/obs"
)

func main() {
	var (
		realm = flag.String("realm", "ATHENA.MIT.EDU", "realm name")
		dbDir = flag.String("dbdir", "principal", "database directory to follow (kadmind or kpropd writes it)")
		addr  = flag.String("addr", "127.0.0.1:7500", "listen address (udp+tcp)")
		admin = flag.String("admin", "",
			"admin listener address serving /metrics, /healthz and /debug/pprof (e.g. 127.0.0.1:7600); empty disables")
	)
	flag.Parse()

	fmt.Fprint(os.Stderr, "Master database password: ")
	line, _ := bufio.NewReader(os.Stdin).ReadString('\n')
	masterPw := strings.TrimRight(line, "\r\n")
	masterKey := des.StringToKey(masterPw, *realm)
	// The database holds its own copy of the master key; wipe the local
	// when main unwinds (§4.1; kervet's deferwipe checks it). Registered before the
	// open/load error exits so every path is covered.
	defer clear(masterKey[:])

	db, follower, err := kdb.OpenFollower(masterKey, *dbDir)
	if err != nil {
		log.Fatalf("kerberosd: %v", err)
	}
	defer follower.Close()
	logger := log.New(os.Stderr, "kerberosd ", log.LstdFlags)
	reg := obs.NewRegistry()
	reg.GaugeFunc("kdc_db_principals", func() int64 { return int64(db.Len()) })
	reg.GaugeFunc("kdb_shards", func() int64 { return int64(db.Shards()) })
	if db.Shards() > 1 {
		for i := 0; i < db.Shards(); i++ {
			i := i
			reg.GaugeFunc(fmt.Sprintf("kdb_shard_len{shard=%q}", fmt.Sprint(i)),
				func() int64 { return int64(db.ShardLen(i)) })
			reg.GaugeFunc(fmt.Sprintf("kdb_shard_serial{shard=%q}", fmt.Sprint(i)),
				func() int64 { return int64(db.ShardSerial(i)) })
		}
	}
	// Startup/memory gauges: how long the cold start took, how much of
	// it was segment-tail replay, and the bytes the loaded base keeps
	// resident (mapped snapshot + entry slab). Realm-level startup is the
	// slowest shard; the rest sum.
	stats := follower.StartupStats()
	var startupNS, resident int64
	var replayed int64
	mapped := true
	for _, st := range stats {
		if st.StartupNS > startupNS {
			startupNS = st.StartupNS
		}
		replayed += int64(st.ReplayRecords)
		resident += st.ResidentBytes
		mapped = mapped && st.MappedBase
	}
	reg.GaugeFunc("kdb_startup_ms", func() int64 { return startupNS / 1e6 })
	reg.GaugeFunc("kdb_replay_records", func() int64 { return replayed })
	reg.GaugeFunc("kdb_resident_bytes", func() int64 { return resident })
	mappedVal := int64(0)
	if mapped {
		mappedVal = 1
	}
	reg.GaugeFunc("kdb_base_mapped", func() int64 { return mappedVal })
	server := kdc.New(*realm, db, kdc.WithLogger(logger), kdc.WithRegistry(reg))
	l, err := kdc.Serve(server, *addr)
	if err != nil {
		log.Fatalf("kerberosd: %v", err)
	}
	if *admin != "" {
		a, err := obs.ServeAdmin(*admin, reg)
		if err != nil {
			log.Fatalf("kerberosd: %v", err)
		}
		defer a.Close()
		logger.Printf("admin listener (metrics, pprof) on %s", a.Addr())
	}
	logger.Printf("serving realm %s (%d principals) on %s", *realm, db.Len(), l.Addr())
	follower.Follow(logger.Printf)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	l.Close()
	logger.Printf("served %d AS and %d TGS requests (%d errors)",
		server.Metrics().ASRequests.Load(), server.Metrics().TGSRequests.Load(),
		server.Metrics().Errors.Load())
}

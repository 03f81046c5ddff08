// Command kprop pushes the master database to slave kpropd daemons
// (§5.3, Figure 13), either once or on the hourly schedule the paper
// describes. It follows the master's database directory (kadmind writes
// it) read-only, so every change kadmind makes lands in its journal as
// it happens. Per shard, slaves that advertise a verifiable (serial,
// digest) receive only the compressed journal segment they are missing;
// everything else falls back to a compressed full dump. Slaves are
// updated in parallel with bounded fan-out.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"kerberos/internal/des"
	"kerberos/internal/kdb"
	"kerberos/internal/kprop"
	"kerberos/internal/obs"
)

func main() {
	var (
		realm    = flag.String("realm", "ATHENA.MIT.EDU", "realm name")
		dbDir    = flag.String("dbdir", "principal", "master database directory to follow (kadmind writes it)")
		slaves   = flag.String("slaves", "", "comma-separated kpropd addresses")
		interval = flag.Duration("interval", 0, "propagation interval (0 = push once and exit; the paper used 1h)")
		fanout   = flag.Int("fanout", kprop.DefaultFanout, "how many slaves to update concurrently (1 = serial)")
		full     = flag.Bool("full", false, "always send full dumps, never deltas")
		journal  = flag.Int("journal", kdb.DefaultJournalCap, "change-journal retention (entries); slaves further behind get a full dump")
		retries  = flag.Int("retries", 2, "per-slave retries within a round")
		backoff  = flag.Duration("backoff", 250*time.Millisecond, "initial retry backoff (doubles per attempt, jittered)")
		admin    = flag.String("admin", "",
			"admin listener address serving /metrics, /healthz and /debug/pprof (e.g. 127.0.0.1:7602); empty disables")
	)
	flag.Parse()
	if *slaves == "" {
		log.Fatal("kprop: -slaves required")
	}

	fmt.Fprint(os.Stderr, "Master database password: ")
	line, _ := bufio.NewReader(os.Stdin).ReadString('\n')
	masterPw := strings.TrimRight(line, "\r\n")

	db, follower, err := kdb.OpenFollower(des.StringToKey(masterPw, *realm), *dbDir)
	if err != nil {
		log.Fatalf("kprop: %v", err)
	}
	defer follower.Close()
	db.SetJournalCap(*journal)
	logger := log.New(os.Stderr, "kprop ", log.LstdFlags)
	reg := obs.NewRegistry()
	reg.GaugeFunc("kprop_db_principals", func() int64 { return int64(db.Len()) })

	opts := []kprop.Option{
		kprop.WithRegistry(reg),
		kprop.WithFanout(*fanout),
		kprop.WithRetry(*retries, *backoff),
	}
	if *full {
		opts = append(opts, kprop.WithForceFull())
	}
	m := kprop.NewMaster(db, strings.Split(*slaves, ","), logger, opts...)

	if *admin != "" {
		a, err := obs.ServeAdmin(*admin, reg)
		if err != nil {
			log.Fatalf("kprop: %v", err)
		}
		defer a.Close()
		logger.Printf("admin listener (metrics, pprof) on %s", a.Addr())
	}

	if err := m.PropagateAll(); err != nil {
		logger.Printf("initial push: %v", err)
	}
	if *interval == 0 {
		return
	}

	ctx, cancel := context.WithCancel(context.Background())
	go m.Run(ctx, *interval)
	follower.Follow(logger.Printf)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	cancel()
}

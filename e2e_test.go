package kerberos

// End-to-end test of the command-line programs: builds every binary and
// walks an administrator's day from §6.3 — initialize the database,
// start the daemons, register a user and a service, kinit / klist /
// kpasswd / kdestroy, extract a srvtab, run a Kerberized remote command,
// and propagate the database to a slave that then serves logins.

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"kerberos/internal/kdb"
)

const e2eRealm = "E2E.TEST.REALM"

// buildBinaries compiles every cmd into dir once per test run.
func buildBinaries(t *testing.T, dir string) map[string]string {
	t.Helper()
	names := []string{
		"kdb_init", "kerberosd", "kadmind", "kprop", "kpropd",
		"kinit", "klist", "kdestroy", "kpasswd", "kadmin",
		"ext_srvtab", "krsh", "krshd", "ktrace", "kstat",
	}
	bins := make(map[string]string, len(names))
	for _, n := range names {
		out := filepath.Join(dir, n)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+n)
		cmd.Dir = "."
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", n, err, msg)
		}
		bins[n] = out
	}
	return bins
}

// run executes a binary to completion with the given stdin lines.
func run(t *testing.T, bin string, stdin string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdin = strings.NewReader(stdin)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	return out.String(), err
}

// daemon starts a long-running binary and scans its stderr for the
// "on ADDR" line announcing the bound address.
func daemon(t *testing.T, bin string, stdin string, args ...string) (addr string) {
	t.Helper()
	return daemonN(t, bin, stdin, 1, args...)[0]
}

// daemonN is daemon for binaries that announce several listeners (e.g.
// kerberosd -admin prints the admin address before the protocol one);
// it returns the first n announced addresses in announcement order.
func daemonN(t *testing.T, bin string, stdin string, n int, args ...string) []string {
	t.Helper()
	addrs, _ := startDaemon(t, bin, stdin, n, args...)
	return addrs
}

// startDaemon is daemonN that also hands back the process, for a test
// that kills it.
func startDaemon(t *testing.T, bin string, stdin string, n int, args ...string) ([]string, *exec.Cmd) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdin = strings.NewReader(stdin)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	re := regexp.MustCompile(`on (127\.0\.0\.1:\d+)`)
	sc := bufio.NewScanner(stderr)
	deadline := time.After(30 * time.Second)
	found := make(chan string, n)
	go func() {
		for sc.Scan() {
			if m := re.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case found <- m[1]:
				default:
				}
			}
		}
	}()
	addrs := make([]string, 0, n)
	for len(addrs) < n {
		select {
		case a := <-found:
			// Keep draining stderr so the daemon never blocks on a full pipe.
			addrs = append(addrs, a)
		case <-deadline:
			t.Fatalf("%s announced %d of %d addresses", bin, len(addrs), n)
		}
	}
	return addrs, cmd
}

// onDisk reports whether the database directory dir holds principal
// name, read the way kerberosd reads it: through a follower.
func onDisk(t *testing.T, masterKey Key, dir, name string) bool {
	t.Helper()
	db, f, err := kdb.OpenFollower(masterKey, dir)
	if err != nil {
		return false
	}
	defer f.Close()
	_, err = db.Get(name, "")
	return err == nil
}

func TestEndToEndBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every binary")
	}
	dir := t.TempDir()
	bins := buildBinaries(t, dir)
	dbDir := filepath.Join(dir, "principal")
	aclPath := filepath.Join(dir, "kadm.acl")
	tktPath := filepath.Join(dir, "tkt")
	const masterPw = "e2e-master-password"

	// --- kdb_init: create the realm with an administrator -------------
	out, err := run(t, bins["kdb_init"], masterPw+"\nadmin-pw\n",
		"-realm", e2eRealm, "-dbdir", dbDir, "-admin", "root", "-acl", aclPath)
	if err != nil {
		t.Fatalf("kdb_init: %v\n%s", err, out)
	}
	if !strings.Contains(out, "initialized realm") {
		t.Fatalf("kdb_init output: %s", out)
	}

	// --- daemons -------------------------------------------------------
	kdcAddrs := daemonN(t, bins["kerberosd"], masterPw+"\n", 2,
		"-realm", e2eRealm, "-dbdir", dbDir, "-addr", "127.0.0.1:0",
		"-admin", "127.0.0.1:0")
	adminAddr, kdcAddr := kdcAddrs[0], kdcAddrs[1] // admin is announced first
	kdbmAddr := daemon(t, bins["kadmind"], masterPw+"\n",
		"-realm", e2eRealm, "-dbdir", dbDir, "-acl", aclPath, "-addr", "127.0.0.1:0")

	// --- kadmin: the administrator registers a user and a service -----
	out, err = run(t, bins["kadmin"], "admin-pw\nuser-pw-1\n",
		"-realm", e2eRealm, "-kdc", kdcAddr, "-kdbm", kdbmAddr, "-admin", "root",
		"add", "jis")
	if err != nil {
		t.Fatalf("kadmin add: %v\n%s", err, out)
	}
	out, err = run(t, bins["kadmin"], "admin-pw\n",
		"-realm", e2eRealm, "-kdc", kdcAddr, "-kdbm", kdbmAddr, "-admin", "root",
		"addrandom", "rcmd.e2ehost")
	if err != nil {
		t.Fatalf("kadmin addrandom: %v\n%s", err, out)
	}
	out, err = run(t, bins["kadmin"], "admin-pw\n",
		"-realm", e2eRealm, "-kdc", kdcAddr, "-kdbm", kdbmAddr, "-admin", "root",
		"list")
	if err != nil || !strings.Contains(out, "jis.") || !strings.Contains(out, "rcmd.e2ehost") {
		t.Fatalf("kadmin list: %v\n%s", err, out)
	}

	// --- kinit / klist ---------------------------------------------------
	// kadmind appends the new principal to the database's segment log
	// and kerberosd, following the log, sees it within a poll period.
	waitFor(t, 20*time.Second, func() bool {
		out, err = run(t, bins["kinit"], "user-pw-1\n",
			"-realm", e2eRealm, "-kdc", kdcAddr, "-user", "jis", "-tktfile", tktPath)
		return err == nil
	})
	if !strings.Contains(out, "ticket-granting ticket for jis@"+e2eRealm) {
		t.Fatalf("kinit output: %s", out)
	}
	out, err = run(t, bins["klist"], "", "-tktfile", tktPath)
	if err != nil || !strings.Contains(out, "krbtgt."+e2eRealm) {
		t.Fatalf("klist: %v\n%s", err, out)
	}
	// A wrong password must fail.
	out, err = run(t, bins["kinit"], "wrong-guess\n",
		"-realm", e2eRealm, "-kdc", kdcAddr, "-user", "jis", "-tktfile", tktPath+".bad")
	if err == nil {
		t.Fatalf("kinit with wrong password succeeded:\n%s", out)
	}

	// --- ext_srvtab + krshd + krsh --------------------------------------
	srvtabPath := filepath.Join(dir, "srvtab")
	out, err = run(t, bins["ext_srvtab"], "admin-pw\n",
		"-realm", e2eRealm, "-kdc", kdcAddr, "-kdbm", kdbmAddr, "-admin", "root",
		"-out", srvtabPath, "rcmd.e2ehost")
	if err != nil || !strings.Contains(out, "extracted key for rcmd.e2ehost") {
		t.Fatalf("ext_srvtab: %v\n%s", err, out)
	}
	rshAddr := daemon(t, bins["krshd"], "",
		"-realm", e2eRealm, "-hostname", "e2ehost", "-srvtab", srvtabPath,
		"-addr", "127.0.0.1:0")
	out, err = run(t, bins["krsh"], "",
		"-realm", e2eRealm, "-kdc", kdcAddr, "-host", "e2ehost",
		"-hostaddr", rshAddr, "-tktfile", tktPath, "whoami")
	if err != nil || !strings.Contains(out, "jis@"+e2eRealm+" via kerberos") {
		t.Fatalf("krsh: %v\n%s", err, out)
	}

	// --- kpasswd ---------------------------------------------------------
	out, err = run(t, bins["kpasswd"], "user-pw-1\nuser-pw-2\nuser-pw-2\n",
		"-realm", e2eRealm, "-kdc", kdcAddr, "-kdbm", kdbmAddr, "-user", "jis")
	if err != nil || !strings.Contains(out, "Password changed.") {
		t.Fatalf("kpasswd: %v\n%s", err, out)
	}
	// New password works once the change has propagated to the KDC's
	// copy; after that, the old one must be dead.
	waitFor(t, 20*time.Second, func() bool {
		out, err = run(t, bins["kinit"], "user-pw-2\n",
			"-realm", e2eRealm, "-kdc", kdcAddr, "-user", "jis", "-tktfile", tktPath)
		return err == nil
	})
	if out, err = run(t, bins["kinit"], "user-pw-1\n",
		"-realm", e2eRealm, "-kdc", kdcAddr, "-user", "jis", "-tktfile", tktPath+".old"); err == nil {
		t.Fatalf("old password still valid:\n%s", out)
	}

	// --- propagation to a slave that then serves logins -----------------
	// kpasswd returned after kadmind made the change durable, so the
	// on-disk master database already carries jis's post-kpasswd key
	// (kvno 2).
	masterKey := StringToKey(masterPw, e2eRealm)
	func() {
		db, f, err := kdb.OpenFollower(masterKey, dbDir)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if e, err := db.Get("jis", ""); err != nil || e.KVNO != 2 {
			t.Fatalf("master database after kpasswd: %+v, %v", e, err)
		}
	}()
	slaveDir := filepath.Join(dir, "slave")
	kpropdAddr := daemon(t, bins["kpropd"], masterPw+"\n",
		"-realm", e2eRealm, "-dbdir", slaveDir, "-addr", "127.0.0.1:0")
	out, err = run(t, bins["kprop"], masterPw+"\n",
		"-realm", e2eRealm, "-dbdir", dbDir, "-slaves", kpropdAddr)
	if err != nil {
		t.Fatalf("kprop: %v\n%s", err, out)
	}
	// kpropd acknowledged the push only once it was durable, so a slave
	// KDC can serve from the copy at once.
	slaveKDC := daemon(t, bins["kerberosd"], masterPw+"\n",
		"-realm", e2eRealm, "-dbdir", slaveDir, "-addr", "127.0.0.1:0")
	out, err = run(t, bins["kinit"], "user-pw-2\n",
		"-realm", e2eRealm, "-kdc", slaveKDC, "-user", "jis",
		"-tktfile", filepath.Join(dir, "tkt-slave"))
	if err != nil {
		t.Fatalf("kinit against slave: %v\n%s", err, out)
	}
	// One more change leaves the slave one behind. A one-shot kprop reads
	// the master's directory afresh and journals the records on disk, so
	// it ships that change as a delta, not a full dump.
	out, err = run(t, bins["kadmin"], "admin-pw\n",
		"-realm", e2eRealm, "-kdc", kdcAddr, "-kdbm", kdbmAddr, "-admin", "root",
		"addrandom", "rcmd.e2ehost2")
	if err != nil {
		t.Fatalf("kadmin addrandom: %v\n%s", err, out)
	}
	out, err = run(t, bins["kprop"], masterPw+"\n",
		"-realm", e2eRealm, "-dbdir", dbDir, "-slaves", kpropdAddr)
	if err != nil || !strings.Contains(out, "kprop: delta 1 changes") || strings.Contains(out, "full dump") {
		t.Fatalf("second one-shot kprop did not ship a delta: %v\n%s", err, out)
	}

	// --- ktrace: the Figure 9 wire trace ---------------------------------
	out, err = run(t, bins["ktrace"], "")
	if err != nil || !strings.Contains(out, "Both sides now share a session key") {
		t.Fatalf("ktrace: %v\n%s", err, out)
	}

	// --- kstat: live metrics from the master's admin listener ------------
	// The kinits above went through the master KDC, so its AS latency
	// histogram must be non-empty by now.
	out, err = run(t, bins["kstat"], "", "-addr", adminAddr, "-once")
	if err != nil {
		t.Fatalf("kstat: %v\n%s", err, out)
	}
	for _, want := range []string{"kdc_as_requests", "kdc_as_latency", "p50", "p99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("kstat output missing %q:\n%s", want, out)
		}
	}
	if m := regexp.MustCompile(`kdc_as_latency\s+\(n=(\d+)\)`).FindStringSubmatch(out); m == nil || m[1] == "0" {
		t.Fatalf("kstat shows empty AS latency histogram:\n%s", out)
	}

	// --- kdestroy --------------------------------------------------------
	out, err = run(t, bins["kdestroy"], "", "-tktfile", tktPath)
	if err != nil || !strings.Contains(out, "Tickets destroyed.") {
		t.Fatalf("kdestroy: %v\n%s", err, out)
	}
	if _, err := os.Stat(tktPath); !os.IsNotExist(err) {
		t.Error("ticket file survived kdestroy")
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// TestIncrementalPropagationE2E exercises incremental propagation
// across real processes: a kprop daemon following the kadmind-written
// database directory pushes to two kpropd slaves — one bootstrapping
// from empty (a retention gap, healed by a full dump) and one whose
// database has silently diverged from the master's lineage (detected by
// the rolling digest, healed by a full resync). Once both converge,
// further kadmind writes ship as compressed deltas, and the kstat
// propagation panel over kprop's admin listener reports the round mix
// and per-slave lag. A slave killed right after acknowledging a push
// comes back at or above the acknowledged serial and resumes on deltas.
func TestIncrementalPropagationE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs every binary")
	}
	dir := t.TempDir()
	bins := buildBinaries(t, dir)
	dbDir := filepath.Join(dir, "principal")
	aclPath := filepath.Join(dir, "kadm.acl")
	const masterPw = "prop-master-password"

	if out, err := run(t, bins["kdb_init"], masterPw+"\nadmin-pw\n",
		"-realm", e2eRealm, "-dbdir", dbDir, "-admin", "root", "-acl", aclPath); err != nil {
		t.Fatalf("kdb_init: %v\n%s", err, out)
	}
	kdcAddr := daemon(t, bins["kerberosd"], masterPw+"\n",
		"-realm", e2eRealm, "-dbdir", dbDir, "-addr", "127.0.0.1:0")
	kdbmAddr := daemon(t, bins["kadmind"], masterPw+"\n",
		"-realm", e2eRealm, "-dbdir", dbDir, "-acl", aclPath, "-addr", "127.0.0.1:0")

	addUser := func(name string) {
		t.Helper()
		if out, err := run(t, bins["kadmin"], "admin-pw\n"+name+"-pw\n",
			"-realm", e2eRealm, "-kdc", kdcAddr, "-kdbm", kdbmAddr, "-admin", "root",
			"add", name); err != nil {
			t.Fatalf("kadmin add %s: %v\n%s", name, err, out)
		}
	}
	masterKey := StringToKey(masterPw, e2eRealm)
	follow := func(dir string) *kdb.Database {
		t.Helper()
		db, f, err := kdb.OpenFollower(masterKey, dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return db
	}

	addUser("prop1")
	if !onDisk(t, masterKey, dbDir, "prop1") {
		t.Fatal("kadmin add returned before the principal was durable")
	}

	// Slave 1 bootstraps from nothing: its first update must be a full
	// dump. kprop journals every record on disk when it opens, so its
	// journal is capped below the master's history (-journal 2 below) to
	// keep serial 0 out of its reach.
	slave1Dir := filepath.Join(dir, "slave1")
	s1, s1Cmd := startDaemon(t, bins["kpropd"], masterPw+"\n", 2,
		"-realm", e2eRealm, "-dbdir", slave1Dir, "-addr", "127.0.0.1:0",
		"-admin", "127.0.0.1:0")
	s1Addr, s1Admin := s1[0], s1[1]

	// Slave 2 starts from a forged copy of the master database: same
	// serial, tampered lineage digest — the §5.3 nightmare of a slave
	// that silently drifted. The master must detect the divergence and
	// heal it with a full resync, never a delta.
	entries, meta, err := kdb.ParseDumpFull(follow(dbDir).DumpShard(0))
	if err != nil {
		t.Fatal(err)
	}
	forged, err := kdb.EncodeKDB4(entries, kdb.DumpMeta{Serial: meta.Serial, Digest: meta.Digest ^ 0xdeadbeef})
	if err != nil {
		t.Fatal(err)
	}
	slave2Dir := filepath.Join(dir, "slave2")
	if err := os.MkdirAll(filepath.Join(slave2Dir, "shard-000"), 0o700); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(slave2Dir, "shard-000", "base.kdb4"), forged, 0o600); err != nil {
		t.Fatal(err)
	}
	s2 := daemonN(t, bins["kpropd"], masterPw+"\n", 2,
		"-realm", e2eRealm, "-dbdir", slave2Dir, "-addr", "127.0.0.1:0",
		"-admin", "127.0.0.1:0")
	s2Addr, s2Admin := s2[0], s2[1]

	// The kprop daemon: push every 500ms, following the kadmind-written
	// directory so every change lands in its journal. Each later push is
	// one change, well inside a two-record journal.
	propAdmin := daemon(t, bins["kprop"], masterPw+"\n",
		"-realm", e2eRealm, "-dbdir", dbDir, "-slaves", s1Addr+","+s2Addr,
		"-interval", "500ms", "-journal", "2", "-admin", "127.0.0.1:0")

	kstat := func(addr string) string {
		t.Helper()
		out, err := run(t, bins["kstat"], "", "-addr", addr, "-once")
		if err != nil {
			t.Fatalf("kstat %s: %v\n%s", addr, err, out)
		}
		return out
	}
	metric := func(out, name string) int {
		m := regexp.MustCompile(regexp.QuoteMeta(name) + `\s+(\d+)`).FindStringSubmatch(out)
		if m == nil {
			return -1
		}
		n, _ := strconv.Atoi(m[1])
		return n
	}

	// Both slaves heal via full dumps: one retention gap, one divergence.
	waitFor(t, 20*time.Second, func() bool {
		out := kstat(propAdmin)
		return metric(out, "kprop_fallback_retention") >= 1 &&
			metric(out, "kprop_fallback_divergence") >= 1 &&
			metric(out, "kprop_full_rounds") >= 2
	})

	// New churn now ships as deltas to both converged slaves.
	addUser("prop2")
	waitFor(t, 20*time.Second, func() bool {
		return metric(kstat(propAdmin), "kprop_delta_rounds") >= 2
	})

	// The kstat propagation panel over the master's registry.
	out := kstat(propAdmin)
	for _, want := range []string{"propagation", "% delta)", "slave " + s1Addr, "slave " + s2Addr, "lag"} {
		if !strings.Contains(out, want) {
			t.Fatalf("kstat propagation panel missing %q:\n%s", want, out)
		}
	}

	// Slave-side panels: the bootstrap slave took a full then deltas; the
	// divergent slave never accepted anything but a full resync first.
	s1Out, s2Out := kstat(s1Admin), kstat(s2Admin)
	if metric(s1Out, "kpropd_fulls") < 1 || metric(s1Out, "kpropd_deltas") < 1 {
		t.Fatalf("slave1 install mix wrong:\n%s", s1Out)
	}
	if metric(s2Out, "kpropd_fulls") < 1 || metric(s2Out, "kpropd_deltas") < 1 {
		t.Fatalf("slave2 install mix wrong:\n%s", s2Out)
	}

	// Convergence is durable: both slaves' databases carry prop2 on the
	// master's exact (serial, digest) lineage.
	waitFor(t, 20*time.Second, func() bool { return onDisk(t, masterKey, slave1Dir, "prop2") })
	waitFor(t, 20*time.Second, func() bool { return onDisk(t, masterKey, slave2Dir, "prop2") })
	mdb, s2db := follow(dbDir), follow(slave2Dir)
	if s2db.Serial() == 0 || s2db.Serial() > mdb.Serial() ||
		(s2db.Serial() == mdb.Serial() && s2db.Digest() != mdb.Digest()) {
		t.Fatalf("slave2 lineage (%d, %x) never rejoined master (%d, %x)",
			s2db.Serial(), s2db.Digest(), mdb.Serial(), mdb.Digest())
	}

	// An acknowledged push survives SIGKILL: slave 1 is killed right
	// after acking, and its directory — and the kpropd restarted over it
	// — is at or above the acknowledged serial, resuming on deltas.
	addUser("prop3")
	masterSerial := int(follow(dbDir).Serial())
	var acked int
	waitFor(t, 20*time.Second, func() bool {
		acked = metric(kstat(s1Admin), "kpropd_serial")
		return acked >= masterSerial
	})
	s1Cmd.Process.Kill()
	s1Cmd.Wait()
	if got := follow(slave1Dir).Serial(); got < uint64(acked) {
		t.Fatalf("killed slave's directory at serial %d, below the acknowledged %d", got, acked)
	}
	s1 = daemonN(t, bins["kpropd"], masterPw+"\n", 2,
		"-realm", e2eRealm, "-dbdir", slave1Dir, "-addr", s1Addr,
		"-admin", "127.0.0.1:0")
	waitFor(t, 20*time.Second, func() bool {
		out := kstat(s1[1])
		return metric(out, "kpropd_deltas") >= 1 && metric(out, "kpropd_serial") >= acked
	})
	if out := kstat(s1[1]); metric(out, "kpropd_fulls") != 0 {
		t.Fatalf("restarted slave needed a full dump:\n%s", out)
	}
}

// TestKrshEncryptedMode drives the -x flag of the krsh binary.
func TestKrshEncryptedMode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	dir := t.TempDir()
	bins := buildBinaries(t, dir)
	dbDir := filepath.Join(dir, "principal")
	tktPath := filepath.Join(dir, "tkt")
	const masterPw = "x-master"

	if out, err := run(t, bins["kdb_init"], masterPw+"\nadmin-pw\n",
		"-realm", e2eRealm, "-dbdir", dbDir, "-admin", "root",
		"-acl", filepath.Join(dir, "acl")); err != nil {
		t.Fatalf("kdb_init: %v\n%s", err, out)
	}
	kdcAddr := daemon(t, bins["kerberosd"], masterPw+"\n",
		"-realm", e2eRealm, "-dbdir", dbDir, "-addr", "127.0.0.1:0")
	kdbmAddr := daemon(t, bins["kadmind"], masterPw+"\n",
		"-realm", e2eRealm, "-dbdir", dbDir, "-acl", filepath.Join(dir, "acl"),
		"-addr", "127.0.0.1:0")
	if out, err := run(t, bins["kadmin"], "admin-pw\nuser-pw\n",
		"-realm", e2eRealm, "-kdc", kdcAddr, "-kdbm", kdbmAddr, "-admin", "root",
		"add", "jis"); err != nil {
		t.Fatalf("kadmin: %v\n%s", err, out)
	}
	if out, err := run(t, bins["kadmin"], "admin-pw\n",
		"-realm", e2eRealm, "-kdc", kdcAddr, "-kdbm", kdbmAddr, "-admin", "root",
		"addrandom", "rcmd.xhost"); err != nil {
		t.Fatalf("kadmin addrandom: %v\n%s", err, out)
	}
	srvtabPath := filepath.Join(dir, "srvtab")
	if out, err := run(t, bins["ext_srvtab"], "admin-pw\n",
		"-realm", e2eRealm, "-kdc", kdcAddr, "-kdbm", kdbmAddr, "-admin", "root",
		"-out", srvtabPath, "rcmd.xhost"); err != nil {
		t.Fatalf("ext_srvtab: %v\n%s", err, out)
	}
	var out string
	var err error
	waitFor(t, 20*time.Second, func() bool {
		out, err = run(t, bins["kinit"], "user-pw\n",
			"-realm", e2eRealm, "-kdc", kdcAddr, "-user", "jis", "-tktfile", tktPath)
		return err == nil
	})
	rshAddr := daemon(t, bins["krshd"], "",
		"-realm", e2eRealm, "-hostname", "xhost", "-srvtab", srvtabPath,
		"-addr", "127.0.0.1:0")
	out, err = run(t, bins["krsh"], "",
		"-realm", e2eRealm, "-kdc", kdcAddr, "-host", "xhost",
		"-hostaddr", rshAddr, "-tktfile", tktPath, "-x", "whoami")
	if err != nil || !strings.Contains(out, "via kerberos-private") {
		t.Fatalf("krsh -x: %v\n%s", err, out)
	}
}

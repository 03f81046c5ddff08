package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"kerberos/internal/client"
	"kerberos/internal/core"
	"kerberos/internal/des"
	"kerberos/internal/kadm"
	"kerberos/internal/kdb"
	"kerberos/internal/kdc"
	"kerberos/internal/kprop"
	"kerberos/internal/obs"
)

const realmName = "ATHENA.MIT.EDU"

// realmSpec sizes one generated realm.
type realmSpec struct {
	Users    int // user principals u0000000, u0000001, ...
	Reserve  int // tail of the user permutation that only probes touch
	Services int // rcmd.srvNN application servers
	Shards   int
	// SlaveFull builds the slave as cmd/kpropd does (an empty flat
	// database filled by a full kprop round during set-up). Otherwise the
	// slave opens hard links of the master's base snapshots, so it starts
	// at the master's lineage without a full resync.
	SlaveFull bool
}

// realm is one generated realm and every server running over it, all in
// this process on 127.0.0.1 ports chosen by the kernel.
type realm struct {
	spec      realmSpec
	seed      uint64
	masterKey des.Key
	perm      []int32 // seeded order in which users are drawn
	services  []core.Principal
	svcKeys   []des.Key
	now       time.Time

	dir    string
	db     *kdb.Database
	segs   []*kdb.SegmentStore
	openMS float64 // kdb.OpenSegmentDB wall time
	reg    *obs.Registry

	kdc   *kdc.Server
	kdcL  *kdc.Listener
	kadm  *kadm.Server
	kadmL *kadm.Listener

	slaveDB   *kdb.Database
	slaveSegs []*kdb.SegmentStore
	slave     *kprop.Slave
	slaveL    *kprop.Listener
	slaveKDC  *kdc.Server
	slaveKDCL *kdc.Listener
	master    *kprop.Master

	appServices []*client.Service // verifiers for the services, by index
}

// splitmix64 is the seeded mixing function every derived value uses.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func userName(i int) string { return fmt.Sprintf("u%07d", i) }

func (r *realm) user(i int) core.Principal {
	return core.Principal{Name: userName(i), Realm: realmName}
}

// password is user i's initial password; newPassword its kpasswd target.
func (r *realm) password(i int) string {
	return fmt.Sprintf("pw%016x", splitmix64(r.seed^uint64(i)*0x2545f4914f6cdd1d))
}

func (r *realm) newPassword(i int) string {
	return fmt.Sprintf("np%016x", splitmix64(^r.seed^uint64(i)*0x2545f4914f6cdd1d))
}

// drawable is how many users a workload may consume; the rest of the
// permutation is the probe reserve.
func (r *realm) drawable() int { return len(r.perm) - r.spec.Reserve }

// reserved returns the k-th probe-reserve user index.
func (r *realm) reserved(k int) int { return int(r.perm[r.drawable()+k%r.spec.Reserve]) }

// buildRealm generates the realm from the seed, bulk-loads it as KDB4
// base snapshots, cold-opens it the way kerberosd -dbdir does, and
// starts the master KDC, the KDBM and one slave. On error everything
// already started is torn down.
func buildRealm(ctx context.Context, spec realmSpec, seed uint64, workDir string) (r *realm, err error) {
	dir, err := os.MkdirTemp(workDir, "realm-")
	if err != nil {
		return nil, fmt.Errorf("realm: %w", err)
	}
	r = &realm{spec: spec, seed: seed, dir: dir, now: time.Now()}
	defer func() {
		if err != nil {
			r.close()
			r = nil
		}
	}()
	r.masterKey = des.StringToKey(fmt.Sprintf("master-%d", seed), realmName)
	rng := rand.New(rand.NewPCG(seed, 0x6b657262))
	r.perm = make([]int32, spec.Users)
	for i := range r.perm {
		r.perm[i] = int32(i)
	}
	rng.Shuffle(len(r.perm), func(i, j int) { r.perm[i], r.perm[j] = r.perm[j], r.perm[i] })
	for j := 0; j < spec.Services; j++ {
		r.services = append(r.services, core.Principal{Name: "rcmd", Instance: fmt.Sprintf("srv%02d", j), Realm: realmName})
		r.svcKeys = append(r.svcKeys, des.StringToKey(fmt.Sprintf("svc-%d-%d", seed, j), realmName))
	}

	masterDir := filepath.Join(dir, "master")
	if err := r.writeBases(ctx, masterDir); err != nil {
		return r, err
	}
	if !spec.SlaveFull {
		if err := linkBases(masterDir, filepath.Join(dir, "slave"), spec.Shards); err != nil {
			return r, err
		}
	}
	t := time.Now()
	r.db, r.segs, err = kdb.OpenSegmentDB(r.masterKey, masterDir, spec.Shards, kdb.SegmentOptions{})
	r.openMS = float64(time.Since(t).Nanoseconds()) / 1e6
	if err != nil {
		return r, fmt.Errorf("realm: opening master database: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return r, err
	}
	r.reg = obs.NewRegistry()
	r.kdc = kdc.New(realmName, r.db, kdc.WithRegistry(r.reg))
	if r.kdcL, err = kdc.Serve(r.kdc, "127.0.0.1:0"); err != nil {
		return r, err
	}
	acl, err := kadm.NewACL()
	if err != nil {
		return r, err
	}
	r.kadm = kadm.NewServer(realmName, r.db, acl)
	if r.kadmL, err = kadm.Serve(r.kadm, "127.0.0.1:0"); err != nil {
		return r, err
	}
	if err := r.startSlave(); err != nil {
		return r, err
	}
	for j, p := range r.services {
		tab := client.NewSrvtab()
		tab.Set(p, 1, r.svcKeys[j])
		r.appServices = append(r.appServices, client.NewService(p, tab))
	}
	return r, nil
}

// startSlave starts kpropd and a KDC over the slave database, and the
// master's kprop client pointing at it.
func (r *realm) startSlave() error {
	if r.spec.SlaveFull {
		r.slaveDB = kdb.New(r.masterKey)
	} else {
		var err error
		r.slaveDB, r.slaveSegs, err = kdb.OpenSegmentDB(r.masterKey, filepath.Join(r.dir, "slave"), r.spec.Shards, kdb.SegmentOptions{})
		if err != nil {
			return fmt.Errorf("realm: opening slave database: %w", err)
		}
	}
	r.slave = kprop.NewSlave(r.slaveDB, nil)
	var err error
	if r.slaveL, err = kprop.Serve(r.slave, "127.0.0.1:0"); err != nil {
		return err
	}
	r.slaveKDC = kdc.New(realmName, r.slaveDB)
	if r.slaveKDCL, err = kdc.Serve(r.slaveKDC, "127.0.0.1:0"); err != nil {
		return err
	}
	r.master = kprop.NewMaster(r.db, []string{r.slaveL.Addr()}, nil, kprop.WithRegistry(r.reg))
	if r.spec.SlaveFull {
		// The initial sync: the slave starts empty, so this round is a
		// full dump. Rounds inside the timed window are deltas.
		if err := r.master.PropagateAll(); err != nil {
			return fmt.Errorf("realm: initial propagation: %w", err)
		}
		if r.slaveDB.Len() != r.db.Len() {
			return fmt.Errorf("realm: slave holds %d principals after the initial sync, master %d", r.slaveDB.Len(), r.db.Len())
		}
	}
	return nil
}

// close stops every server and removes the realm's files. Safe on a
// partly built realm.
func (r *realm) close() {
	if r.kdcL != nil {
		r.kdcL.Close()
	}
	if r.kadmL != nil {
		r.kadmL.Close()
	}
	if r.slaveKDCL != nil {
		r.slaveKDCL.Close()
	}
	if r.slaveL != nil {
		r.slaveL.Close()
	}
	for _, s := range append(r.segs, r.slaveSegs...) {
		s.Close()
	}
	os.RemoveAll(r.dir)
}

// entryFor builds one principal record sealed in the master key.
func (r *realm) entryFor(mc *des.Cipher, name, instance string, key des.Key) *kdb.Entry {
	return &kdb.Entry{
		Name:       name,
		Instance:   instance,
		EncKey:     mc.Seal(key[:]),
		KVNO:       1,
		Expiration: r.now.Add(kdb.DefaultExpiration),
		ModTime:    r.now,
		ModBy:      "perfbench",
	}
}

// writeBases bulk-loads the realm: for each shard it derives every
// principal's key (users' from their passwords, by string-to-key),
// encodes one KDB4 snapshot and writes it where OpenSegmentDB looks for
// the shard's base. This is one batched path instead of a journaled,
// fsynced Add per principal.
func (r *realm) writeBases(ctx context.Context, dir string) error {
	n := r.spec.Shards
	byShard := make([][]int32, n)
	for i := 0; i < r.spec.Users; i++ {
		s := kdb.ShardIndex(userName(i), "", n)
		byShard[s] = append(byShard[s], int32(i))
	}
	mc := des.NewCipher(r.masterKey)
	for s := 0; s < n; s++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		users := byShard[s]
		entries := make([]*kdb.Entry, len(users))
		parallel(len(users), func(lo, hi int) {
			for k := lo; k < hi; k++ {
				i := int(users[k])
				key := client.PasswordKey(r.user(i), r.password(i))
				entries[k] = r.entryFor(mc, userName(i), "", key)
			}
		})
		add := func(name, instance string, key des.Key) {
			if kdb.ShardIndex(name, instance, n) == s {
				entries = append(entries, r.entryFor(mc, name, instance, key))
			}
		}
		add(core.TGSName, realmName, des.StringToKey(fmt.Sprintf("krbtgt-%d", r.seed), realmName))
		add(core.ChangePwName, core.ChangePwInstance, des.StringToKey(fmt.Sprintf("changepw-%d", r.seed), realmName))
		for j, p := range r.services {
			add(p.Name, p.Instance, r.svcKeys[j])
		}
		sort.Slice(entries, func(a, b int) bool { return entries[a].ID() < entries[b].ID() })
		// A nonzero lineage, so an empty slave (serial 0) is told to
		// take a full dump rather than a delta of nothing.
		meta := kdb.DumpMeta{Serial: uint64(len(entries)), Digest: splitmix64(r.seed + uint64(s))}
		data, err := kdb.EncodeKDB4(entries, meta)
		if err != nil {
			return fmt.Errorf("realm: encoding shard %d: %w", s, err)
		}
		shardDir := filepath.Join(dir, fmt.Sprintf("shard-%03d", s))
		if err := os.MkdirAll(shardDir, 0o700); err != nil {
			return fmt.Errorf("realm: %w", err)
		}
		if err := os.WriteFile(filepath.Join(shardDir, "base.kdb4"), data, 0o600); err != nil {
			return fmt.Errorf("realm: writing shard %d: %w", s, err)
		}
	}
	return nil
}

// linkBases gives the slave directory hard links to the master's base
// snapshots. Bases are never rewritten in place (compaction installs a
// new file by rename), so the two databases share pages, not state.
func linkBases(from, to string, shards int) error {
	for s := 0; s < shards; s++ {
		name := fmt.Sprintf("shard-%03d", s)
		if err := os.MkdirAll(filepath.Join(to, name), 0o700); err != nil {
			return fmt.Errorf("realm: %w", err)
		}
		if err := os.Link(filepath.Join(from, name, "base.kdb4"), filepath.Join(to, name, "base.kdb4")); err != nil {
			return fmt.Errorf("realm: linking slave base: %w", err)
		}
	}
	return nil
}

// parallel splits [0, n) into one contiguous range per GOMAXPROCS and
// runs fn on each concurrently, returning when all are done.
func parallel(n int, fn func(lo, hi int)) {
	w := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for k := 0; k < w; k++ {
		lo, hi := n*k/w, n*(k+1)/w
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, hi)
		}()
	}
	wg.Wait()
}

// clientConfig points a workstation at one KDC. dial, when non-nil, is
// installed through the public DialUDP seam (the traced run's timing
// conn).
func clientConfig(kdcAddr string, dial kdc.UDPDial) *client.Config {
	return &client.Config{Realms: map[string][]string{realmName: {kdcAddr}}, DialUDP: dial}
}

var loopback = core.AddrFromIP([]byte{127, 0, 0, 1})

// newClient is one user's workstation client: addressed as loopback,
// because the KDC stamps tickets with the address requests come from.
func (r *realm) newClient(i int, cfg *client.Config) *client.Client {
	c := client.New(r.user(i), cfg)
	c.Addr = loopback
	return c
}

var errVerify = errors.New("verification failed")

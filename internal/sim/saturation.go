package sim

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"kerberos/internal/client"
	"kerberos/internal/core"
	"kerberos/internal/des"
	"kerberos/internal/kdb"
	"kerberos/internal/kdc"
	"kerberos/internal/workload"
)

// The saturation analyzer answers the capacity question the temporal
// scenarios raise: how hard can a topology be driven before its p99
// violates the SLO? Method:
//
//  1. Calibrate: measure real AS and TGS service times against a live
//     in-process server built exactly like the topology under test
//     (same shard count — the only wall-clock reads in the package,
//     declared //kerb:clockadapter).
//  2. Probe: run a steady-arrival scenario at a candidate QPS in
//     modeled mode (queue dynamics with the calibrated service times;
//     millions of virtual requests in well under a second of wall
//     time) and take the exact p99 over every exchange.
//  3. Binary-search the highest QPS whose probe stays inside the SLO
//     with no overload rejections or timeouts.

// SaturationOpts parameterizes the search. Zero values get defaults.
type SaturationOpts struct {
	SLO     time.Duration // p99 objective (default 25ms)
	Window  time.Duration // virtual probe length (default 20s)
	StartQ  float64       // initial known-plausible QPS (default 500)
	CapQ    float64       // search ceiling (default 2^21)
	Service ServiceModel  // calibrated costs; zero → Calibrate is run
	Seed    int64
}

func (o *SaturationOpts) normalize() {
	if o.SLO <= 0 {
		o.SLO = 25 * time.Millisecond
	}
	if o.Window <= 0 {
		o.Window = 20 * time.Second
	}
	if o.StartQ <= 0 {
		o.StartQ = 500
	}
	if o.CapQ <= 0 {
		o.CapQ = 1 << 21
	}
	if o.Seed == 0 {
		o.Seed = 424242
	}
}

// SaturationResult reports one topology's capacity frontier.
type SaturationResult struct {
	Topology  Topology      `json:"topology"`
	MaxQPS    float64       `json:"max_qps"`
	P99AtMax  time.Duration `json:"p99_at_max_ns"`
	SLO       time.Duration `json:"slo_ns"`
	ASCost    time.Duration `json:"as_cost_ns"`
	TGSCost   time.Duration `json:"tgs_cost_ns"`
	Probes    int           `json:"probes"`
	Exchanges int           `json:"exchanges_simulated"`
}

// probeScenario builds the steady-load scenario for one candidate QPS:
// a single cohort whose storm spreads qps·window logins evenly across
// the window, one service ticket per login (so offered exchange rate is
// 2·qps), against the topology under test.
func probeScenario(top Topology, svc ServiceModel, qps float64, window time.Duration, seed int64) *Scenario {
	n := int(qps * window.Seconds())
	if n < 1 {
		n = 1
	}
	sc := &Scenario{
		Name:     fmt.Sprintf("probe-%s-%dqps", top.Name, int(qps)),
		Seed:     seed,
		Users:    n,
		Duration: Duration(window + 30*time.Second), // drain tail
		Topology: top,
		Service:  svc,
		Cohorts: []CohortSpec{{
			Name: "steady", Users: n,
			StormOver:       Duration(window),
			TicketsPerLogin: 1,
		}},
	}
	if _, err := sc.Normalize(); err != nil {
		panic("sim: probe scenario invalid: " + err.Error())
	}
	return sc
}

// probe runs one modeled probe and reports whether the topology
// sustained the rate, plus the observed p99 and exchange count.
func probe(top Topology, svc ServiceModel, qps float64, opts SaturationOpts) (ok bool, p99 time.Duration, exchanges int) {
	sc := probeScenario(top, svc, qps, opts.Window, opts.Seed)
	s, err := New(sc, Modeled(), Untraced())
	if err != nil {
		panic("sim: building probe: " + err.Error())
	}
	res := s.Execute()
	m := res.Metrics
	ok = res.P99 <= opts.SLO &&
		m.OverloadRejections.Load() == 0 &&
		m.Timeouts.Load() == 0
	return ok, res.P99, res.Samples
}

// FindSaturation binary-searches the max sustainable QPS for one
// topology. With a zero opts.Service it calibrates service times from
// real exchanges first.
func FindSaturation(top Topology, opts SaturationOpts) SaturationResult {
	opts.normalize()
	svc := opts.Service
	if svc.AS <= 0 || svc.TGS <= 0 {
		svc = Calibrate(top, 2000)
	}
	res := SaturationResult{
		Topology: top,
		SLO:      opts.SLO,
		ASCost:   svc.AS.D(),
		TGSCost:  svc.TGS.D(),
	}

	// Phase 1: double from the known-plausible start until violation.
	lo, hi := 0.0, opts.StartQ
	var p99AtLo time.Duration
	for {
		ok, p99, n := probe(top, svc, hi, opts)
		res.Probes++
		res.Exchanges += n
		if ok {
			lo, p99AtLo = hi, p99
			if hi >= opts.CapQ {
				break
			}
			hi *= 2
			continue
		}
		break
	}
	// Phase 2: bisect to ~2% of the answer.
	for lo > 0 && hi > lo*1.02 && hi-lo > 16 {
		mid := (lo + hi) / 2
		ok, p99, n := probe(top, svc, mid, opts)
		res.Probes++
		res.Exchanges += n
		if ok {
			lo, p99AtLo = mid, p99
		} else {
			hi = mid
		}
	}
	res.MaxQPS = lo
	res.P99AtMax = p99AtLo
	return res
}

// Calibrate measures real AS and TGS service times for the topology:
// it installs a small population over the topology's shard count and
// times n of each exchange against a live kdc.Server, returning the
// mean cost per exchange. This is the simulator's one bridge between
// virtual and wall time: capacity numbers mean nothing unless the
// service times are the machine's own.
//
//kerb:clockadapter -- calibration measures real crypto+lookup cost with the wall clock; results feed the virtual service-time model
func Calibrate(top Topology, n int) ServiceModel {
	if n <= 0 {
		n = 1000
	}
	const users = 64
	realm := "CALIB.MIT.EDU"
	day := time.Date(1988, 1, 25, 9, 0, 0, 0, time.UTC)
	spec := workload.Spec{Users: users, Workstations: 16, Services: 8, Seed: 7}

	shards := max(top.Shards, 1)
	stores := make([]kdb.Store, shards)
	for i := range stores {
		stores[i] = kdb.NewEpochStore()
	}
	master := client.PasswordKey(core.Principal{Name: "K", Instance: "M", Realm: realm}, "calib-master")
	defer clear(master[:])
	db := kdb.NewSharded(master, stores)
	tgsKey := des.StringToKey("calib-tgs", realm)
	defer clear(tgsKey[:])
	if err := db.Add(core.TGSName, realm, tgsKey, 0, "kdb_init", day); err != nil {
		panic("sim: calibrate: " + err.Error())
	}
	if err := workload.Install(db, spec, realm, day); err != nil {
		panic("sim: calibrate: " + err.Error())
	}
	clk := func() time.Time { return day }
	srv := kdc.New(realm, db, kdc.WithClock(clk))

	// Pre-build the request batches so only server time is measured.
	asMsgs := make([][]byte, n)
	for i := range asMsgs {
		req := &core.AuthRequest{
			Client:  spec.UserPrincipal(i%users, realm),
			Service: core.TGSPrincipal(realm, realm),
			Life:    core.DefaultTGTLife,
			Time:    core.TimeFromGo(day),
		}
		asMsgs[i] = req.Encode()
	}
	from := spec.WorkstationAddr(0)
	// One real login yields the TGT the TGS batch presents.
	userP := spec.UserPrincipal(0, realm)
	key := client.PasswordKey(userP, spec.UserPassword(0))
	defer clear(key[:])
	enc, err := openReply(srv.Handle(asMsgs[0], from), key)
	if err != nil {
		panic("sim: calibrate login: " + err.Error())
	}
	tgsMsgs := make([][]byte, n)
	for i := range tgsMsgs {
		auth := core.NewAuthenticator(userP, from, day, uint32(i+1))
		req := &core.TGSRequest{
			APReq: core.APRequest{
				TicketRealm:   realm,
				Ticket:        enc.Ticket,
				Authenticator: auth.Seal(enc.SessionKey),
			},
			Service: spec.ServicePrincipal(i%8, realm),
			Life:    core.MaxLife,
			Time:    core.TimeFromGo(day),
		}
		tgsMsgs[i] = req.Encode()
	}

	t0 := time.Now()
	for _, m := range asMsgs {
		srv.Handle(m, from)
	}
	asCost := time.Since(t0) / time.Duration(n)
	t0 = time.Now()
	for _, m := range tgsMsgs {
		srv.Handle(m, from)
	}
	tgsCost := time.Since(t0) / time.Duration(n)

	if asCost < time.Microsecond {
		asCost = time.Microsecond
	}
	if tgsCost < time.Microsecond {
		tgsCost = time.Microsecond
	}
	return ServiceModel{AS: Duration(asCost), TGS: Duration(tgsCost)}
}

// BenchTopologies is the BENCH_realm.json topology matrix: the flat
// single-instance baseline, the 16-shard database, and the 16-shard
// three-instance cluster.
var BenchTopologies = []Topology{
	{Name: "flat-x1", Shards: 1, Instances: 1, Workers: 4},
	{Name: "shard16-x1", Shards: 16, Instances: 1, Workers: 4},
	{Name: "shard16-x3", Shards: 16, Instances: 3, Workers: 4},
}

// BenchRealm runs the full analysis — every topology in BenchTopologies
// plus one traced Athena-day pass — and writes BENCH_realm.json-shaped
// output to path.
//
//kerb:clockadapter -- bench entry point; drives Calibrate and stamps nothing time-dependent itself
func BenchRealm(path string, opts SaturationOpts, athenaScale float64) error {
	opts.normalize()
	out := struct {
		SLOms      float64                     `json:"slo_p99_ms"`
		Topologies map[string]SaturationResult `json:"topologies"`
		Order      []string                    `json:"topology_order"`
		AthenaDay  map[string]any              `json:"athena_day"`
	}{
		SLOms:      float64(opts.SLO) / float64(time.Millisecond),
		Topologies: map[string]SaturationResult{},
	}
	for _, top := range BenchTopologies {
		r := FindSaturation(top, opts)
		out.Topologies[top.Name] = r
		out.Order = append(out.Order, top.Name)
		fmt.Printf("== %-12s max %8.0f qps (p99 %v, AS %v, TGS %v, %d probes / %d exchanges)\n",
			top.Name, r.MaxQPS, r.P99AtMax, r.ASCost, r.TGSCost, r.Probes, r.Exchanges)
	}

	day, err := New(AthenaDay(athenaScale))
	if err != nil {
		return err
	}
	res := day.Execute()
	m := res.Metrics
	out.AthenaDay = map[string]any{
		"scale":               athenaScale,
		"events":              res.Steps,
		"logins":              m.Logins.Load(),
		"tgs":                 m.TGS.Load(),
		"renewals":            m.Renewals.Load(),
		"skew_rejections":     m.SkewRejections.Load(),
		"overload_rejections": m.OverloadRejections.Load(),
		"timeouts":            m.Timeouts.Load(),
		"failovers":           m.Failovers.Load(),
		"p99_ns":              res.P99,
		"replay_len_max":      res.ReplayLenMax,
	}
	fmt.Printf("== athena-day  %s\n", res.Summary())

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

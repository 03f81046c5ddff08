package main

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

type metricDef struct{ name, unit string }

// endToEndMetrics are printed by untraced runs; BENCHMARK.json lists the
// same names with their bounds.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"cpu_us_per_op", "us"},
	{"heap_live_mb", "MB"},
}

// perLayerMetrics are printed by traced runs, every one on every
// workload. A layer a workload does not exercise in its window is
// measured by a probe after the window (see README.md).
var perLayerMetrics = []metricDef{
	{"client.login_us", "us"},
	{"client.tgs_us", "us"},
	{"client.ap_us", "us"},
	{"client.retransmits_per_op", "count"},
	{"kdc.rtt_us", "us"},
	{"kdc.as_handle_us", "us"},
	{"kdc.tgs_handle_us", "us"},
	{"kdc.transport_us", "us"},
	{"kdc.batch_width_mean", "count"},
	{"kdc.batch_handle_us_per_req", "us"},
	{"kdc.errors", "count"},
	{"kdc.udp_overflows", "count"},
	{"kdc.tgs_retransmits", "count"},
	{"des.string_to_key_us", "us"},
	{"des.seal_batch_ns_per_msg", "ns"},
	{"des.seal_batch_w1_ns_per_msg", "ns"},
	{"des.bitslice_passes_per_op", "count"},
	{"des.scalar_fallback_per_op", "count"},
	{"kdb.open_ms", "ms"},
	{"kdb.get_cold_ns", "ns"},
	{"kdb.key_cold_ns", "ns"},
	{"kdb.get_hot_ns", "ns"},
	{"kdb.setkey_us", "us"},
	{"kdb.compactions", "count"},
	{"kdb.resident_mb", "MB"},
	{"replay.seen_ns", "ns"},
	{"replay.len_end", "count"},
	{"kadm.change_us", "us"},
	{"kadm.execute_us", "us"},
	{"kprop.round_ms", "ms"},
	{"kprop.slave_login_us", "us"},
	{"kprop.bytes_per_change", "bytes"},
	{"kprop.full_rounds", "count"},
	{"core.tgs_encode_ns", "ns"},
	{"core.reply_decode_ns", "ns"},
	{"runtime.gc_cpu_pct", "%"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_pct", "%"},
	{"op_p99_us", "us"},
	{"prop_lag_ms", "ms"},
}

// ops gathers the generators' latencies (µs) and failures in slices
// lo..hi.
func (b *bench) ops(lo, hi int) (lat []float64, failed int) {
	for _, w := range b.workers {
		for s := lo; s <= hi; s++ {
			for _, v := range w.log.lat[s] {
				lat = append(lat, float64(v)/10)
			}
			failed += w.log.failed[s]
		}
	}
	return lat, failed
}

// roundsIn counts kpasswd_prop rounds and failed rounds in slices lo..hi.
func (b *bench) roundsIn(lo, hi int) (rounds, failed int) {
	for s := lo; s <= hi; s++ {
		rounds += b.rounds[s]
		failed += b.roundErr[s]
	}
	return rounds, failed
}

func fill(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return out
}

// endToEnd computes the untraced run's metrics: throughput, latency and
// CPU per op are medians over the window's slices.
func (b *bench) endToEnd(setupS float64) output {
	w := b.win
	var rates, p50s, cpus []float64
	for s := 1; s <= slices; s++ {
		lat, failed := b.ops(s, s)
		ok := len(lat) - failed
		rates = append(rates, float64(ok)/w.seconds(s))
		p50s = append(p50s, quantile(lat, 0.5))
		if ok > 0 {
			cpus = append(cpus, float64((w.snaps[s].cpu-w.snaps[s-1].cpu).Nanoseconds())/1e3/float64(ok))
		}
	}
	lat, failed := b.ops(1, slices)
	rounds, roundErr := b.roundsIn(1, slices)
	vals := map[string]float64{
		"setup_s":       setupS,
		"ops_per_s":     quantile(rates, 0.5),
		"op_p50_us":     quantile(p50s, 0.5),
		"cpu_us_per_op": quantile(cpus, 0.5),
		"heap_live_mb":  w.heapMB,
	}
	if w.done.Load() < w.heapAt {
		vals["heap_live_mb"] = heapLiveMB() // the window ended first
	}
	attempted := len(lat) + rounds
	failed += roundErr + b.serverFailures()
	return output{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed,
		Metrics: fill(endToEndMetrics, vals)}
}

// layerMetrics computes the traced run's metrics: counters and spans over
// the traced half of the window, then the probes.
func (b *bench) layerMetrics(ctx context.Context) (output, error) {
	r, w := b.realm, b.win
	const half = slices / 2
	latU, failU := b.ops(1, half)
	latT, failT := b.ops(half+1, slices)
	okU, okT := len(latU)-failU, len(latT)-failT
	s0, s1, s2 := w.snaps[0], w.snaps[half], w.snaps[slices]
	vals := map[string]float64{}
	per := func(x float64) float64 {
		if okT == 0 {
			return 0
		}
		return x / float64(okT)
	}

	bufs := make([]*spanBuf, len(b.workers))
	var ex exchStats
	for i, wk := range b.workers {
		bufs[i] = wk.spans
		ex.exchanges += wk.exch.exchanges
		ex.retransmits += wk.exch.retransmits
		ex.rttUS = append(ex.rttUS, wk.exch.rttUS...)
	}
	st := analyzeSpans(bufs)
	vals["client.login_us"] = st.median("client.login")
	vals["client.tgs_us"] = st.median("client.tgs")
	vals["client.ap_us"] = st.median("client.ap")
	vals["kadm.change_us"] = st.median("kadm.change")
	vals["kprop.round_ms"] = st.median("kprop.round") / 1e3
	vals["kprop.slave_login_us"] = st.median("kprop.slave_login")
	vals["client.retransmits_per_op"] = per(float64(ex.retransmits))
	vals["kdc.rtt_us"] = quantile(ex.rttUS, 0.5)
	if st.opUS > 0 {
		vals["trace.unattributed_pct"] = 100 * st.unattributeUS / st.opUS
	}
	if d := s2.batches - s1.batches; d > 0 {
		vals["kdc.batch_width_mean"] = float64(s2.batchReqs-s1.batchReqs) / float64(d)
	}
	vals["kdc.errors"] = float64(s2.errors - s0.errors)
	vals["kdc.udp_overflows"] = float64(s2.overflows - s0.overflows)
	vals["kdc.tgs_retransmits"] = float64(s2.rexm - s0.rexm)
	vals["des.bitslice_passes_per_op"] = per(float64(s2.bsPasses - s1.bsPasses))
	vals["des.scalar_fallback_per_op"] = per(float64(s2.scalarOps - s1.scalarOps))
	vals["kdb.open_ms"] = r.openMS
	vals["kdb.compactions"] = float64(s2.compactions - s0.compactions)
	vals["kprop.full_rounds"] = float64(s2.fullRounds - s0.fullRounds)
	if changes := okU + okT; b.cfg.workload == "kpasswd_prop" && changes > 0 {
		vals["kprop.bytes_per_change"] = float64(s2.deltaBytes-s0.deltaBytes) / float64(changes)
	}
	var resident int64
	for _, sg := range r.segs {
		resident += sg.StartupStats().ResidentBytes
	}
	vals["kdb.resident_mb"] = float64(resident) / (1 << 20)
	vals["replay.len_end"] = float64(r.kdc.ReplayLen())
	if tot := s2.totalCPU - s1.totalCPU; tot > 0 {
		vals["runtime.gc_cpu_pct"] = 100 * (s2.gcCPU - s1.gcCPU) / tot
	}
	vals["runtime.alloc_bytes_per_op"] = per(float64(s2.allocBytes - s1.allocBytes))
	rateU, rateT := float64(okU)/s1.t.Sub(s0.t).Seconds(), float64(okT)/s2.t.Sub(s1.t).Seconds()
	if rateU > 0 {
		vals["trace.overhead_pct"] = 100 * (rateU - rateT) / rateU
	}
	vals["op_p99_us"] = quantile(latU, 0.99)
	vals["prop_lag_ms"] = quantile(b.propLags, 0.5)

	perr := b.probe(ctx, vals)
	rounds, roundErr := b.roundsIn(1, slices)
	attempted := len(latU) + len(latT) + rounds + 1 // the probes verify as one op
	failed := failU + failT + roundErr + b.serverFailures()
	if perr != nil {
		if ctx.Err() != nil {
			return output{}, ctx.Err()
		}
		failed++
		b.noteFailure(perr)
	}
	return output{Correct: failed == 0, Attempted: attempted, Failed: failed,
		Metrics: fill(perLayerMetrics, vals)}, nil
}

// serverFailures counts the master KDC's error replies and oversized UDP
// replies in the window. Each fails an op at the client too, but only
// after its timeout, so a run counts them here as well; any makes the
// run incorrect.
func (b *bench) serverFailures() int {
	s0, s1 := b.win.snaps[0], b.win.snaps[slices]
	n := int(s1.errors - s0.errors + s1.overflows - s0.overflows)
	if n > 0 {
		b.noteFailure(fmt.Errorf("the KDC sent %d error replies and %d oversized UDP replies in the window",
			s1.errors-s0.errors, s1.overflows-s0.overflows))
	}
	return n
}

// provenance describes the run: source, toolchain, machine and sizes.
func provenance(cfg runConfig, res *result) map[string]any {
	p := map[string]any{
		"workload":     cfg.workload,
		"seed":         cfg.seed,
		"seconds":      cfg.seconds.Seconds(),
		"traced":       cfg.traced,
		"go_version":   runtime.Version(),
		"gomaxprocs":   runtime.GOMAXPROCS(0),
		"nproc":        runtime.NumCPU(),
		"cpu_model":    cpuModel(),
		"git_sha":      gitSHA(),
		"source_sha":   sourceDigest("."),
		"realm":        res.spec,
		"ops_per_run":  res.out.Attempted,
		"failed":       res.out.Failed,
		"workers":      findWorkload(cfg.workload).workers,
		"flood_depth":  floodDepth,
		"round_length": changesPerRound,
	}
	if res.firstErr != nil {
		p["first_error"] = res.firstErr.Error()
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitSHA is the commit the binary was built from, when it was built in a
// git checkout (the toolchain stamps it); "none" otherwise.
func gitSHA() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "none"
}

// sourceDigest hashes the Go sources and module files under root, so a
// run from a checkout without git history still names its code.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if n := d.Name(); !d.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		h.Write([]byte(f))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

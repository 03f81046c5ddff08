// Command kstat is a live dashboard over a Kerberos server's admin
// listener (kerberosd -admin, or anything serving an obs.Registry via
// obs.ServeAdmin). It polls the /metrics text snapshot, derives
// per-second rates from successive scrapes, and renders counters,
// gauges, and latency histograms (p50/p95/p99 plus a bucket sparkline)
// in place.
//
//	kstat -addr 127.0.0.1:7600             # refresh every 2s
//	kstat -addr 127.0.0.1:7600 -once       # one snapshot, then exit
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// sample is one parsed scrape: scalar metrics by name, duration
// histogram buckets by base name in le_ns order, and size histogram
// buckets (unitless counts — batch sizes, window occupancy) in le order.
type sample struct {
	when        time.Time
	scalars     map[string]int64
	buckets     map[string][]bucket
	sizeBuckets map[string][]bucket
}

type bucket struct {
	leNS  int64 // upper bound (ns for duration hists, a count for size hists); -1 for +Inf
	count int64 // cumulative
}

// parseMetrics reads the admin listener's text format (see
// obs.Registry.WriteText): "name value" lines plus cumulative
// name_bucket{le_ns="bound"} (duration) and name_bucket{le="bound"}
// (size) lines.
func parseMetrics(text string, when time.Time) *sample {
	s := &sample{when: when, scalars: map[string]int64{},
		buckets: map[string][]bucket{}, sizeBuckets: map[string][]bucket{}}
	for _, line := range strings.Split(text, "\n") {
		name, value, ok := strings.Cut(strings.TrimSpace(line), " ")
		if !ok || name == "" {
			continue
		}
		n, err := strconv.ParseInt(value, 10, 64)
		if err != nil {
			continue
		}
		if base, rest, isBucket := strings.Cut(name, "_bucket{le_ns=\""); isBucket {
			if le, ok := parseBound(rest); ok {
				s.buckets[base] = append(s.buckets[base], bucket{leNS: le, count: n})
			}
			continue
		}
		if base, rest, isBucket := strings.Cut(name, "_bucket{le=\""); isBucket {
			if le, ok := parseBound(rest); ok {
				s.sizeBuckets[base] = append(s.sizeBuckets[base], bucket{leNS: le, count: n})
			}
			continue
		}
		s.scalars[name] = n
	}
	return s
}

// parseBound decodes the tail of a bucket label: `bound"}` where bound
// is an integer or +Inf (reported as -1).
func parseBound(rest string) (int64, bool) {
	bound := strings.TrimSuffix(rest, "\"}")
	if bound == "+Inf" {
		return -1, true
	}
	le, err := strconv.ParseInt(bound, 10, 64)
	return le, err == nil
}

// histBases returns the base names that look like duration histograms
// (a _count companion plus nanosecond quantile lines), sorted.
func (s *sample) histBases() []string {
	var bases []string
	for name := range s.scalars {
		if base, ok := strings.CutSuffix(name, "_count"); ok {
			if _, ok := s.scalars[base+"_p50_ns"]; ok {
				bases = append(bases, base)
			}
		}
	}
	sort.Strings(bases)
	return bases
}

// sizeHistBases returns the base names that look like size histograms:
// a _count companion plus unitless quantile lines (_p50 without _ns).
func (s *sample) sizeHistBases() []string {
	var bases []string
	for name := range s.scalars {
		if base, ok := strings.CutSuffix(name, "_count"); ok {
			if _, isSize := s.scalars[base+"_p50"]; isSize {
				if _, isDur := s.scalars[base+"_p50_ns"]; !isDur {
					bases = append(bases, base)
				}
			}
		}
	}
	sort.Strings(bases)
	return bases
}

// isHistField reports whether name belongs to one of the histogram
// families (duration fields for bases, unitless fields for sizeBases),
// so the scalar table can skip it.
func isHistField(name string, bases, sizeBases []string) bool {
	for _, b := range bases {
		if strings.HasPrefix(name, b+"_") {
			switch strings.TrimPrefix(name, b+"_") {
			case "count", "sum_ns", "max_ns", "p50_ns", "p95_ns", "p99_ns":
				return true
			}
		}
	}
	for _, b := range sizeBases {
		if strings.HasPrefix(name, b+"_") {
			switch strings.TrimPrefix(name, b+"_") {
			case "count", "sum", "max", "p50", "p99":
				return true
			}
		}
	}
	return false
}

func fmtDur(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}

// sparkline renders per-bucket (non-cumulative) counts as a compact bar
// row, scaled to the largest bucket.
func sparkline(bs []bucket) string {
	levels := []rune(" ▁▂▃▄▅▆▇█")
	prev, peak := int64(0), int64(0)
	per := make([]int64, len(bs))
	for i, b := range bs {
		per[i] = b.count - prev
		prev = b.count
		if per[i] > peak {
			peak = per[i]
		}
	}
	if peak == 0 {
		return ""
	}
	var out strings.Builder
	for _, n := range per {
		idx := int(n * int64(len(levels)-1) / peak)
		if n > 0 && idx == 0 {
			idx = 1
		}
		out.WriteRune(levels[idx])
	}
	return out.String()
}

// render writes the dashboard for cur, with rates derived against prev
// (which may be nil on the first scrape).
func render(w io.Writer, addr string, cur, prev *sample) {
	fmt.Fprintf(w, "kstat %s  %s\n\n", addr, cur.when.Format("15:04:05"))

	bases := cur.histBases()
	sizeBases := cur.sizeHistBases()
	var names []string
	for name := range cur.scalars {
		// Labeled series (e.g. kprop_slave_lag{slave="..."}) render in
		// their own panel, not the flat scalar table.
		if !isHistField(name, bases, sizeBases) && !strings.Contains(name, "{") {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if startupPanelMetrics[name] {
			continue // rendered in the startup/memory panel below
		}
		v := cur.scalars[name]
		rate := ""
		if prev != nil {
			if dt := cur.when.Sub(prev.when).Seconds(); dt > 0 {
				if pv, ok := prev.scalars[name]; ok && v >= pv {
					rate = fmt.Sprintf("  %8.1f/s", float64(v-pv)/dt)
				}
			}
		}
		fmt.Fprintf(w, "  %-28s %12d%s\n", name, v, rate)
	}

	renderStartup(w, cur)
	renderShards(w, cur, prev)
	renderPropagation(w, cur, prev)

	for _, base := range bases {
		fmt.Fprintf(w, "\n  %s  (n=%d)\n", base, cur.scalars[base+"_count"])
		fmt.Fprintf(w, "    p50 %-10s p95 %-10s p99 %-10s max %-10s\n",
			fmtDur(cur.scalars[base+"_p50_ns"]), fmtDur(cur.scalars[base+"_p95_ns"]),
			fmtDur(cur.scalars[base+"_p99_ns"]), fmtDur(cur.scalars[base+"_max_ns"]))
		if bs := cur.buckets[base]; len(bs) > 0 {
			lo, hi := bs[0].leNS, bs[len(bs)-1].leNS
			hiLabel := "+Inf"
			if hi >= 0 {
				hiLabel = fmtDur(hi)
			}
			fmt.Fprintf(w, "    [%s … %s] %s\n", fmtDur(lo), hiLabel, sparkline(bs))
		}
	}

	// Size histograms: batch widths — unitless counts, so the quantiles
	// and bounds render as plain integers.
	for _, base := range sizeBases {
		count := cur.scalars[base+"_count"]
		fmt.Fprintf(w, "\n  %s  (n=%d)\n", base, count)
		mean := ""
		if count > 0 {
			mean = fmt.Sprintf(" mean %-8.1f", float64(cur.scalars[base+"_sum"])/float64(count))
		}
		fmt.Fprintf(w, "    p50 %-10d p99 %-10d max %-10d%s\n",
			cur.scalars[base+"_p50"], cur.scalars[base+"_p99"], cur.scalars[base+"_max"], mean)
		if bs := cur.sizeBuckets[base]; len(bs) > 0 {
			lo, hi := bs[0].leNS, bs[len(bs)-1].leNS
			hiLabel := "+Inf"
			if hi >= 0 {
				hiLabel = strconv.FormatInt(hi, 10)
			}
			fmt.Fprintf(w, "    [%d … %s] %s\n", lo, hiLabel, sparkline(bs))
		}
	}
}

// rate formats the per-second growth of a counter between scrapes, or
// "" when there is no prior sample to difference against.
func rate(cur, prev *sample, name string) string {
	if prev == nil {
		return ""
	}
	dt := cur.when.Sub(prev.when).Seconds()
	pv, ok := prev.scalars[name]
	if dt <= 0 || !ok || cur.scalars[name] < pv {
		return ""
	}
	return fmt.Sprintf(" (%.1f/s)", float64(cur.scalars[name]-pv)/dt)
}

// startupPanelMetrics are the cold-start gauges a segment-log
// kerberosd exports; they render as one panel instead of scattered
// rows in the scalar table.
var startupPanelMetrics = map[string]bool{
	"kdb_startup_ms":     true,
	"kdb_replay_records": true,
	"kdb_resident_bytes": true,
	"kdb_base_mapped":    true,
}

// renderStartup draws the startup/memory panel when the scraped
// registry belongs to a segment-log kerberosd: how long the realm took
// to come up (slowest shard), how much of that was segment-tail
// replay, and what the loaded base keeps resident.
func renderStartup(w io.Writer, cur *sample) {
	ms, ok := cur.scalars["kdb_startup_ms"]
	if !ok {
		return
	}
	base := "decoded (flat or unmapped base)"
	if cur.scalars["kdb_base_mapped"] == 1 {
		base = "mmapped KDB4 snapshot"
	}
	fmt.Fprintf(w, "\n  startup / memory\n")
	fmt.Fprintf(w, "    cold start %-8s replayed %d tail records\n",
		fmt.Sprintf("%dms", ms), cur.scalars["kdb_replay_records"])
	fmt.Fprintf(w, "    resident %s  base: %s\n",
		fmtBytes(cur.scalars["kdb_resident_bytes"]), base)
}

// fmtBytes renders a byte count with a binary unit suffix.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%d B", n)
}

// renderShards draws the per-shard panel when the scraped registry
// belongs to a sharded kerberosd: each shard's principal count, journal
// serial, and mutation rate (serials per second between scrapes).
func renderShards(w io.Writer, cur, prev *sample) {
	n, ok := cur.scalars["kdb_shards"]
	if !ok || n <= 1 {
		return
	}
	fmt.Fprintf(w, "\n  shards (%d)\n", n)
	for i := int64(0); i < n; i++ {
		lenName := fmt.Sprintf(`kdb_shard_len{shard="%d"}`, i)
		serName := fmt.Sprintf(`kdb_shard_serial{shard="%d"}`, i)
		if _, ok := cur.scalars[lenName]; !ok {
			continue
		}
		fmt.Fprintf(w, "    shard %-4d %10d principals  serial %-10d%s\n",
			i, cur.scalars[lenName], cur.scalars[serName], rate(cur, prev, serName))
	}
}

// renderPropagation draws the kprop/kpropd panel when the scraped
// registry belongs to a propagation daemon: the delta/full round mix,
// bytes-on-wire rate, and per-slave replication lag in journal serials.
func renderPropagation(w io.Writer, cur, prev *sample) {
	_, isMaster := cur.scalars["kprop_serial"]
	_, isSlave := cur.scalars["kpropd_serial"]
	if !isMaster && !isSlave {
		return
	}
	fmt.Fprintf(w, "\n  propagation\n")
	if isMaster {
		deltas, fulls := cur.scalars["kprop_delta_rounds"], cur.scalars["kprop_full_rounds"]
		mix := "no rounds yet"
		if total := deltas + fulls; total > 0 {
			mix = fmt.Sprintf("%d delta / %d full (%.0f%% delta)",
				deltas, fulls, 100*float64(deltas)/float64(total))
		}
		fmt.Fprintf(w, "    serial %-10d rounds: %s\n", cur.scalars["kprop_serial"], mix)
		fmt.Fprintf(w, "    bytes on wire %d%s  delta %d  full %d\n",
			cur.scalars["kprop_bytes"], rate(cur, prev, "kprop_bytes"),
			cur.scalars["kprop_delta_bytes"], cur.scalars["kprop_full_bytes"])
	}
	if isSlave {
		fmt.Fprintf(w, "    serial %-10d installed: %d delta / %d full, %d resyncs, %d rejected\n",
			cur.scalars["kpropd_serial"], cur.scalars["kpropd_deltas"],
			cur.scalars["kpropd_fulls"], cur.scalars["kpropd_resyncs"],
			cur.scalars["kpropd_rejected"])
		fmt.Fprintf(w, "    bytes received %d%s  last update %d bytes\n",
			cur.scalars["kpropd_bytes"], rate(cur, prev, "kpropd_bytes"),
			cur.scalars["kpropd_last_bytes"])
	}
	var lags []string
	for name := range cur.scalars {
		if strings.HasPrefix(name, `kprop_slave_lag{slave="`) {
			lags = append(lags, name)
		}
	}
	sort.Strings(lags)
	for _, name := range lags {
		addr := strings.TrimSuffix(strings.TrimPrefix(name, `kprop_slave_lag{slave="`), `"}`)
		fmt.Fprintf(w, "    slave %-24s lag %d serials\n", addr, cur.scalars[name])
	}
}

func scrape(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("kstat: %s returned %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	return string(body), err
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:7600", "admin listener address (kerberosd -admin)")
		interval = flag.Duration("interval", 2*time.Second, "refresh interval")
		once     = flag.Bool("once", false, "print one snapshot and exit")
	)
	flag.Parse()
	url := "http://" + *addr + "/metrics"

	var prev *sample
	for {
		text, err := scrape(url)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kstat: %v\n", err)
			os.Exit(1)
		}
		cur := parseMetrics(text, time.Now())
		if !*once {
			fmt.Print("\x1b[2J\x1b[H") // clear and home
		}
		render(os.Stdout, *addr, cur, prev)
		if *once {
			return
		}
		prev = cur
		time.Sleep(*interval)
	}
}

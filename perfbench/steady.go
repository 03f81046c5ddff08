package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness check reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steady repeats untraced runs of each workload, one per seed, one after
// another in this process, and prints every end-to-end metric's median
// and quartile spread (as a share of the median) against its bound — the
// same statistic the acceptance check uses. Each run tears its realm down
// before the next starts.
func steady(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition with the bounds")
	seedList := fs.String("seeds", "1,2,3,4,5", "comma-separated seeds, one run each")
	only := fs.String("workloads", "", "comma-separated workloads (default: all in the definition)")
	seconds := fs.Int("seconds", 0, "window length (default: run_seconds)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	data, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "steady: %v\n", err)
		return 1
	}
	var def benchmarkFile
	if err := json.Unmarshal(data, &def); err != nil {
		fmt.Fprintf(stderr, "steady: %s: %v\n", *benchPath, err)
		return 1
	}
	if *seconds == 0 {
		*seconds = def.RunSeconds
	}
	var names []string
	if *only != "" {
		names = strings.Split(*only, ",")
	} else {
		for _, w := range def.Workloads {
			names = append(names, w.Name)
		}
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	status := 0
	for _, name := range names {
		values := map[string][]float64{}
		for _, seed := range strings.Split(*seedList, ",") {
			out, err := steadyRun(ctx, name, strings.TrimSpace(seed), *seconds)
			if ctx.Err() != nil {
				fmt.Fprintf(stderr, "steady: %v\n", ctx.Err())
				return 1
			}
			if err != nil {
				fmt.Fprintf(stderr, "steady: %s seed %s: %v\n", name, seed, err)
				status = 1
				continue
			}
			for k, v := range out.Metrics {
				values[k] = append(values[k], v.Value)
			}
			fmt.Fprintf(stdout, "%s seed=%s attempted=%d failed=%d\n", name, seed, out.Attempted, out.Failed)
		}
		for _, m := range def.EndToEnd {
			vs := values[m.Name]
			if len(vs) < 2 {
				continue
			}
			med, spread := spreadOf(vs)
			verdict := "ok"
			if spread > m.Bound/3 {
				verdict = "WIDE"
			}
			fmt.Fprintf(stdout, "%-14s %-14s median=%-12.4g spread=%.4f bound=%.2f %s values=%v\n",
				name, m.Name, med, spread, m.Bound, verdict, vs)
		}
	}
	return status
}

// steadyRun is one untraced run under the same deadline as a single run.
func steadyRun(ctx context.Context, workload, seed string, seconds int) (*output, error) {
	n, err := strconv.ParseUint(seed, 10, 64)
	if err != nil {
		return nil, fmt.Errorf("seed %q: %w", seed, err)
	}
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	res, err := runBench(ctx, runConfig{workload: workload, seed: n,
		seconds: time.Duration(seconds) * time.Second, workDir: filepath.Join(".bench_build", "tmp")})
	if err != nil {
		return nil, err
	}
	if !res.out.Correct {
		return nil, fmt.Errorf("%d of %d ops failed; first: %v", res.out.Failed, res.out.Attempted, res.firstErr)
	}
	return &res.out, nil
}

// spreadOf returns the median and the interquartile distance as a share
// of the median, with quartiles computed like Python's
// statistics.quantiles(values, n=4) (the "exclusive" method).
func spreadOf(values []float64) (median, spread float64) {
	xs := append([]float64(nil), values...)
	sort.Float64s(xs)
	n := len(xs)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	if n%2 == 1 {
		median = xs[n/2]
	} else {
		median = (xs[n/2-1] + xs[n/2]) / 2
	}
	if median == 0 {
		return 0, 0
	}
	return median, (q(3) - q(1)) / median
}

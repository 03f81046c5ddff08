// Command perfbench is the realm benchmark: it generates a realm from a
// seed, serves it in-process over loopback sockets with the same
// constructors the daemons use, drives one workload in a closed loop,
// verifies every reply, and prints the result as one JSON line.
//
//	perfbench --workload login_storm --seed 1 --seconds 10 --trace 0
//	perfbench steady --seeds 1,2,3,4,5 [--workloads a,b] [--seconds 10]
//
// See README.md for the workloads, the metrics and how to read a trace.
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
	"sync"
	"syscall"
	"time"
)

// runDeadline bounds a whole run; past it the run aborts, cleans up and
// exits without a result.
const runDeadline = 170 * time.Second

type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	traced   bool
	workDir  string // realm files live in a temp dir under here
	traceOut string // span file of a traced run

	// Hooks for the package's tests: users > 0 replaces the workload's
	// realm size, and onRealm sees every realm once its servers are up.
	users   int
	onRealm func(*realm)
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "steady" {
		os.Exit(steady(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runConfig
	var trace int
	var seconds float64
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: login_storm, tgs_flood or kpasswd_prop")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed the realm and every input derive from")
	fs.Float64Var(&seconds, "seconds", 10, "length of the timed window")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	fs.StringVar(&cfg.workDir, "workdir", filepath.Join(".bench_build", "tmp"), "directory for the realm's temporary files")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "span file of a traced run (default .bench_build/traces/<workload>-<seed>.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.seconds = time.Duration(seconds * float64(time.Second))
	cfg.traced = trace == 1
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-%d.jsonl", cfg.workload, cfg.seed))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()

	res, err := runBench(ctx, cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	prov, _ := json.Marshal(provenance(cfg, res))
	fmt.Fprintf(stdout, "provenance %s\n", prov)
	line, _ := json.Marshal(res.out)
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.out.Correct {
		fmt.Fprintf(stderr, "perfbench: %d of %d ops failed; first: %v\n", res.out.Failed, res.out.Attempted, res.firstErr)
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type result struct {
	out      output
	spec     realmSpec
	firstErr error
}

// setupRuns is how many times a run sets up; setup_s is their median.
// All but the last set-up are torn down as soon as their window opens.
const setupRuns = 3

// runBench is one run: set up (build the realm, start the generators,
// warm up) setupRuns times, measure the last, verify, and on a traced run
// probe the layers. Every server, goroutine and temp file is gone when it
// returns, whatever the exit path.
func runBench(ctx context.Context, cfg runConfig) (*result, error) {
	wl := findWorkload(cfg.workload)
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	spec := wl.spec
	if cfg.users > 0 {
		spec.Users = cfg.users
	}
	var setups []float64
	var b *bench
	for k := 0; k < setupRuns; k++ {
		var err error
		if b, err = setUp(ctx, cfg, wl, spec); err != nil {
			return nil, err
		}
		setups = append(setups, b.win.start.Sub(b.t0).Seconds())
		if k < setupRuns-1 {
			b.stop()
		}
	}
	defer b.stop()
	werr := b.win.measure(ctx, cfg.seconds)
	b.win.close()
	<-b.gens
	if werr != nil {
		return nil, werr
	}
	res := &result{spec: spec}
	defer func() {
		res.firstErr = b.firstErr
		for _, w := range b.workers {
			if res.firstErr == nil {
				res.firstErr = w.log.firstErr
			}
		}
	}()
	if cfg.traced {
		var err error
		res.out, err = b.layerMetrics(ctx)
		if err != nil {
			return nil, err
		}
		bufs := make([]*spanBuf, len(b.workers))
		for i, w := range b.workers {
			bufs[i] = w.spans
		}
		if err := writeSpans(cfg.traceOut, bufs); err != nil {
			return nil, err
		}
	} else {
		res.out = b.endToEnd(quantile(setups, 0.5))
	}
	return res, ctx.Err()
}

// setUp builds a realm, starts the workload's generators and returns once
// their warm-up has opened the window. On error everything it started is
// stopped.
func setUp(ctx context.Context, cfg runConfig, wl *workload, spec realmSpec) (*bench, error) {
	t0 := time.Now()
	r, err := buildRealm(ctx, spec, cfg.seed, cfg.workDir)
	if err != nil {
		return nil, err
	}
	if cfg.onRealm != nil {
		cfg.onRealm(r)
	}
	b := &bench{cfg: cfg, realm: r, t0: t0}
	b.win = newWindow(wl.warmup, wl.heapAt, cfg.traced, r.takeSnapshot)
	if wl.prepare != nil {
		if err := wl.prepare(ctx, b); err != nil {
			r.close()
			return nil, err
		}
	}
	epoch := time.Now()
	for i := 0; i < wl.workers; i++ {
		w := &worker{id: i, spans: newSpanBuf(epoch, i)}
		w.plain = clientConfig(r.kdcL.Addr(), nil)
		w.timed = clientConfig(r.kdcL.Addr(), timedDialer(&w.exch, w.spans))
		b.workers = append(b.workers, w)
	}
	var wg sync.WaitGroup
	for _, w := range b.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			wl.gen(ctx, b, w)
		}(w)
	}
	b.gens = make(chan struct{})
	go func() {
		wg.Wait()
		close(b.gens)
	}()
	if err := b.win.waitOpen(ctx, b.gens); err != nil {
		b.stop()
		return nil, err
	}
	return b, nil
}

// stop closes the window, waits for the generators to return and tears
// the realm down.
func (b *bench) stop() {
	b.win.close()
	<-b.gens
	b.realm.close()
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// tinyRun configures a run of workload on a 4096-user realm with a short
// window, recording the address of every listener it starts.
func tinyRun(t *testing.T, workload string, traced bool) (runConfig, *[]string) {
	dir := t.TempDir()
	addrs := new([]string)
	cfg := runConfig{
		workload: workload,
		seed:     7,
		seconds:  100 * time.Millisecond,
		traced:   traced,
		workDir:  filepath.Join(dir, "work"),
		traceOut: filepath.Join(dir, "spans.jsonl"),
		users:    4096,
		onRealm: func(r *realm) {
			*addrs = append(*addrs, r.kdcL.Addr(), r.kadmL.Addr(), r.slaveL.Addr(), r.slaveKDCL.Addr())
		},
	}
	return cfg, addrs
}

// assertGone checks what every exit path of a run must leave behind:
// the goroutine count back at base, no listener answering, and no file
// under workDir.
func assertGone(t *testing.T, base int, workDir string, addrs []string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<20)
		t.Errorf("%d goroutines after the run, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
	for _, a := range addrs {
		if c, err := net.DialTimeout("tcp4", a, time.Second); err == nil {
			c.Close()
			t.Errorf("%s still accepts TCP connections", a)
		}
	}
	// The master's and the slave's KDC also served UDP.
	for i, a := range addrs {
		if i%4 != 0 && i%4 != 3 {
			continue
		}
		c, err := net.Dial("udp4", a)
		if err != nil {
			continue
		}
		c.Write([]byte("ping"))
		c.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
		if n, err := c.Read(make([]byte, 512)); err == nil {
			t.Errorf("%s still answers UDP (%d bytes)", a, n)
		}
		c.Close()
	}
	left, err := os.ReadDir(workDir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("%s left behind in the work directory", e.Name())
	}
}

// TestWorkloads runs every workload untraced and traced at tiny scale:
// each must verify every op, print every metric it defines, and clean up.
func TestWorkloads(t *testing.T) {
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", wl.name, traced), func(t *testing.T) {
				base := runtime.NumGoroutine()
				cfg, addrs := tinyRun(t, wl.name, traced)
				res, err := runBench(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(*addrs) != 4*setupRuns {
					t.Errorf("%d listener addresses recorded, want %d", len(*addrs), 4*setupRuns)
				}
				if !res.out.Correct || res.out.Failed != 0 || res.out.Attempted == 0 {
					t.Errorf("correct=%v attempted=%d failed=%d, first error: %v",
						res.out.Correct, res.out.Attempted, res.out.Failed, res.firstErr)
				}
				defs := endToEndMetrics
				if traced {
					defs = perLayerMetrics
				}
				if len(res.out.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.out.Metrics), len(defs))
				}
				for _, d := range defs {
					if _, ok := res.out.Metrics[d.name]; !ok {
						t.Errorf("metric %s missing", d.name)
					}
				}
				if !traced {
					for _, d := range defs {
						if v := res.out.Metrics[d.name].Value; !(v > 0) {
							t.Errorf("%s = %v, want > 0", d.name, v)
						}
					}
				}
				if traced {
					if fi, err := os.Stat(cfg.traceOut); err != nil || fi.Size() == 0 {
						t.Errorf("span file: %v", err)
					}
				}
				assertGone(t, base, cfg.workDir, *addrs)
			})
		}
	}
}

// TestAbort cancels runs part-way — as SIGINT, SIGTERM or the run's
// deadline do — during set-up and during the window, and checks that
// nothing outlives them.
func TestAbort(t *testing.T) {
	for _, wl := range workloads {
		for _, after := range []time.Duration{50 * time.Millisecond, 1500 * time.Millisecond} {
			t.Run(fmt.Sprintf("%s/after=%v", wl.name, after), func(t *testing.T) {
				base := runtime.NumGoroutine()
				cfg, addrs := tinyRun(t, wl.name, false)
				cfg.seconds = time.Minute
				ctx, cancel := context.WithTimeout(context.Background(), after)
				defer cancel()
				if _, err := runBench(ctx, cfg); err == nil {
					t.Fatal("an aborted run reported a result")
				}
				assertGone(t, base, cfg.workDir, *addrs)
			})
		}
	}
}

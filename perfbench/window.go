package main

import (
	"context"
	"errors"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"kerberos/internal/des"
)

// A run warms up on a fixed amount of seeded work, then measures a
// window of --seconds cut into equal slices; the end-to-end metrics are
// medians over the slices, so a short disturbance moves one slice, not
// the result. A traced run records spans in the second half of its
// slices only, so the tracing overhead is measured inside one process.
const slices = 20

// Phases of a run.
const (
	phaseWarm = iota
	phaseMeasure
	phaseTraced
	phaseDone
)

// window sequences the phases. Generators call advance once per unit of
// warm-up work; the call that completes the warm-up opens the window.
type window struct {
	warmup int64
	traced bool
	heapAt int64 // measured ops after which the live heap is read
	units  atomic.Int64
	done   atomic.Int64 // ops finished inside the window
	heapMB float64      // written once by the op that reaches heapAt
	slice  atomic.Int32 // 0 warm-up, 1..slices measuring, slices+1 done
	opened chan struct{}
	once   sync.Once

	start time.Time
	snaps []snapshot // snaps[s] is taken at the end of slice s
	probe func() snapshot
}

func newWindow(warmup, heapAt int64, traced bool, probe func() snapshot) *window {
	return &window{warmup: warmup, heapAt: heapAt, traced: traced, opened: make(chan struct{}), probe: probe}
}

// current returns the slice now running.
func (w *window) current() int { return int(w.slice.Load()) }

// phaseOf maps a slice to its phase.
func (w *window) phaseOf(slice int) int {
	switch {
	case slice == 0:
		return phaseWarm
	case slice > slices:
		return phaseDone
	case w.traced && slice > slices/2:
		return phaseTraced
	}
	return phaseMeasure
}

func (w *window) advance() {
	if w.slice.Load() == 0 && w.units.Add(1) == w.warmup {
		w.once.Do(func() {
			w.start = time.Now()
			w.snaps = append(w.snaps, w.probe())
			if w.slice.CompareAndSwap(0, 1) { // not closed meanwhile
				close(w.opened)
			}
		})
	}
}

// opDone counts an op finished in the window. The live heap is read
// after a fixed number of them rather than at the window's end: state
// such as replay caches grows with every op, so a heap read at a fixed
// time would move with throughput. The forced collection stalls one
// slice; the slice medians absorb it.
func (w *window) opDone() {
	if s := w.slice.Load(); s >= 1 && s <= slices && w.done.Add(1) == w.heapAt && !w.traced {
		w.heapMB = heapLiveMB()
	}
}

// waitOpen waits for the warm-up to finish. It returns early with ctx's
// error, or when the generators (gens closes once they have all
// returned) stop before the window has opened.
func (w *window) waitOpen(ctx context.Context, gens <-chan struct{}) error {
	select {
	case <-w.opened:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	case <-gens:
		return errors.New("generators stopped before the window opened")
	}
}

// measure times the slices of an open window; it returns early with ctx's
// error.
func (w *window) measure(ctx context.Context, seconds time.Duration) error {
	for s := 1; s <= slices; s++ {
		t := time.NewTimer(time.Until(w.start.Add(seconds * time.Duration(s) / slices)))
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
		w.snaps = append(w.snaps, w.probe())
		w.slice.Add(1)
	}
	return nil
}

// close ends the window: generators see phaseDone and return.
func (w *window) close() { w.slice.Store(slices + 1) }

// seconds is the measured length of slice s.
func (w *window) seconds(s int) float64 {
	return w.snaps[s].t.Sub(w.snaps[s-1].t).Seconds()
}

// snapshot is every counter the metrics difference across a phase.
type snapshot struct {
	t          time.Time
	cpu        time.Duration // process user+sys
	gcCPU      float64       // runtime/metrics estimates, seconds
	totalCPU   float64
	allocBytes uint64

	batches, batchReqs      uint64
	errors, overflows, rexm uint64
	bsPasses, scalarOps     uint64
	deltaBytes, fullRounds  uint64
	compactions             int
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readRuntime(names ...string) []metrics.Sample {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func runtimeValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// takeSnapshot reads the process, runtime and program counters.
func (r *realm) takeSnapshot() snapshot {
	rt := readRuntime("/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds", "/gc/heap/allocs:bytes")
	m := r.kdc.Metrics()
	bs := m.BatchSizes.Snapshot()
	passes, scalar := des.BatchCounters()
	s := snapshot{
		t:          time.Now(),
		cpu:        processCPU(),
		gcCPU:      runtimeValue(rt[0]),
		totalCPU:   runtimeValue(rt[1]),
		allocBytes: uint64(runtimeValue(rt[2])),
		batches:    bs.Count,
		batchReqs:  uint64(bs.Sum),
		errors:     m.Errors.Load(),
		overflows:  m.UDPOverflows.Load(),
		rexm:       m.TGSRetransmits.Load(),
		bsPasses:   passes,
		scalarOps:  scalar,
		deltaBytes: r.reg.Counter("kprop_delta_bytes").Load(),
		fullRounds: r.reg.Counter("kprop_full_rounds").Load(),
	}
	for _, sg := range r.segs {
		s.compactions += sg.Compactions()
	}
	return s
}

// heapLiveMB forces a collection and reads the live heap.
func heapLiveMB() float64 {
	runtime.GC()
	return runtimeValue(readRuntime("/gc/heap/live:bytes")[0]) / (1 << 20)
}

// opLog is one generator's record of its measured operations, by slice.
// Latencies are kept in 100 ns units to keep the log small next to the
// heap the run measures.
type opLog struct {
	lat      [slices + 2][]uint32
	failed   [slices + 2]int
	firstErr error
}

// add records one operation that finished in slice s. A failed one counts
// at the operation timeout in the latency percentiles.
func (l *opLog) add(s int, d time.Duration, err error) {
	if s < 1 || s > slices {
		return
	}
	if err != nil {
		l.failed[s]++
		if l.firstErr == nil {
			l.firstErr = err
		}
		if d < opTimeout {
			d = opTimeout
		}
	}
	l.lat[s] = append(l.lat[s], uint32(d/100))
}

// opTimeout bounds one KDC exchange (client.Config's default) and is
// what a failed operation is charged in the percentiles.
const opTimeout = time.Second

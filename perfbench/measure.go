package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// setupReps is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one that is measured.
const setupReps = 5

// minBeyond is the number of samples the reported tail percentile must
// have beyond it.
const minBeyond = 10

// runEnv is what a workload's runner needs from the run.
type runEnv struct {
	seed uint64
	chk  *checks
	log  io.Writer
	tr   *tracer // nil with tracing off
	// attempt counts set-ups and rebuilds, so each live session gets a
	// fresh group address.
	attempt int
}

// measureSetup sets the workload up reps times and returns the last
// runner and the median set-up time in seconds.
func measureSetup(ctx context.Context, w *workload, env *runEnv, reps int) (runner, float64, error) {
	var r runner
	times := make([]float64, 0, reps)
	for k := 0; k < reps; k++ {
		if r != nil {
			r.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		r, err = w.setup(ctx, env)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return r, median(times), nil
}

// phase is what one timed closed loop measured.
type phase struct {
	attempted, failed int
	// durs holds every attempted transfer's wall time in ms, failed
	// ones included: a failure counts as missing any latency limit.
	durs       []float64
	wall       time.Duration // timed wall time, session rebuilds excluded
	cpu        time.Duration // process user+sys
	allocBytes uint64
	allocs     uint64
	// heaps holds the live heap after each GC cycle that completed
	// during the phase, read at transfer boundaries.
	heaps []float64
}

// timedPhase runs closed-loop transfers for d: each transfer starts when
// the previous one has completed and been verified.
func timedPhase(ctx context.Context, r runner, d time.Duration, env *runEnv) *phase {
	ph := &phase{}
	gc := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	metrics.Read(gc)
	cycles := gc[0].Value.Uint64()
	cpu0 := cpuTime()
	start := time.Now()
	var excluded time.Duration
	for i := 0; ; i++ {
		if time.Since(start)-excluded >= d {
			break
		}
		t0 := time.Now()
		err := r.transfer(ctx, i)
		dt := time.Since(t0)
		ph.attempted++
		ph.durs = append(ph.durs, float64(dt)/1e6)
		if err != nil {
			ph.failed++
			fmt.Fprintf(env.log, "perfbench: FAILED transfer seed=%d index=%d after %v: %v\n", env.seed, i, dt, err)
		}
		metrics.Read(gc)
		if c := gc[0].Value.Uint64(); c != cycles {
			cycles = c
			ph.heaps = append(ph.heaps, float64(gc[1].Value.Uint64()))
		}
		if err != nil && r.broken() {
			t1 := time.Now()
			if err := r.rebuild(ctx); err != nil {
				fmt.Fprintf(env.log, "perfbench: rebuilding the session failed: %v\n", err)
				break
			}
			excluded += time.Since(t1)
		}
	}
	if len(ph.heaps) == 0 {
		// No cycle completed: the live heap is the one the last GC saw.
		ph.heaps = append(ph.heaps, float64(gc[1].Value.Uint64()))
	}
	ph.wall = time.Since(start) - excluded
	ph.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	ph.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	ph.allocs = m1.Mallocs - m0.Mallocs
	return ph
}

// metrics derives the end-to-end metrics the phase measured.
func (ph *phase) metrics() map[string]metric {
	n := float64(max(ph.attempted, 1))
	sorted := append([]float64(nil), ph.durs...)
	sort.Float64s(sorted)
	tailV, _ := tail(sorted, minBeyond)
	heaps := append([]float64(nil), ph.heaps...)
	sort.Float64s(heaps)
	peak, _ := tail(heaps, minBeyond)
	return map[string]metric{
		"transfers_per_s":       {float64(ph.attempted-ph.failed) / ph.wall.Seconds(), "1/s"},
		"transfer_ms_p50":       {median(sorted), "ms"},
		"transfer_ms_tail":      {tailV, "ms"},
		"cpu_ms_per_transfer":   {float64(ph.cpu) / 1e6 / n, "ms"},
		"alloc_mb_per_transfer": {float64(ph.allocBytes) / (1 << 20) / n, "MiB"},
		"allocs_per_transfer":   {float64(ph.allocs) / n, "count"},
		"peak_heap_mb":          {peak / (1 << 20), "MiB"},
	}
}

func (ph *phase) failedFrac() float64 {
	if ph.attempted == 0 {
		return 0
	}
	return float64(ph.failed) / float64(ph.attempted)
}

func (ph *phase) tailNote() string {
	sorted := append([]float64(nil), ph.durs...)
	sort.Float64s(sorted)
	if _, pct := tail(sorted, minBeyond); pct < 100 {
		return fmt.Sprintf("p%.1f, %d samples beyond, n=%d", pct, minBeyond, len(sorted))
	}
	return fmt.Sprintf("max: n=%d leaves no percentile with %d samples beyond", len(sorted), minBeyond)
}

// tail returns the highest percentile of sorted that has at least
// beyond samples above it, and that percentile. With too few samples for
// any such percentile it returns the maximum and 100.
func tail(sorted []float64, beyond int) (float64, float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 100
	}
	if n <= beyond {
		return sorted[n-1], 100
	}
	i := n - 1 - beyond
	return sorted[i], 100 * float64(i+1) / float64(n)
}

// median of xs; xs need not be sorted.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(b) {
		return 0
	}
	return a / b
}

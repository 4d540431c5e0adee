package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks. It sorts a copy; NaN for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// The host alternates fast and slow spells of seconds, and a run's share
// of each varies. A quantile over a whole run's samples jumps from one
// spell's level to the other's as the slow spells' share of the samples
// crosses 1-q. Samples are therefore kept in groups that follow one
// another through the run (a sim run's cycles, a wire run's segments),
// and their quantiles averaged, which moves smoothly with that share.

// groupMedian is the mean of the groups' medians.
func groupMedian(groups [][]float64) float64 {
	var ms []float64
	for _, g := range groups {
		ms = append(ms, median(g))
	}
	return mean(ms)
}

// groupTail is the mean of the groups' q-quantiles when every group has
// at least ten samples beyond it, and otherwise the q-quantile of all
// samples pooled, so that ten or more lie beyond it.
func groupTail(groups [][]float64, q float64) float64 {
	var qs, all []float64
	pooled := false
	for _, g := range groups {
		pooled = pooled || float64(len(g))*(1-q) < 10
		qs = append(qs, quantile(g, q))
		all = append(all, g...)
	}
	if pooled {
		return quantile(all, q)
	}
	return mean(qs)
}

// mean returns the arithmetic mean of xs; NaN for an empty slice.
func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// rtSampler polls the Go runtime while a timed phase runs: the peak live
// heap (as marked by each GC), the peak goroutine count, and the GC
// cycles completed.
type rtSampler struct {
	stop chan struct{}
	done sync.WaitGroup

	samples   []metrics.Sample
	restoreGC int // GOGC to restore after a heap phase, 0 if unchanged

	peakLive uint64
	peakG    uint64
	gc0, gc1 uint64
}

var rtMetricNames = []string{
	"/gc/heap/live:bytes",
	"/sched/goroutines:goroutines",
	"/gc/cycles/total:gc-cycles",
}

// heapPhaseGCPercent is the collector setting of a heap phase: a
// collection after every 1% of heap growth, so the live heap is marked
// many times a millisecond and its peak is caught, not only the state at
// the collector's few default-paced cycles. It slows the phase, which is
// why the timed phases run at the default.
const heapPhaseGCPercent = 1

// startRTSampler forces a collection, so the first live-heap reading
// describes the phase's starting state, and starts polling every period.
// A gcPercent above 0 sets the collector's GOGC for the phase (restored
// by finish).
func startRTSampler(period time.Duration, gcPercent int) *rtSampler {
	s := &rtSampler{stop: make(chan struct{}), samples: make([]metrics.Sample, len(rtMetricNames))}
	for i, n := range rtMetricNames {
		s.samples[i].Name = n
	}
	if gcPercent > 0 {
		s.restoreGC = debug.SetGCPercent(gcPercent)
	}
	runtime.GC()
	s.read()
	s.gc0 = s.samples[2].Value.Uint64()
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.read()
			}
		}
	}()
	return s
}

func (s *rtSampler) read() {
	metrics.Read(s.samples)
	if v := s.samples[0].Value.Uint64(); v > s.peakLive {
		s.peakLive = v
	}
	if v := s.samples[1].Value.Uint64(); v > s.peakG {
		s.peakG = v
	}
	s.gc1 = s.samples[2].Value.Uint64()
}

// finish stops polling, takes a last reading and returns once the
// polling goroutine has exited.
func (s *rtSampler) finish() {
	close(s.stop)
	s.done.Wait()
	s.read()
	if s.restoreGC != 0 {
		debug.SetGCPercent(s.restoreGC)
	}
}

func (s *rtSampler) peakHeapMB() float64 { return float64(s.peakLive) / (1 << 20) }
func (s *rtSampler) gcCycles() float64   { return float64(s.gc1 - s.gc0) }

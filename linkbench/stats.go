package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty sample). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is num/den, 0 when den is 0 (the layer saw no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB. Where
// /proc is missing it falls back to the Go runtime's total mapped memory.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "VmHWM:") {
				continue
			}
			fields := strings.Fields(line)
			if len(fields) >= 2 {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// runtimeSample is a reading of the Go runtime's cumulative allocation and
// GC counters; the difference of two readings covers the work between them.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
	pauseNs    uint64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	var out runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.gcCycles = s[1].Value.Uint64()
	}
	// runtime/metrics exposes GC pauses only as a histogram; the exact
	// total comes from MemStats. Read outside every timed operation.
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	out.pauseNs = m.PauseTotalNs
	return out
}

// putRuntime records the runtime metrics of the work between two readings,
// per operation.
func putRuntime(o *outcome, before, after runtimeSample, ops int) {
	if ops == 0 {
		return
	}
	n := float64(ops)
	o.values["runtime.alloc_mb_per_op"] = float64(after.allocBytes-before.allocBytes) / (1 << 20) / n
	o.values["runtime.gc_cycles_per_op"] = float64(after.gcCycles-before.gcCycles) / n
	o.values["runtime.gc_pause_ms"] = float64(after.pauseNs-before.pauseNs) / 1e6 / n
}

// repeatSetup runs setup n times and keeps the last product, with a
// calibration pass before each set-up and after the last. It returns the
// set-ups' times, which the caller calibrates into setup_s. Each earlier
// product is released before the next set-up starts, so set-ups do not
// overlap in memory.
func repeatSetup[T any](n int, cal *calibration, setup func() (T, error), release func(T)) (T, []timed, error) {
	if n < 1 {
		n = 1
	}
	var (
		prod  T
		times []timed
	)
	for i := 0; i < n; i++ {
		if i > 0 {
			release(prod)
			var none T
			prod = none
		}
		cal.pass()
		t0 := time.Now()
		p, err := setup()
		if err != nil {
			return prod, nil, err
		}
		times = append(times, timed{ms(time.Since(t0)), time.Now()})
		prod = p
	}
	cal.pass()
	return prod, times, nil
}

package main

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"
)

// The benchmark runs on shared machines whose speed drifts by up to about
// 2x, within a run as well as between runs, with no trace of it in steal
// time. A run therefore interleaves calibration passes with its timed
// operations: a fixed piece of work that lives in the benchmark and never
// changes with the program, run while nothing else of the benchmark runs.
// The end-to-end times are reported calibrated: each operation's wall time
// is scaled by refNominalMS over the median of the localPasses passes
// nearest to it in time, which reads as the time the operation would take
// on a machine where one pass takes refNominalMS.

// refNominalMS is about the calibration pass's wall time, in milliseconds,
// on the 2-core Xeon container the benchmark was tuned on, in a fast
// stretch, on one goroutine or two.
const refNominalMS = 45

// localPasses is how many passes, nearest in time, calibrate one operation.
const localPasses = 5

const (
	refSortN   = 1 << 18 // keys sorted per pass
	refMapN    = 1 << 16 // map inserts and lookups per pass
	refGatherN = 1 << 21 // random reads over a table larger than the caches
	refTableN  = 1 << 22 // 32 MB of uint64
	refChunks  = 256     // short-lived slices allocated per pass
	refChunkN  = 1 << 12
)

// refTable is the gather pass's table, built once.
var refTable []uint64

// calibrate runs one calibration pass from a collected heap on the given
// number of goroutines at once, each doing the same work, and returns its
// wall time in milliseconds. The work mixes what the solver spends its time
// on: sorting, hashing, random memory reads and short-lived allocation.
func calibrate(workers int) float64 {
	if refTable == nil {
		refTable = make([]uint64, refTableN)
		x := uint64(1)
		for i := range refTable {
			x = xorshift(x)
			refTable[i] = x
		}
		// The first pass pays for the heap's first page faults; discard it.
		refSink += refWork(1)
	}
	runtime.GC()
	t0 := time.Now()
	var wg sync.WaitGroup
	sums := make([]uint64, workers)
	for w := range sums {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sums[w] = refWork(uint64(w) + 1)
		}(w)
	}
	wg.Wait()
	d := ms(time.Since(t0))
	for _, s := range sums {
		refSink += s
	}
	return d
}

// refSink keeps the pass's result alive so the compiler cannot drop it.
var refSink uint64

func refWork(seed uint64) uint64 {
	x := 0x9e3779b97f4a7c15 * seed
	keys := make([]uint64, refSortN)
	for i := range keys {
		x = xorshift(x)
		keys[i] = x
	}
	slices.Sort(keys)
	sum := keys[len(keys)/2]

	m := make(map[uint64]int32)
	for i := 0; i < refMapN; i++ {
		x = xorshift(x)
		m[x%(refMapN/2)] += int32(i)
	}
	for i := 0; i < refMapN; i++ {
		x = xorshift(x)
		sum += uint64(m[x%refMapN])
	}

	for i := 0; i < refGatherN; i++ {
		x = xorshift(x)
		sum += refTable[x%refTableN]
	}

	var keep [][]int32
	for c := 0; c < refChunks; c++ {
		s := make([]int32, 0, 8)
		for i := 0; i < refChunkN; i++ {
			s = append(s, int32(i))
		}
		keep = append(keep, s)
		if len(keep) > 16 {
			keep = keep[1:]
		}
		sum += uint64(s[c%refChunkN])
	}
	return sum
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// calibration is a run's record of its calibration passes. A pass runs on
// as many goroutines as the workload's timed operation keeps busy: two for
// a solve-dense solve (CPU time 1.8x its wall time on the 2-worker pool),
// one for a solve-wide solve (1.1x) and one for serve-mix, whose median
// request is a cache hit served on one goroutine. When one of the
// machine's cores stalls, work spread over two slows by up to twice and
// work on one hardly at all, so a pass of the wrong width would follow
// stalls the operation does not see.
type calibration struct {
	workers int
	passes  []timed // in the order they ran
}

// timed is one timed piece of work: its wall time in ms and when it ended.
type timed struct {
	ms  float64
	end time.Time
}

func walls(ops []timed) []float64 {
	xs := make([]float64, len(ops))
	for i, op := range ops {
		xs[i] = op.ms
	}
	return xs
}

// pass runs one calibration pass.
func (c *calibration) pass() {
	c.passes = append(c.passes, timed{calibrate(c.workers), time.Now()})
}

// passEvery runs a pass when at least d has gone by since the latest one,
// so short operations do not spend most of the run calibrating.
func (c *calibration) passEvery(d time.Duration) {
	if len(c.passes) == 0 || time.Since(c.passes[len(c.passes)-1].end) >= d {
		c.pass()
	}
}

// median is the run's median pass time in ms.
func (c *calibration) median() float64 { return median(walls(c.passes)) }

// factor is refNominalMS over the median of the localPasses passes that
// ended nearest to t.
func (c *calibration) factor(t time.Time) float64 {
	n := len(c.passes)
	lo := sort.Search(n, func(i int) bool { return !c.passes[i].end.Before(t) })
	hi := lo
	for hi-lo < localPasses && hi-lo < n {
		if hi == n || lo > 0 && t.Sub(c.passes[lo-1].end) <= c.passes[hi].end.Sub(t) {
			lo--
		} else {
			hi++
		}
	}
	return refNominalMS / median(walls(c.passes[lo:hi]))
}

// p50 is the median calibrated time of ops, in ms.
func (c *calibration) p50(ops []timed) float64 {
	xs := make([]float64, len(ops))
	for i, op := range ops {
		xs[i] = op.ms * c.factor(op.end)
	}
	return median(xs)
}

package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/census"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/sched"
)

// solveShape sizes a single-instance synthesis workload: census instances
// solved one at a time in a closed loop through core.SolveOnContext.
type solveShape struct {
	households int
	areas      int
	extraCols  int
	ccs        int
	badCCs     bool // intersecting CCs (S_bad_CC), routed largely to the ILP
	instances  int
	calWorkers int // goroutines of a calibration pass: as many as a solve keeps busy
}

const (
	solveWorkers = 2 // solver pool size, on the benchmark's 2-core reference machine
	minSolves    = 3 // solves run even when the window is shorter
	// calEvery is the least time between two calibration passes in a
	// solve loop.
	calEvery = time.Second
)

var (
	// denseShape puts phase II at its quadratic scale: the conflict
	// hypergraph and its coloring dominate, the ILP is never used.
	denseShape = solveShape{households: 8000, areas: 6, ccs: 150, instances: 3, calWorkers: 2}
	// wideShape is the Figure 12 shape: a wide R2 and 1000 intersecting
	// CCs, so classification, the ILP and compile dominate.
	wideShape = solveShape{households: 3000, areas: 100, extraCols: 8, ccs: 1000, badCCs: true, instances: 3, calWorkers: 1}
)

// solveBench is one set-up of a solve workload.
type solveBench struct {
	opt    core.Options
	pool   *sched.Pool
	inputs []core.Input
	genS   float64 // census generation time of this set-up

	// digests holds the output digest of each instance's first solve;
	// every repeat of the same (instance, seed) must reproduce it.
	digests map[int][32]byte
	ccAcc   map[int]float64
}

func censusInput(d *census.Data, ccs []constraint.CC) core.Input {
	return core.Input{
		R1: d.Persons, R2: d.Housing,
		K1: "pid", K2: "hid", FK: "hid",
		CCs: ccs, DCs: census.AllDCs(),
	}
}

func setupSolve(shape solveShape, seed int64) (*solveBench, error) {
	b := &solveBench{
		opt:     core.Options{Seed: seed, Workers: solveWorkers},
		pool:    sched.New(solveWorkers),
		digests: make(map[int][32]byte),
		ccAcc:   make(map[int]float64),
	}
	t0 := time.Now()
	for i := 0; i < shape.instances; i++ {
		d := census.Generate(census.Config{
			Households: shape.households, Areas: shape.areas, ExtraCols: shape.extraCols,
			Seed: seed*1000 + int64(i),
		})
		ccs := d.GoodCCs(shape.ccs)
		if shape.badCCs {
			ccs = d.BadCCs(shape.ccs)
		}
		b.inputs = append(b.inputs, censusInput(d, ccs))
	}
	b.genS = time.Since(t0).Seconds()
	// Warm-up: one solve of the first instance, so lazy runtime and
	// package set-up is paid before timing.
	if _, err := core.SolveOnContext(context.Background(), b.inputs[0], b.opt, b.pool); err != nil {
		return nil, fmt.Errorf("warm-up solve: %w", err)
	}
	return b, nil
}

// check verifies one solve of instance i. The full contract check runs on
// the instance's first output; repeats must match its digest.
func (b *solveBench) check(i int, res *core.Result) error {
	in := b.inputs[i]
	d, err := relationDigest(res.R1Hat, res.R2Hat)
	if err != nil {
		return err
	}
	if ref, ok := b.digests[i]; ok {
		if d != ref {
			return fmt.Errorf("instance %d: output differs from the first solve of the same seed", i)
		}
		return nil
	}
	if err := checkOutput(res.R1Hat, res.R2Hat, in.FK, in.K2, in.DCs); err != nil {
		return fmt.Errorf("instance %d: %w", i, err)
	}
	b.digests[i] = d
	b.ccAcc[i] = ccAccuracy(res.VJoin, in.CCs)
	return nil
}

// opValues collects per-operation values by metric name.
type opValues map[string][]float64

func (s opValues) add(vals map[string]float64) {
	for k, v := range vals {
		s[k] = append(s[k], v)
	}
}

// put records the median of each metric's values.
func (s opValues) put(o *outcome) {
	for k, xs := range s {
		o.values[k] = median(xs)
	}
}

// layersOf derives a traced solve's layer self times from its spans:
// phase2 contains coloring and write-back. wall is the solve's wall time
// as the caller measured it.
func layersOf(spans []obsv.Span, wall time.Duration) map[string]float64 {
	t := make(map[string]time.Duration)
	for _, s := range spans {
		t[s.Name] += s.Dur
	}
	covered := t["compile"] + t["rebase"] + t["classify"] + t["hasse"] + t["ilp"] + t["phase2"]
	return map[string]float64{
		"core.compile_ms":        ms(t["compile"]),
		"constraint.classify_ms": ms(t["classify"]),
		"hasse.recursion_ms":     ms(t["hasse"]),
		"ilp.solve_ms":           ms(t["ilp"]),
		"hypergraph.color_ms":    ms(t["coloring"]),
		"core.writeback_ms":      ms(t["write-back"]),
		"core.phase2_other_ms":   ms(t["phase2"] - t["coloring"] - t["write-back"]),
		"core.unspanned_frac":    ratio(float64(wall-covered), float64(wall)),
	}
}

// statsOf picks the solver's work counters out of its Stats.
func statsOf(st core.Stats) map[string]float64 {
	return map[string]float64{
		"ilp.vars":              float64(st.ILPVars),
		"ilp.rows":              float64(st.ILPRows),
		"ilp.nodes":             float64(st.ILPNodes),
		"ilp.iters":             float64(st.ILPIters),
		"hypergraph.edges":      float64(st.ConflictEdges),
		"hypergraph.partitions": float64(st.Partitions),
		"hypergraph.skipped":    float64(st.SkippedVertices),
		"hypergraph.added_r2":   float64(st.AddedR2Tuples),
	}
}

// runSolve measures a solve workload: set-up, then a closed loop of
// solves cycling over the instances until the window closes. Untraced
// runs report the end-to-end metrics; traced runs alternate traced and
// untraced solves and report the per-layer metrics.
func runSolve(cfg config, shape solveShape, log io.Writer) (*outcome, error) {
	cal := &calibration{workers: shape.calWorkers}
	b, setups, err := repeatSetup(cfg.setups, cal,
		func() (*solveBench, error) { return setupSolve(shape, cfg.seed) },
		func(*solveBench) {})
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.values["census.generate_s"] = b.genS

	var untraced, traced []timed // solves
	layers := opValues{}
	poolBefore := b.pool.Stats()
	rtBefore := readRuntime()
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for k := 0; k < minSolves || time.Now().Before(deadline); k++ {
		i := k % len(b.inputs)
		in := b.inputs[i]
		ctx := context.Background()
		var tr *obsv.Trace
		if cfg.trace && k%2 == 1 {
			tr = obsv.NewTrace(fmt.Sprintf("solve-%d", k), "solve", "linkbench")
			tr.RequestExplain()
			ctx = obsv.WithTrace(ctx, tr)
		}
		// Every solve starts from a collected heap, so the garbage of
		// the previous one neither lands in its time nor raises its peak.
		runtime.GC()
		t0 := time.Now()
		res, err := core.SolveOnContext(ctx, in, b.opt, b.pool)
		d := time.Since(t0)
		wall := timed{ms(d), time.Now()}
		cal.passEvery(calEvery)
		o.attempted++
		if err != nil {
			fmt.Fprintf(log, "solve %d (instance %d): %v\n", k, i, err)
			o.fail(false)
			continue
		}
		if tr != nil {
			traced = append(traced, wall)
			tr.Finish()
			layers.add(layersOf(tr.Snapshot().Spans, d))
			layers.add(statsOf(res.Stats))
			if ex := tr.Explain(); ex != nil {
				layers.add(map[string]float64{"hypergraph.max_partition_rows": float64(ex.Partitions.MaxRows)})
			}
		} else {
			untraced = append(untraced, wall)
		}
		if cfg.afterSolve != nil {
			cfg.afterSolve(res)
		}
		if err := b.check(i, res); err != nil {
			fmt.Fprintf(log, "check: %v\n", err)
			o.fail(true)
		}
	}
	rtAfter := readRuntime()

	var acc []float64
	for _, a := range b.ccAcc {
		acc = append(acc, a)
	}
	cal.pass()
	o.values["setup_s"] = cal.p50(setups) / 1000
	o.values["full_p50_ms"] = cal.p50(untraced)
	o.values["cc_accuracy"] = mean(acc)
	o.values["peak_rss_mb"] = peakRSSMB()
	o.values["bench.calibration_ms"] = cal.median()
	fmt.Fprintf(log, "%s: %d solves (%d traced), p50 %.1f ms wall, %.1f ms calibrated; setup %.2f s wall, %.2f s calibrated; %d calibration passes, median %.1f ms\n",
		cfg.workload, o.attempted, len(traced), median(walls(untraced)), o.values["full_p50_ms"],
		median(walls(setups))/1000, o.values["setup_s"], len(cal.passes), cal.median())

	if cfg.trace {
		putRuntime(o, rtBefore, rtAfter, o.attempted)
		layers.put(o)
		ps := b.pool.Stats()
		claims, inline := float64(ps.Claims-poolBefore.Claims), float64(ps.Inline-poolBefore.Inline)
		o.values["sched.inline_frac"] = ratio(inline, claims+inline)
		tm, um := median(walls(traced)), median(walls(untraced))
		o.values["obsv.trace_overhead_frac"] = ratio(tm-um, um)
		var fp []float64
		for _, in := range b.inputs {
			t0 := time.Now()
			if _, err := core.Fingerprint(in, b.opt); err != nil {
				return nil, fmt.Errorf("fingerprint: %w", err)
			}
			fp = append(fp, ms(time.Since(t0)))
		}
		o.values["core.fingerprint_ms"] = median(fp)
	}
	return o, nil
}

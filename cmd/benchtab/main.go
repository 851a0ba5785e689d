// Command benchtab regenerates the paper's evaluation tables and figures
// (§6, Figures 8–13 plus Table 1, the CC-count sweep, and our ablations) on
// the synthetic census substrate and prints them as text tables.
//
// Usage:
//
//	benchtab                  # run everything at the default quick scale
//	benchtab -exp fig8a,fig13 # selected experiments
//	benchtab -unit 982 -ccs 200 -scales 1,2,5,10   # closer to paper scale
//	benchtab -batch 8 -workers -1                  # batched multi-instance workload
//	benchtab -batch 8 -json                        # machine-readable Stats breakdown
//	benchtab -incr -iters 11                       # cold vs warm-session vs delta re-solve
//	benchtab -trace                                # one traced solve, span timeline printed
//	benchtab -batch 8 -cpuprofile cpu.pprof -memprofile mem.pprof  # profile the run
//
// With -json, output is a single JSON document: per-experiment tables, or —
// under -batch — the per-instance per-stage Stats breakdown and wall times
// that feed the BENCH_*.json perf trajectory. -incr prints
// `go test -bench`-shaped lines (piped through .github/bench_to_json.sh to
// produce BENCH_incr.json in CI).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	linksynth "repro"
	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/incr"
	"repro/internal/metrics"
	"repro/internal/obsv"
	"repro/internal/store"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment ids (see -list)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	unit := flag.Int("unit", 0, "households at scale 1x (default quick-scale)")
	areas := flag.Int("areas", 0, "distinct areas")
	ccs := flag.Int("ccs", 0, "CC set size (paper: 1001)")
	scales := flag.String("scales", "", "comma-separated scale multipliers (e.g. 1,2,5,10)")
	largeScales := flag.String("large-scales", "", "scales for fig11b")
	seed := flag.Int64("seed", 1, "seed")
	batch := flag.Int("batch", 0, "solve this many instances via SolveBatch instead of running experiments")
	incr := flag.Bool("incr", false, "benchmark cold vs warm-session vs delta re-solve on a repeated-structure workload")
	storeBench := flag.Bool("store", false, "benchmark durable-store restart shapes: cold start vs warm restart vs snapshot load")
	traceRun := flag.Bool("trace", false, "solve one instance under a trace and print its span timeline")
	explainRun := flag.Bool("explain", false, "solve one instance and print its EXPLAIN cost report (implies -trace)")
	iters := flag.Int("iters", 15, "iterations per -incr benchmark")
	workers := flag.Int("workers", -1, "worker pool size for -batch (-1 = GOMAXPROCS, 0/1 = serial)")
	asJSON := flag.Bool("json", false, "emit machine-readable JSON instead of text tables")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal("-cpuprofile: %v", err)
		}
		stopCPUProfile = func() {
			stopCPUProfile = nil
			pprof.StopCPUProfile()
			f.Close()
		}
		defer flushProfiles()
	}
	if *memProfile != "" {
		writeMemProfile = func() {
			writeMemProfile = nil
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: -memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "benchtab: -memprofile: %v\n", err)
			}
		}
		defer flushProfiles()
	}

	if *list {
		for _, r := range experiments.Runners() {
			fmt.Println(r.ID)
		}
		return
	}
	if *incr {
		runIncr(*iters, *unit, *ccs, *seed)
		return
	}
	if *storeBench {
		runStore(*iters, *unit, *ccs, *seed)
		return
	}
	if *traceRun || *explainRun {
		runTrace(*unit, *ccs, *seed, *workers, *asJSON, *explainRun)
		return
	}
	if *batch > 0 {
		runBatch(*batch, *workers, *unit, *ccs, *seed, *asJSON)
		return
	}

	cfg := experiments.DefaultConfig()
	cfg.Seed = *seed
	if *unit > 0 {
		cfg.Unit = *unit
	}
	if *areas > 0 {
		cfg.Areas = *areas
	}
	if *ccs > 0 {
		cfg.NCC = *ccs
	}
	if *scales != "" {
		cfg.Scales = parseInts("-scales", *scales)
	}
	if *largeScales != "" {
		cfg.LargeScales = parseInts("-large-scales", *largeScales)
	}

	want := map[string]bool{}
	if *exp != "all" {
		for _, id := range strings.Split(*exp, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}
	type expJSON struct {
		ID      string     `json:"id"`
		Title   string     `json:"title"`
		Header  []string   `json:"header"`
		Rows    [][]string `json:"rows"`
		Notes   []string   `json:"notes,omitempty"`
		Seconds float64    `json:"seconds"`
	}
	var jsonOut []expJSON
	for _, r := range experiments.Runners() {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		start := time.Now()
		tab, err := r.Run(cfg)
		if err != nil {
			fatal("experiment %s: %v", r.ID, err)
		}
		elapsed := time.Since(start)
		if *asJSON {
			jsonOut = append(jsonOut, expJSON{ID: tab.ID, Title: tab.Title,
				Header: tab.Header, Rows: tab.Rows, Notes: tab.Notes,
				Seconds: elapsed.Seconds()})
			continue
		}
		fmt.Print(tab.String())
		fmt.Printf("(%s took %v)\n\n", r.ID, elapsed.Round(time.Millisecond))
	}
	if *asJSON {
		emitJSON(map[string]any{"experiments": jsonOut})
	}
}

// runBatch is the multi-instance workload: n census instances (one seed
// each) solved by a single SolveBatch call over a shared worker pool, with
// per-instance quality and a throughput summary. Under -json the per-stage
// Stats breakdown is emitted for the perf trajectory.
func runBatch(n, workers, unit, nCC int, seed int64, asJSON bool) {
	if unit <= 0 {
		unit = 200
	}
	if nCC <= 0 {
		nCC = 40
	}
	inputs := make([]linksynth.Input, n)
	allCCs := make([][]linksynth.CC, n)
	dcs := census.AllDCs()
	for i := range inputs {
		d := census.Generate(census.Config{Households: unit, Areas: 6, Seed: seed + int64(i)})
		allCCs[i] = d.GoodCCs(nCC)
		inputs[i] = linksynth.Input{R1: d.Persons, R2: d.Housing,
			K1: "pid", K2: "hid", FK: "hid", CCs: allCCs[i], DCs: dcs}
	}
	start := time.Now()
	results, err := linksynth.SolveBatch(inputs, linksynth.Options{Seed: seed, Workers: workers})
	elapsed := time.Since(start)
	if err != nil {
		fatal("batch of %d instances: %v", n, err)
	}

	if asJSON {
		type instJSON struct {
			Instance     int             `json:"instance"`
			CCErrMedian  float64         `json:"cc_err_median"`
			CCErrMean    float64         `json:"cc_err_mean"`
			DCErr        float64         `json:"dc_err"`
			AddedR2      int             `json:"added_r2"`
			SolveSeconds float64         `json:"solve_seconds"`
			Stats        linksynth.Stats `json:"stats"`
		}
		out := struct {
			Instances    int        `json:"instances"`
			Households   int        `json:"households"`
			CCs          int        `json:"ccs"`
			Workers      int        `json:"workers"`
			Seed         int64      `json:"seed"`
			TotalSeconds float64    `json:"total_seconds"`
			PerSecond    float64    `json:"instances_per_second"`
			Results      []instJSON `json:"results"`
		}{
			Instances: n, Households: unit, CCs: nCC, Workers: workers, Seed: seed,
			TotalSeconds: elapsed.Seconds(),
			PerSecond:    float64(n) / elapsed.Seconds(),
		}
		for i, res := range results {
			errs := linksynth.CCErrors(res.VJoin, allCCs[i])
			out.Results = append(out.Results, instJSON{
				Instance:    i,
				CCErrMedian: metrics.Median(errs),
				CCErrMean:   metrics.Mean(errs),
				DCErr:       linksynth.DCErrorFraction(res.R1Hat, "hid", dcs),
				AddedR2:     res.Stats.AddedR2Tuples,
				// Stats.Total is solver time for this instance; wall time for
				// the whole batch is TotalSeconds.
				SolveSeconds: res.Stats.Total.Seconds(),
				Stats:        res.Stats,
			})
		}
		emitJSON(out)
		return
	}

	fmt.Printf("batch: %d instances x %d households, %d CCs, workers=%d\n",
		n, unit, nCC, workers)
	fmt.Printf("%-10s %-12s %-10s %-10s %s\n", "instance", "CCerr-median", "DCerr", "addedR2", "solve-time")
	for i, res := range results {
		errs := linksynth.CCErrors(res.VJoin, allCCs[i])
		fmt.Printf("%-10d %-12.4f %-10.4f %-10d %v\n",
			i, metrics.Median(errs),
			linksynth.DCErrorFraction(res.R1Hat, "hid", dcs),
			res.Stats.AddedR2Tuples, res.Stats.Total.Round(time.Millisecond))
	}
	fmt.Printf("total %v, %.2f instances/s\n", elapsed.Round(time.Millisecond),
		float64(n)/elapsed.Seconds())
}

// runIncr is the repeated-structure serving workload: one census instance
// solved cold, then re-solved through the incremental engine — warm
// session (zero delta, fully spliced) and delta re-solves (row edits / CC bound nudges relative to
// the base). Output is `go test -bench`-shaped lines so the existing
// .github/bench_to_json.sh turns it into BENCH_incr.json; the speedup
// versus the cold median rides along as an extra metric, and the edit and
// append lanes also print their fewest spliced partitions over all
// iterations next to the most partitions any iteration colored — a
// deterministic measure of memo reuse that timing noise cannot move.
func runIncr(iters, unit, nCC int, seed int64) {
	if unit <= 0 {
		unit = 1000
	}
	if nCC <= 0 {
		nCC = 150
	}
	if iters <= 0 {
		iters = 15
	}
	d := census.Generate(census.Config{Households: unit, Areas: 6, Seed: seed})
	in := linksynth.Input{R1: d.Persons, R2: d.Housing,
		K1: "pid", K2: "hid", FK: "hid", CCs: d.GoodCCs(nCC), DCs: census.AllDCs()}
	opt := linksynth.Options{Seed: seed}

	fmt.Printf("incr workload: %d households, %d CCs, %d iters, seed %d\n", unit, nCC, iters, seed)

	median := func(run func(i int)) time.Duration {
		times := make([]time.Duration, iters)
		for i := 0; i < iters; i++ {
			t0 := time.Now()
			run(i)
			times[i] = time.Since(t0)
		}
		sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
		return times[iters/2]
	}
	report := func(name string, med time.Duration, cold time.Duration) {
		if cold > 0 && med > 0 {
			fmt.Printf("%-28s %8d %12d ns/op %12.2f speedup-vs-cold\n",
				name, iters, med.Nanoseconds(), float64(cold)/float64(med))
			return
		}
		fmt.Printf("%-28s %8d %12d ns/op\n", name, iters, med.Nanoseconds())
	}
	// reuse tracks a delta lane's fewest spliced partitions and most
	// partitions over its iterations.
	type reuse struct{ minSpliced, parts int }
	track := func(r *reuse, i int, st linksynth.Stats) {
		if i == 0 || st.SplicedPartitions < r.minSpliced {
			r.minSpliced = st.SplicedPartitions
		}
		r.parts = max(r.parts, st.Partitions)
	}
	reportReuse := func(name string, med, cold time.Duration, r reuse) {
		fmt.Printf("%-28s %8d %12d ns/op %12.2f speedup-vs-cold %8d min-spliced %8d partitions\n",
			name, iters, med.Nanoseconds(), float64(cold)/float64(med), r.minSpliced, r.parts)
	}

	cold := median(func(int) {
		if _, err := linksynth.Solve(in, opt); err != nil {
			fatal("-incr cold solve: %v", err)
		}
	})
	report("BenchmarkIncrCold", cold, 0)

	sess, err := incr.Open(in, opt, nil)
	if err != nil {
		fatal("-incr open: %v", err)
	}
	if _, err := sess.Solve(); err != nil {
		fatal("-incr prime session: %v", err)
	}
	warmSession := median(func(int) {
		if _, err := sess.Solve(); err != nil {
			fatal("-incr warm re-solve: %v", err)
		}
	})
	report("BenchmarkIncrWarmSession", warmSession, cold)

	// Delta workload 1: what-if row edits — small age corrections that keep
	// each edited tuple inside the same CC selection intervals (the common
	// serving case: the phase-1 fill is unchanged and only the partitions
	// holding the edited rows recolor). Edits that cross an interval
	// boundary instead shift the fill and degrade gracefully toward the
	// cold time; the target-nudge benchmark below measures that shape.
	var band []int
	for i := 0; i < in.R1.Len(); i++ {
		if a := in.R1.Value(i, "Age").Int(); a >= 42 && a <= 62 {
			band = append(band, i)
		}
	}
	if len(band) == 0 {
		fatal("-incr: no band rows in generated instance")
	}
	var editReuse reuse
	deltaEdit := median(func(i int) {
		r1, r2 := band[(i*7)%len(band)], band[(i*13+3)%len(band)]
		de := incr.Delta{R1Edits: []incr.CellEdit{
			{Row: r1, Col: "Age", Val: linksynth.Int(in.R1.Value(r1, "Age").Int() + int64(1+i%2))},
			{Row: r2, Col: "Age", Val: linksynth.Int(in.R1.Value(r2, "Age").Int() - int64(1+i%2))},
		}}
		res, _, err := sess.Resolve(de)
		if err != nil {
			fatal("-incr delta edit: %v", err)
		}
		track(&editReuse, i, res.Stats)
	})
	reportReuse("BenchmarkIncrDeltaEdit", deltaEdit, cold, editReuse)

	// Delta workload 2: row insertions. Appended rows sort after every
	// existing row in the fill order, so existing partitions splice and
	// only the partitions receiving new rows recolor.
	var appendReuse reuse
	deltaAppend := median(func(i int) {
		ap := incr.Delta{R1Appends: [][]linksynth.Value{
			{linksynth.Int(int64(900000 + i)), linksynth.String("Member"),
				linksynth.Int(int64(45 + i%15)), linksynth.Int(int64(i % 2)), linksynth.Null()},
		}}
		res, _, err := sess.Resolve(ap)
		if err != nil {
			fatal("-incr delta append: %v", err)
		}
		track(&appendReuse, i, res.Stats)
	})
	reportReuse("BenchmarkIncrDeltaAppend", deltaAppend, cold, appendReuse)

	// Delta workload 3: a CC bound nudged (the Ntarget-shift shape). This
	// shifts the phase-1 fill globally, so fewer partitions splice than
	// under row edits; the compiled problem and classification still reuse.
	deltaTarget := median(func(i int) {
		ccIdx := i % len(in.CCs)
		dt := incr.Delta{CCTargets: map[int]int64{ccIdx: in.CCs[ccIdx].Target + int64(1+i%3)}}
		if _, _, err := sess.Resolve(dt); err != nil {
			fatal("-incr delta target: %v", err)
		}
	})
	report("BenchmarkIncrDeltaTarget", deltaTarget, cold)
}

// runStore is the restart workload behind BENCH_store.json: what a process
// pays to answer the first solve after it comes up. Cold start solves the
// instance from nothing (no durable state); warm restart replays the full
// recovery path the daemon takes — open the store, load the session record,
// materialize both relation snapshots, verify the content fingerprint,
// open the session, solve; snapshot load isolates
// the state-materialization share of that (snapshot read, verify and
// decode, no solve); persist is the write side the persister goroutine pays off the
// request path. Output is `go test -bench`-shaped lines for
// .github/bench_to_json.sh.
func runStore(iters, unit, nCC int, seed int64) {
	if unit <= 0 {
		unit = 1000
	}
	if nCC <= 0 {
		nCC = 150
	}
	if iters <= 0 {
		iters = 15
	}
	d := census.Generate(census.Config{Households: unit, Areas: 6, Seed: seed})
	in := linksynth.Input{R1: d.Persons, R2: d.Housing,
		K1: "pid", K2: "hid", FK: "hid", CCs: d.GoodCCs(nCC), DCs: census.AllDCs()}
	opt := linksynth.Options{Seed: seed}

	fmt.Printf("store workload: %d households, %d CCs, %d iters, seed %d\n", unit, nCC, iters, seed)

	median := func(run func(i int)) time.Duration {
		times := make([]time.Duration, iters)
		for i := 0; i < iters; i++ {
			t0 := time.Now()
			run(i)
			times[i] = time.Since(t0)
		}
		sort.Slice(times, func(a, b int) bool { return times[a] < times[b] })
		return times[iters/2]
	}
	report := func(name string, med time.Duration, cold time.Duration) {
		if cold > 0 && med > 0 {
			fmt.Printf("%-28s %8d %12d ns/op %12.2f speedup-vs-cold\n",
				name, iters, med.Nanoseconds(), float64(cold)/float64(med))
			return
		}
		fmt.Printf("%-28s %8d %12d ns/op\n", name, iters, med.Nanoseconds())
	}

	cold := median(func(int) {
		if _, err := linksynth.Solve(in, opt); err != nil {
			fatal("-store cold solve: %v", err)
		}
	})
	report("BenchmarkStoreColdStart", cold, 0)

	// Build the durable state a previous process would have left behind:
	// one solved session, persisted exactly as the daemon's persister does.
	dir, err := os.MkdirTemp("", "benchtab-store-*")
	if err != nil {
		fatal("-store: %v", err)
	}
	defer os.RemoveAll(dir)
	fp, err := linksynth.Fingerprint(in, opt)
	if err != nil {
		fatal("-store fingerprint: %v", err)
	}
	seedStore, err := store.Open(dir)
	if err != nil {
		fatal("-store open store: %v", err)
	}
	persistInto := func(st *store.Store) {
		r1fp, err := st.PutRelation(in.R1)
		if err != nil {
			fatal("-store put R1: %v", err)
		}
		r2fp, err := st.PutRelation(in.R2)
		if err != nil {
			fatal("-store put R2: %v", err)
		}
		rec := &store.SessionRecord{
			BaseFP: fp, R1FP: r1fp, R2FP: r2fp,
			K1: in.K1, K2: in.K2, FK: in.FK, Opt: opt,
			CCs: in.CCs, DCs: in.DCs,
		}
		if err := st.PutSession(rec); err != nil {
			fatal("-store put session: %v", err)
		}
	}
	persistInto(seedStore)
	rec, err := seedStore.LoadSession(fp)
	if err != nil {
		fatal("-store reload session: %v", err)
	}

	// Persist: encode + atomic write + fsync of both snapshots and the
	// session record, into a fresh directory each iteration so the
	// content-addressed dedup of an already-present snapshot never hides
	// the write cost.
	persist := median(func(i int) {
		sub := filepath.Join(dir, fmt.Sprintf("p%d", i))
		st, err := store.Open(sub)
		if err != nil {
			fatal("-store: %v", err)
		}
		persistInto(st)
	})
	report("BenchmarkStorePersist", persist, cold)

	// Snapshot load: what materializing the base state from disk costs —
	// reading each snapshot file, content verification, decoding and
	// relation materialization — without the solve that follows.
	snapshotLoad := median(func(int) {
		st, err := store.Open(dir)
		if err != nil {
			fatal("-store: %v", err)
		}
		if _, err := st.LoadRelation(rec.R1FP); err != nil {
			fatal("-store load R1: %v", err)
		}
		if _, err := st.LoadRelation(rec.R2FP); err != nil {
			fatal("-store load R2: %v", err)
		}
	})
	report("BenchmarkStoreSnapshotLoad", snapshotLoad, cold)

	// Warm restart: the daemon's full per-session recovery path in a fresh
	// "process" (new store handle) — load the record, materialize both
	// snapshots, verify the content fingerprint, open the session. No solve: a restored session serves its previously cached
	// deltas from the byte cache with zero solver work, so this is the whole
	// restart cost for replayed traffic. The speedup column is the claim —
	// restoring is this many times cheaper than re-solving the base.
	restore := func() *incr.Session {
		st, err := store.Open(dir)
		if err != nil {
			fatal("-store: %v", err)
		}
		rec, err := st.LoadSession(fp)
		if err != nil {
			fatal("-store load session: %v", err)
		}
		r1, err := st.LoadRelation(rec.R1FP)
		if err != nil {
			fatal("-store load R1: %v", err)
		}
		r2, err := st.LoadRelation(rec.R2FP)
		if err != nil {
			fatal("-store load R2: %v", err)
		}
		rin := linksynth.Input{R1: r1, R2: r2, K1: rec.K1, K2: rec.K2, FK: rec.FK, CCs: rec.CCs, DCs: rec.DCs}
		got, err := linksynth.Fingerprint(rin, rec.Opt)
		if err != nil || got != fp {
			fatal("-store restored fingerprint mismatch (err %v)", err)
		}
		rsess, err := incr.OpenKeyed(rin, rec.Opt, nil, fp)
		if err != nil {
			fatal("-store reopen: %v", err)
		}
		return rsess
	}
	warmRestart := median(func(int) { restore() })
	report("BenchmarkStoreWarmRestart", warmRestart, cold)

	// First solve a restored session runs — a delta never seen before the
	// restart. It compiles the problem cold.
	restored := make([]*incr.Session, iters)
	for i := range restored {
		restored[i] = restore()
	}
	firstSolve := median(func(i int) {
		if _, err := restored[i].Solve(); err != nil {
			fatal("-store restored solve: %v", err)
		}
	})
	report("BenchmarkStoreRestoredFirstSolve", firstSolve, cold)
}

// runTrace solves one census instance under a live trace and prints the
// span timeline — the same spans linksynthd records per request (compile,
// classify, hasse, ilp, phase2, coloring, write-back) — so the phase
// breakdown is inspectable without standing up a server. With explain the
// solver also fills its EXPLAIN cost report, printed after the timeline —
// the same report ?explain=1 splices into a served response. With -json
// the trace's wire form (the same shape /debug/flight dumps) is emitted,
// explain report included.
func runTrace(unit, nCC int, seed int64, workers int, asJSON, explain bool) {
	if unit <= 0 {
		unit = 1000
	}
	if nCC <= 0 {
		nCC = 150
	}
	d := census.Generate(census.Config{Households: unit, Areas: 6, Seed: seed})
	in := linksynth.Input{R1: d.Persons, R2: d.Housing,
		K1: "pid", K2: "hid", FK: "hid", CCs: d.GoodCCs(nCC), DCs: census.AllDCs()}
	opt := linksynth.Options{Seed: seed, Workers: workers}

	tr := obsv.NewTrace(obsv.NewID(), "benchtab-solve", "benchtab")
	if explain {
		tr.RequestExplain()
	}
	ctx := obsv.WithTrace(context.Background(), tr)
	if _, err := core.SolveOnContext(ctx, in, opt, core.PoolFor(opt)); err != nil {
		fatal("-trace solve: %v", err)
	}
	tr.SetStatus("ok")
	tr.Finish()
	tj := tr.Snapshot()
	if asJSON {
		emitJSON(tj)
		return
	}
	fmt.Printf("trace %s: %d households, %d CCs, seed %d, total %v\n",
		tj.ID, unit, nCC, seed, tj.Dur.Round(time.Microsecond))
	for _, sp := range tj.Spans {
		fmt.Printf("  %-12s +%-12v %v\n", sp.Name,
			sp.Start.Sub(tj.Start).Round(time.Microsecond), sp.Dur.Round(time.Microsecond))
	}
	for _, ev := range tj.Events {
		fmt.Printf("  event +%v %s\n", ev.Time.Sub(tj.Start).Round(time.Microsecond), ev.Msg)
	}
	if explain {
		fmt.Println()
		printExplain(tj.Explain)
	}
}

// printExplain renders the EXPLAIN cost report as text: instance shape and
// routing, per-phase durations, partition and ILP effort, then the
// per-constraint measured selectivities (capped — a paper-scale CC set
// would drown the terminal; -json emits all of them).
func printExplain(ex *obsv.ExplainReport) {
	if ex == nil {
		fmt.Println("explain: no report (solver did not run)")
		return
	}
	fmt.Printf("explain: mode=%s view_rows=%d r2_rows=%d combos=%d used_bcols=%d\n",
		ex.Mode, ex.ViewRows, ex.R2Rows, ex.Combos, ex.UsedBCols)
	fmt.Printf("  routing: %d CCs -> hasse, %d CCs -> ilp\n", ex.CCsToHasse, ex.CCsToILP)
	for _, ph := range ex.Phases {
		fmt.Printf("  phase %-10s %v\n", ph.Name, time.Duration(ph.DurNS).Round(time.Microsecond))
	}
	p := ex.Partitions
	fmt.Printf("  partitions: count=%d rows min/mean/max=%d/%.1f/%d invalid=%d matrix_bytes=%d\n",
		p.Count, p.MinRows, p.MeanRows, p.MaxRows, p.InvalidRows, p.MatrixBytes)
	if ex.ILP.Vars > 0 {
		fmt.Printf("  ilp: vars=%d rows=%d nodes=%d iters=%d status=%s\n",
			ex.ILP.Vars, ex.ILP.Rows, ex.ILP.Nodes, ex.ILP.Iters, ex.ILP.Status)
	}
	const maxLines = 12
	for i, cc := range ex.CCs {
		if i == maxLines {
			fmt.Printf("  ... %d more CCs (use -json for all)\n", len(ex.CCs)-maxLines)
			break
		}
		for di, dj := range cc.Disjuncts {
			fmt.Printf("  cc[%d] %-14s target=%-5d route=%-5s disjunct %d: r1_rows=%d (sel %.3f) combos=%d (%.3f)\n",
				cc.Index, cc.Name, cc.Target, cc.Route, di,
				dj.R1Rows, dj.R1Selectivity, dj.Combos, dj.ComboFraction)
		}
	}
	for i, dc := range ex.DCs {
		if i == maxLines {
			fmt.Printf("  ... %d more DCs (use -json for all)\n", len(ex.DCs)-maxLines)
			break
		}
		fmt.Printf("  dc[%d] %-14s", dc.Index, dc.Name)
		for vi, v := range dc.Vars {
			fmt.Printf(" t%d: rows=%d (sel %.3f)", vi+1, v.Rows, v.Selectivity)
		}
		fmt.Println()
	}
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal("encode JSON: %v", err)
	}
}

func parseInts(flagName, s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n <= 0 {
			fatal("%s: bad scale %q (want a comma-separated list of positive integers, e.g. 1,2,5)", flagName, part)
		}
		out = append(out, n)
	}
	return out
}

// Profile teardown hooks; flushed both on normal return and from fatal, so
// a failing run — the one most worth diagnosing — still yields usable
// profiles. Each hook nils itself to stay idempotent.
var (
	stopCPUProfile  func()
	writeMemProfile func()
)

func flushProfiles() {
	// Heap snapshot first: stopping the CPU profile is cheap and the heap
	// state is most useful before teardown frees anything.
	if writeMemProfile != nil {
		writeMemProfile()
	}
	if stopCPUProfile != nil {
		stopCPUProfile()
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchtab: "+format+"\n", args...)
	flushProfiles()
	os.Exit(1)
}

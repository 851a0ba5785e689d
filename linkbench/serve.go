package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/census"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/obsv"
	"repro/internal/service"
	"repro/internal/table"
)

// serveShape sizes the serving workload: an in-process linksynthd on a
// loopback listener, driven by an open-loop schedule of independent
// clients over a zipf-popular instance pool.
type serveShape struct {
	instances  int
	households []int // by instance index, in equal blocks: the zipf head gets the first
	areas      int
	ccMin      int
	ccMax      int
	rate       float64 // arrivals per second
}

var serveMixShape = serveShape{
	instances:  32,
	households: []int{1000},
	areas:      6,
	ccMin:      60,
	ccMax:      120,
	rate:       16, // far below capacity, so a machine slowed 2x stays unsaturated
}

const (
	variants   = 4    // pre-built deltas per instance: even ones nudge a CC target, odd ones edit an R1 cell
	deltaFrac  = 0.25 // share of requests sent as base+delta
	zipfS      = 1.2
	conns      = 2 // client connections (= requests in flight at most)
	warm       = 4 // most popular instances solved once during set-up
	traceEvery = 4 // traced runs tag every n-th request with a trace id
	// sloLimit is the per-request latency limit of the SLO.
	sloLimit = time.Second
	// drain is how long past the window a backlog may still be sent.
	drain = 30 * time.Second
	// segment is the stretch of the schedule driven between two
	// calibration passes.
	segment = 1250 * time.Millisecond
)

// sweep holds the arrival rates, as multiples of the shape's rate, tried
// for bench.max_ok_rps.
var sweep = []float64{1, 2, 4, 8, 16}

// variant is one pre-built delta against a pooled instance: the delta
// request naming the full-instance base key, and the patched instance as a
// full request for when the server has no warm session for the base.
type variant struct {
	delta []byte
	full  []byte
	key   string // fingerprint of the patched instance
	in    core.Input
}

type pooled struct {
	in       core.Input
	key      string // fingerprint of the full instance (hex)
	body     []byte
	variants []variant
}

// serveBench is one set-up of serve-mix: the pool, the cache and server it
// drives, and the client.
type serveBench struct {
	pool   []*pooled
	cache  *cache.Cache
	srv    *service.Server
	hs     *http.Server
	served chan struct{} // closed when the HTTP server has stopped
	url    string
	client *http.Client
	genS   float64
	fpMS   []float64 // core.Fingerprint time per pooled and patched instance

	mu     sync.Mutex
	bodies map[[32]byte][]byte // first copy of each distinct response body
}

func setupServe(shape serveShape, seed int64) (*serveBench, error) {
	b := &serveBench{bodies: make(map[[32]byte][]byte)}
	rng := rand.New(rand.NewSource(seed))
	opt := core.Options{Seed: seed}
	optJSON := &service.OptionsJSON{Seed: seed}
	t0 := time.Now()
	var datas []*census.Data
	for i := 0; i < shape.instances; i++ {
		datas = append(datas, census.Generate(census.Config{
			Households: shape.households[i*len(shape.households)/shape.instances], Areas: shape.areas,
			Seed: seed*1000 + int64(i),
		}))
	}
	b.genS = time.Since(t0).Seconds()
	for i, d := range datas {
		in := censusInput(d, d.GoodCCs(shape.ccMin+rng.Intn(shape.ccMax-shape.ccMin+1)))
		p := &pooled{in: in}
		var err error
		if p.key, p.body, err = b.encodeFull(in, opt, optJSON); err != nil {
			return nil, fmt.Errorf("instance %d: %w", i, err)
		}
		for v := 0; v < variants; v++ {
			vr, err := b.buildVariant(p, v, rng, opt, optJSON)
			if err != nil {
				return nil, fmt.Errorf("instance %d variant %d: %w", i, v, err)
			}
			p.variants = append(p.variants, vr)
		}
		b.pool = append(b.pool, p)
	}

	// One entry per pooled instance: the patched instances of deltas still
	// compete for them, but most full requests hit, so their median lies
	// inside the hits rather than at their edge, where it moved with each
	// seed's share of hits.
	c, err := cache.Open("", shape.instances)
	if err != nil {
		return nil, err
	}
	b.cache = c
	b.srv = service.New(service.Config{Cache: c, Workers: solveWorkers, FlightEntries: 1 << 14})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.close()
		return nil, err
	}
	b.url = "http://" + ln.Addr().String()
	b.hs = &http.Server{Handler: b.srv}
	b.served = make(chan struct{})
	go func() {
		defer close(b.served)
		b.hs.Serve(ln)
	}()
	b.client = &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	// Warm-up: the most popular instances are solved once, which also
	// proves the client-side base keys match the server's.
	for i := 0; i < warm && i < len(b.pool); i++ {
		status, key, _, _, err := b.post(b.pool[i].body, "")
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		if err == nil && key != b.pool[i].key {
			err = fmt.Errorf("server key %s, client fingerprint %s", key, b.pool[i].key)
		}
		if err != nil {
			b.close()
			return nil, fmt.Errorf("warm-up request %d: %w", i, err)
		}
	}
	return b, nil
}

// encodeFull marshals a full-instance request and computes its key.
func (b *serveBench) encodeFull(in core.Input, opt core.Options, optJSON *service.OptionsJSON) (string, []byte, error) {
	t0 := time.Now()
	key, err := core.Fingerprint(in, opt)
	if err != nil {
		return "", nil, err
	}
	b.fpMS = append(b.fpMS, ms(time.Since(t0)))
	ij, err := service.EncodeInstance(in)
	if err != nil {
		return "", nil, err
	}
	body, err := json.Marshal(service.SolveRequest{InstanceJSON: ij, Options: optJSON})
	return hex.EncodeToString(key[:]), body, err
}

// buildVariant makes delta v of instance p: even variants raise one CC's
// target, odd ones move one person's age by a year.
func (b *serveBench) buildVariant(p *pooled, v int, rng *rand.Rand, opt core.Options, optJSON *service.OptionsJSON) (variant, error) {
	in := p.in
	dj := &service.DeltaJSON{}
	if v%2 == 0 {
		ci := rng.Intn(len(in.CCs))
		ccs := append([]constraint.CC(nil), in.CCs...)
		ccs[ci].Target += int64(1 + rng.Intn(3))
		in.CCs = ccs
		dj.CCTargets = map[string]int64{strconv.Itoa(ci): ccs[ci].Target}
	} else {
		row := rng.Intn(in.R1.Len())
		age := in.R1.Value(row, "Age").Int() + 1
		in.R1 = in.R1.Clone()
		in.R1.Set(row, "Age", table.Int(age))
		dj.R1Edits = []service.CellEditJSON{{Row: row, Col: "Age", Val: age}}
	}
	key, full, err := b.encodeFull(in, opt, optJSON)
	if err != nil {
		return variant{}, err
	}
	delta, err := json.Marshal(service.SolveRequest{Base: p.key, Delta: dj})
	return variant{delta: delta, full: full, key: key, in: in}, err
}

func (b *serveBench) close() {
	if b.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		b.hs.Shutdown(ctx)
		cancel()
		<-b.served
	}
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
	if b.srv != nil {
		b.srv.Close()
	}
}

// post sends one solve request and reads the whole response. The key is
// the response's ETag (the instance fingerprint); hit reports an answer
// from the byte cache.
func (b *serveBench) post(body []byte, traceID string) (status int, key string, hit bool, data []byte, err error) {
	req, err := http.NewRequest(http.MethodPost, b.url+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		return 0, "", false, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(obsv.TraceHeader, traceID)
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, "", false, nil, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	if err != nil {
		return 0, "", false, nil, err
	}
	etag := resp.Header.Get("ETag")
	if len(etag) >= 2 {
		etag = etag[1 : len(etag)-1]
	}
	return resp.StatusCode, etag, resp.Header.Get("X-Linksynth-Cache") == "hit", data, nil
}

// planned is one scheduled request.
type planned struct {
	at      time.Duration // due time from the start of the window
	inst    int
	delta   bool
	variant int
	traceID string
}

// schedule draws an open-loop arrival schedule over window: one arrival
// every 1/rate seconds, zipf instance popularity, and the delta/full mix.
func (b *serveBench) schedule(rng *rand.Rand, rate float64, window time.Duration, tag string) []planned {
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(len(b.pool)-1))
	var out []planned
	at := time.Duration(0)
	for n := 0; ; n++ {
		at += time.Duration(float64(time.Second) / rate)
		if at >= window {
			return out
		}
		p := planned{at: at, inst: int(zipf.Uint64())}
		p.delta = rng.Float64() < deltaFrac
		p.variant = rng.Intn(variants)
		if tag != "" && n%traceEvery == 0 {
			p.traceID = tag + strconv.Itoa(n)
		}
		out = append(out, p)
	}
}

// sample is the client's record of one scheduled request.
type sample struct {
	planned
	sent    bool
	late    time.Duration // due → sent
	latency time.Duration // due → response read
	end     time.Time     // response read
	status  int
	miss    bool // delta answered 404 (no warm session) and retried in full
	hit     bool // answered from the byte cache
	err     error
	key     string
	digest  [32]byte
}

// do sends one scheduled request. A delta whose base has no warm session
// is retried as the full patched instance; both round trips count in its
// latency.
func (b *serveBench) do(p planned, due time.Time) sample {
	s := sample{planned: p, sent: true, late: time.Since(due)}
	inst := b.pool[p.inst]
	body := inst.body
	if p.delta {
		body = inst.variants[p.variant].delta
	}
	var data []byte
	s.status, s.key, s.hit, data, s.err = b.post(body, p.traceID)
	if s.err == nil && p.delta && s.status == http.StatusNotFound {
		s.miss = true
		s.status, s.key, s.hit, data, s.err = b.post(inst.variants[p.variant].full, p.traceID)
	}
	s.end = time.Now()
	s.latency = s.end.Sub(due)
	if s.err == nil && s.status == http.StatusOK {
		s.digest = sha256.Sum256(data)
		b.mu.Lock()
		if _, ok := b.bodies[s.digest]; !ok {
			b.bodies[s.digest] = data
		}
		b.mu.Unlock()
	}
	return s
}

// drive runs the part of a schedule that starts at from, open-loop over
// conns connections: a request is due at - from after the call. A request
// that comes due while every connection is busy waits in the generator;
// its latency still counts from the due time. Requests still unsent when
// the drain allowance after the window runs out are returned unsent.
func (b *serveBench) drive(plan []planned, from, window time.Duration) []sample {
	out := make([]sample, len(plan))
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now().Add(-from)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				out[j] = b.do(plan[j], start.Add(plan[j].at))
			}
		}()
	}
	for j := range plan {
		out[j].planned = plan[j]
	}
	cutoff := start.Add(from + window + drain)
	for j := range plan {
		if d := time.Until(start.Add(plan[j].at)); d > 0 {
			time.Sleep(d)
		}
		if time.Now().After(cutoff) {
			break
		}
		jobs <- j
	}
	close(jobs)
	wg.Wait()
	return out
}

// driveSegments runs a schedule segment by segment, with a calibration
// pass after each segment, while no request is in flight.
func (b *serveBench) driveSegments(plan []planned, window time.Duration, cal *calibration) []sample {
	var out []sample
	for from, j := time.Duration(0), 0; from < window; from += segment {
		k := j
		for k < len(plan) && plan[k].at < from+segment {
			k++
		}
		out = append(out, b.drive(plan[j:k], from, segment)...)
		cal.pass()
		j = k
	}
	return out
}

// tail returns the highest of p99, p95, p90, p75 and p50 that has at
// least ten samples beyond it, or the maximum of a smaller sample.
func tail(xs []float64) float64 {
	for _, q := range []float64{0.99, 0.95, 0.90, 0.75, 0.50} {
		if float64(len(xs))*(1-q) >= 10 {
			return quantile(xs, q)
		}
	}
	return quantile(xs, 1)
}

// servedCheck is what the checks learned about the distinct response bodies.
type servedCheck struct {
	ok       bool
	accuracy float64
	stats    core.Stats
	full     bool // body of a full-instance request (not a patched one)
}

// checkServed verifies every response outside the measured window and
// counts failures: transport errors, non-2xx answers, a key other than the
// instance's fingerprint, two different bodies for one key, and bodies
// failing the output contract. Each distinct body is decoded once.
func (b *serveBench) checkServed(o *outcome, sent []sample, checked map[[32]byte]*servedCheck, log io.Writer) {
	keyBody := make(map[string][32]byte)
	for _, s := range sent {
		o.attempted++
		if !s.sent || s.err != nil || s.status != http.StatusOK {
			if s.err != nil {
				fmt.Fprintf(log, "request %s: %v\n", s.desc(), s.err)
			} else if s.sent {
				fmt.Fprintf(log, "request %s: status %d\n", s.desc(), s.status)
			}
			o.fail(false)
			continue
		}
		inst := b.pool[s.inst]
		want, in := inst.key, inst.in
		if s.delta {
			want, in = inst.variants[s.variant].key, inst.variants[s.variant].in
		}
		if s.key != want {
			fmt.Fprintf(log, "request %s: key %s, want %s\n", s.desc(), s.key, want)
			o.fail(true)
			continue
		}
		if d, ok := keyBody[s.key]; ok && d != s.digest {
			fmt.Fprintf(log, "request %s: two different bodies for key %s\n", s.desc(), s.key)
			o.fail(true)
			continue
		}
		keyBody[s.key] = s.digest
		c, ok := checked[s.digest]
		if !ok {
			c = b.checkBody(s.digest, in, log)
			c.full = !s.delta
			checked[s.digest] = c
		}
		if !c.ok {
			o.fail(true)
		}
	}
}

func (s *sample) desc() string {
	kind := "full"
	if s.delta {
		kind = "delta/" + strconv.Itoa(s.variant)
	}
	return fmt.Sprintf("%s of instance %d at %v", kind, s.inst, s.at)
}

func (b *serveBench) checkBody(digest [32]byte, in core.Input, log io.Writer) *servedCheck {
	b.mu.Lock()
	data := b.bodies[digest]
	b.mu.Unlock()
	c := &servedCheck{}
	var sr servedResult
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	err := dec.Decode(&sr)
	var r1hat, r2hat, vjoin *table.Relation
	if err == nil {
		r1hat, err = toRelation(&sr.Result.R1Hat)
	}
	if err == nil {
		r2hat, err = toRelation(&sr.Result.R2Hat)
	}
	if err == nil {
		err = checkOutput(r1hat, r2hat, in.FK, in.K2, in.DCs)
	}
	if err == nil {
		vjoin, err = table.Join(r1hat, in.FK, r2hat, in.K2)
	}
	if err != nil {
		fmt.Fprintf(log, "response %s: %v\n", sr.Key, err)
		return c
	}
	c.ok = true
	c.accuracy = ccAccuracy(vjoin, in.CCs)
	c.stats = sr.Result.Stats
	return c
}

// runServe measures serve-mix. Untraced runs report the end-to-end
// metrics of one window at the fixed rate. Traced runs tag every
// traceEvery-th request with a trace id, read the server's flight recorder
// and /metrics afterwards for the per-layer metrics, then step through the
// sweep rates for bench.max_ok_rps.
func runServe(cfg config, log io.Writer) (*outcome, error) {
	shape := cfg.serve
	cal := &calibration{workers: 1}
	b, setups, err := repeatSetup(cfg.setups, cal,
		func() (*serveBench, error) { return setupServe(shape, cfg.seed) },
		func(b *serveBench) { b.close() })
	if err != nil {
		return nil, err
	}
	defer b.close()
	o := newOutcome()
	o.values["census.generate_s"] = b.genS

	window := time.Duration(cfg.seconds * float64(time.Second))
	rng := rand.New(rand.NewSource(cfg.seed*7 + 1))
	tag, sweepWindow := "", time.Duration(0)
	if cfg.trace {
		// The traced run gives 40% of its window to the rate sweep.
		tag = "lb-"
		sweepWindow = window * 2 / 5
		window -= sweepWindow
	}
	plan := b.schedule(rng, shape.rate, window, tag)
	before, err := b.scrape()
	if err != nil {
		return nil, err
	}
	cacheBefore := b.cache.Stats()
	rtBefore := readRuntime()
	t0 := time.Now()
	sent := b.driveSegments(plan, window, cal)
	driven := time.Since(t0)
	rtAfter := readRuntime()
	cacheAfter := b.cache.Stats()
	after, err := b.scrape()
	if err != nil {
		return nil, err
	}

	checked := make(map[[32]byte]*servedCheck)
	b.checkServed(o, sent, checked, log)
	var full []timed
	var delta, late []float64
	misses, over, fullHits := 0, 0, 0
	for _, s := range sent {
		if !s.sent {
			over++
			continue
		}
		late = append(late, ms(s.late))
		ok := s.err == nil && s.status == http.StatusOK
		if !ok || s.latency > sloLimit {
			over++
		}
		if s.miss {
			misses++
		}
		if !ok {
			continue
		}
		if s.delta {
			delta = append(delta, ms(s.latency))
		} else {
			full = append(full, timed{ms(s.latency), s.end})
			if s.hit {
				fullHits++
			}
		}
	}
	var acc []float64
	for _, c := range checked {
		if c.ok {
			acc = append(acc, c.accuracy)
		}
	}
	o.values["setup_s"] = cal.p50(setups) / 1000
	o.values["full_p50_ms"] = cal.p50(full)
	o.values["cc_accuracy"] = mean(acc)
	o.values["peak_rss_mb"] = peakRSSMB()
	o.values["bench.calibration_ms"] = cal.median()
	fmt.Fprintf(log, "serve-mix: %d requests in %.1f s (%d full, %.2f of them cache hits, %d delta, %d session misses), full p50 %.1f ms wall, %.1f ms calibrated, delta p50 %.1f ms wall; setup %.2f s wall, %.2f s calibrated; %d calibration passes, median %.1f ms\n",
		len(sent), driven.Seconds(), len(full), ratio(float64(fullHits), float64(len(full))), len(delta), misses,
		median(walls(full)), o.values["full_p50_ms"], median(delta), median(walls(setups))/1000, o.values["setup_s"], len(cal.passes), cal.median())
	if !cfg.trace {
		return o, nil
	}

	o.values["bench.full_n"] = float64(len(full))
	o.values["bench.full_p95_ms"] = quantile(walls(full), 0.95)
	o.values["bench.delta_n"] = float64(len(delta))
	o.values["bench.delta_p50_ms"] = median(delta)
	o.values["bench.delta_p85_ms"] = quantile(delta, 0.85)
	o.values["bench.slo_miss_frac"] = ratio(float64(over), float64(len(sent)))
	o.values["bench.send_late_ms"] = mean(late)
	o.values["incr.session_misses"] = float64(misses)
	putRuntime(o, rtBefore, rtAfter, len(sent))

	hits, lookups := float64(cacheAfter.Hits-cacheBefore.Hits), float64(cacheAfter.Hits-cacheBefore.Hits+cacheAfter.Misses-cacheBefore.Misses)
	o.values["cache.hit_ratio"] = ratio(hits, lookups)
	o.values["cache.lookups"] = lookups
	o.values["cache.evictions"] = float64(cacheAfter.Evictions - cacheBefore.Evictions)

	d := func(name string) float64 { return after.counters[name] - before.counters[name] }
	o.values["service.hit_p50_ms"] = 1000 * histQuantile(before.hists["linksynthd_cache_hit_duration_seconds"], after.hists["linksynthd_cache_hit_duration_seconds"], 0.5)
	o.values["service.cold_p50_ms"] = 1000 * histQuantile(before.hists["linksynthd_solve_duration_seconds"], after.hists["linksynthd_solve_duration_seconds"], 0.5)
	o.values["service.delta_p50_ms"] = 1000 * histQuantile(before.hists["linksynthd_delta_duration_seconds"], after.hists["linksynthd_delta_duration_seconds"], 0.5)
	o.values["service.rejected"] = d("linksynthd_rejected_total")
	o.values["service.coalesced"] = d("linksynthd_coalesced_requests_total")
	o.values["incr.cold"] = d("linksynthd_incr_cold_solves_total")
	o.values["incr.warm"] = d("linksynthd_incr_warm_solves_total")
	o.values["incr.partial"] = d("linksynthd_incr_partial_solves_total")
	planHits := d("linksynthd_incr_plan_hits_total")
	o.values["incr.plan_hit_ratio"] = ratio(planHits, planHits+d("linksynthd_incr_plan_misses_total"))
	claims, inline := d("linksynthd_pool_claims_total"), d("linksynthd_pool_inline_total")
	o.values["sched.inline_frac"] = ratio(inline, claims+inline)

	// Solver layers, from the flight-recorded traces of sampled cold
	// full-instance solves.
	layers := opValues{}
	for _, s := range sent {
		if s.traceID == "" || s.delta || !s.sent {
			continue
		}
		tr, err := b.flightTrace(s.traceID)
		if err != nil {
			return nil, err
		}
		if tr != nil && tr.Status == "200 miss" {
			layers.add(layersOf(tr.Spans, tr.Dur))
		}
	}
	for _, c := range checked {
		if c.ok && c.full {
			layers.add(statsOf(c.stats))
		}
	}
	layers.put(o)
	o.values["core.fingerprint_ms"] = median(b.fpMS)
	var decode []float64
	bodyBytes := 0
	for _, p := range b.pool {
		var req service.SolveRequest
		t0 := time.Now()
		if err := json.Unmarshal(p.body, &req); err != nil {
			return nil, fmt.Errorf("decode pooled body: %w", err)
		}
		decode = append(decode, ms(time.Since(t0)))
		bodyBytes += len(p.body)
	}
	o.values["service.request_decode_ms"] = median(decode)
	o.values["service.body_kb"] = float64(bodyBytes) / 1024 / float64(len(b.pool))

	// Rate sweep: the highest arrival rate whose tail meets the latency
	// limit and whose generator ends on schedule (no growing backlog).
	step := sweepWindow / time.Duration(len(sweep))
	for _, m := range sweep {
		rate := shape.rate * m
		sw := b.drive(b.schedule(rng, rate, step, ""), 0, step)
		var lat, late []float64
		ok := len(sw) > 0
		for _, s := range sw {
			if !s.sent || s.err != nil || s.status != http.StatusOK {
				ok = false
				break
			}
			lat = append(lat, ms(s.latency))
			late = append(late, ms(s.late))
		}
		// A backlog that grows shows as the generator running ever later:
		// the last quarter of the step must be sent within a quarter of
		// the latency limit of its due times, on average.
		if ok && tail(lat) <= ms(sloLimit) && mean(late[len(late)*3/4:]) <= ms(sloLimit)/4 {
			o.values["bench.max_ok_rps"] = rate
		}
	}
	return o, nil
}

// flightTrace fetches one trace from the server's flight recorder (nil
// when the ring no longer holds it).
func (b *serveBench) flightTrace(id string) (*obsv.TraceJSON, error) {
	resp, err := b.client.Get(b.url + "/debug/flight?trace=" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var fj struct {
		Traces []obsv.TraceJSON `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&fj); err != nil {
		return nil, fmt.Errorf("flight trace %s: %w", id, err)
	}
	if len(fj.Traces) == 0 {
		return nil, nil
	}
	return &fj.Traces[0], nil
}

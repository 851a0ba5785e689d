// The cluster example walks through linksynthd's elastic shared-nothing
// sharding with in-process nodes on loopback ports. Three nodes start
// with -replicas 2 semantics: each key rendezvous-hashes to one owning
// node, the owner solves it once and pushes the entry to the key's two
// ring-successors. The walkthrough forwards a solve across nodes under
// one trace id, scatters a batch, kills the *owner* of a key and shows a
// successor answering it warm — byte-identical, cache hit, zero new
// solver runs — and finally joins a fourth node into the live cluster
// without restarting anything.
//
// A real deployment runs one `linksynthd` process per node (seed nodes
// with -peers, later nodes with -join) and a per-node -advertise URL;
// see the README's "Scaling out" section.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/service"
)

const constraints = `cc owners_chi: count(Rel = 'Owner', Area = 'Chicago') = 2
cc owners_nyc: count(Rel = 'Owner', Area = 'NYC') = 1
dc one_owner: deny t1.Rel = 'Owner' & t2.Rel = 'Owner'`

// instance mints a small solvable instance; distinct bumps have distinct
// fingerprints and therefore, usually, distinct owning nodes.
func instance(bump int64) service.InstanceJSON {
	return service.InstanceJSON{
		R1: &service.RelationJSON{
			Name: "Persons",
			Columns: []service.ColumnJSON{
				{Name: "pid", Type: "int"}, {Name: "Age", Type: "int"},
				{Name: "Rel", Type: "string"}, {Name: "hid", Type: "int"},
			},
			Rows: [][]any{
				{1, 70 + bump, "Owner", nil}, {2, 25, "Owner", nil},
				{3, 24, "Spouse", nil}, {4, 30, "Owner", nil},
			},
		},
		R2: &service.RelationJSON{
			Name: "Housing",
			Columns: []service.ColumnJSON{
				{Name: "hid", Type: "int"}, {Name: "Area", Type: "string"},
			},
			Rows: [][]any{{1, "Chicago"}, {2, "Chicago"}, {3, "NYC"}, {4, "NYC"}},
		},
		K1: "pid", K2: "hid", FK: "hid",
		Constraints: constraints,
	}
}

type node struct {
	url string
	srv *service.Server
	clu *cluster.Cluster
	ln  net.Listener
	hs  *http.Server
}

// startNode wires a cache, cluster view and server onto a pre-opened
// listener. peers is the bootstrap seed list; a joiner passes nil and
// calls JoinVia afterwards.
func startNode(nd *node, peers []string) {
	c, err := cache.Open("", 256)
	if err != nil {
		log.Fatal(err)
	}
	clu, err := cluster.New(cluster.Config{
		Self:          nd.url,
		Peers:         peers,
		ProbeInterval: 200 * time.Millisecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	clu.Start()
	nd.clu = clu
	nd.srv = service.New(service.Config{Cache: c, Workers: -1, Cluster: clu, Replicas: 2})
	nd.hs = &http.Server{Handler: nd.srv}
	go nd.hs.Serve(nd.ln)
}

func main() {
	// Three nodes: listeners first (so every URL is known), then a cluster
	// view and a server per node, all sharing the same seed list.
	const n = 3
	nodes := make([]*node, n)
	urls := make([]string, n)
	for i := range nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		nodes[i] = &node{ln: ln, url: "http://" + ln.Addr().String()}
		urls[i] = nodes[i].url
	}
	for i, nd := range nodes {
		startNode(nd, urls)
		fmt.Printf("node %d listening on %s (replicas=2)\n", i, nd.url)
	}
	fmt.Println()

	// 1. The same solve posted to every node. The first post routes to the
	// key's owner, which solves once and asynchronously pushes the entry to
	// its two ring-successors — so the later posts are answered either by a
	// forward to the owner or straight from the receiving node's own
	// replica. Either way: byte-identical, one solver run cluster-wide.
	req := service.SolveRequest{InstanceJSON: instance(0), Options: &service.OptionsJSON{Seed: 1}}
	var first []byte
	ownerOf0 := ""
	for i, nd := range nodes {
		body, hdr := post(nd.url+"/v1/solve", req)
		identical := first == nil || bytes.Equal(first, body)
		if first == nil {
			first = body
			ownerOf0 = hdr.Get("X-Linksynth-Node") // fresh key: served by its owner
		}
		fmt.Printf("POST node%d/v1/solve  -> cache %-9s served by %-27s byte-identical: %v\n",
			i, hdr.Get("X-Linksynth-Cache"), hdr.Get("X-Linksynth-Node"), identical)
	}
	fmt.Printf("cluster-wide solver runs: %d (the owner %s solved; everyone else relayed or replicated)\n\n",
		totalRuns(nodes), ownerOf0)

	// 1b. A forwarded solve is one distributed trace: the edge node mints an
	// id (X-Linksynth-Trace, echoed on the response), the hop carries it to
	// the owner, and each node's flight recorder holds its half of the story
	// under that shared id — the forward span on the edge, the solver phase
	// breakdown on the owner. Fresh fingerprints until node 0 isn't the owner.
	edgeURL, ownerURL, traceID := "", "", ""
	for b := int64(100); traceID == "" && b < 120; b++ {
		_, hdr := post(nodes[0].url+"/v1/solve",
			service.SolveRequest{InstanceJSON: instance(b), Options: &service.OptionsJSON{Seed: 1}})
		if served := hdr.Get("X-Linksynth-Node"); served != nodes[0].url {
			edgeURL, ownerURL, traceID = nodes[0].url, served, hdr.Get("X-Linksynth-Trace")
		}
	}
	if traceID != "" {
		fmt.Printf("trace %s spans a forwarded solve:\n", traceID)
		for _, u := range []string{edgeURL, ownerURL} {
			fmt.Printf("  %s /debug/flight -> %s\n", u, flightSpans(u, traceID))
		}
		fmt.Println()
	}

	// 1c. The same trace, stitched: /debug/trace/{id} on ANY member asks
	// every node's flight recorder for its half and merges the spans into
	// one wall-clock timeline — the edge's forward hop and the owner's
	// solver phases, interleaved as they actually ran.
	if traceID != "" {
		printStitchedTrace(nodes[0].url, traceID)
	}

	// 1d. EXPLAIN travels with the forward too: ?explain=1 on a fresh
	// fingerprint makes the owner measure its cost report — per-CC
	// selectivities off the posting lists, phase durations, partition
	// shape — and the edge relays it spliced into the response body. The
	// cached bytes stay untouched: re-POST without explain and the body is
	// the canonical form.
	expReq := service.SolveRequest{InstanceJSON: instance(500), Options: &service.OptionsJSON{Seed: 1}}
	expBody, expHdr := post(nodes[0].url+"/v1/solve?explain=1", expReq)
	printExplain(expBody, expHdr)

	// 2. A batch posted to node 0 scatters across the owners: each
	// instance is solved on — and cached by — the node that owns its
	// fingerprint, then replicated to the successors.
	batch := service.BatchRequest{
		Instances: []service.InstanceJSON{instance(1), instance(2), instance(3), instance(4)},
		Options:   &service.OptionsJSON{Seed: 1},
	}
	accept, _ := post(nodes[0].url+"/v1/batch", batch)
	var job struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.Unmarshal(accept, &job); err != nil {
		log.Fatal(err)
	}
	for job.Status != "done" && job.Status != "canceled" {
		time.Sleep(10 * time.Millisecond)
		st, _ := get(nodes[0].url + "/v1/jobs/" + job.ID)
		if err := json.Unmarshal(st, &job); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("POST node0/v1/batch  -> %s %s; per-node cache entries after scatter:\n", job.ID, job.Status)
	for i, nd := range nodes {
		fmt.Printf("  node %d: %s\n", i, metricLine(nd.url, "linksynthd_cache_entries"))
	}
	fmt.Println()

	// 3. Kill the OWNER of the step-1 key — the worst-case victim for that
	// fingerprint. Its two ring-successors already hold the replicated
	// entry, and under rendezvous hashing the first successor is exactly
	// the node the survivors now agree owns the key: the same request
	// answers warm from the replica, byte-identical, zero new solver runs.
	victim := nodeByURL(nodes, ownerOf0)
	survivors := make([]*node, 0, n-1)
	for _, nd := range nodes {
		if nd != victim {
			survivors = append(survivors, nd)
		}
	}
	// Let replication land first: each survivor answers the key from its
	// own replica (served-by = itself) once the push has been ingested.
	for _, sv := range survivors {
		waitUntil("replica on "+sv.url, func() bool {
			_, hdr := post(sv.url+"/v1/solve", req)
			return hdr.Get("X-Linksynth-Node") == sv.url
		})
	}
	runsBefore := totalRuns(survivors)
	victim.hs.Close()
	fmt.Printf("killed %s — the owner of the step-1 key\n", victim.url)
	for _, sv := range survivors {
		waitUntil("probes to mark the owner down", func() bool {
			return metricValue(sv.url, "linksynthd_cluster_peers_up") == 1
		})
	}
	for _, sv := range survivors {
		body, hdr := post(sv.url+"/v1/solve", req)
		fmt.Printf("POST %s/v1/solve -> cache %-4s served by %-27s byte-identical: %v\n",
			sv.url, hdr.Get("X-Linksynth-Cache"), hdr.Get("X-Linksynth-Node"), bytes.Equal(body, first))
		if tid := hdr.Get("X-Linksynth-Trace"); tid != "" {
			fmt.Printf("  trace %s -> %s\n", tid, flightSpans(sv.url, tid))
		}
	}
	fmt.Printf("survivor solver runs for the failover: %d (warm — nothing re-solved)\n\n",
		totalRuns(survivors)-runsBefore)

	// 4. Elastic growth: a fourth node joins through any live member — no
	// restarts, no -peers edits on the incumbents. Gossip on the probe
	// cycle spreads the new member set, the ring recomputes incrementally
	// (only the joiner's key ranges move), and the joiner starts owning
	// and serving fresh fingerprints immediately.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	joiner := &node{ln: ln, url: "http://" + ln.Addr().String()}
	startNode(joiner, nil)
	if err := joiner.clu.JoinVia(context.Background(), survivors[0].url); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node 3 (%s) joined via %s\n", joiner.url, survivors[0].url)
	for _, sv := range survivors {
		waitUntil("gossip to spread the join", func() bool {
			return metricValue(sv.url, "linksynthd_cluster_members") == 4
		})
	}
	for b := int64(200); b < 240; b++ {
		_, hdr := post(survivors[0].url+"/v1/solve",
			service.SolveRequest{InstanceJSON: instance(b), Options: &service.OptionsJSON{Seed: 1}})
		if hdr.Get("X-Linksynth-Node") == joiner.url {
			fmt.Printf("new fingerprint routed from %s to the joiner: served by %s\n\n",
				survivors[0].url, hdr.Get("X-Linksynth-Node"))
			break
		}
	}

	// 5. The cluster's own view of the chaos.
	hz, _ := get(survivors[0].url + "/healthz")
	fmt.Printf("GET %s/healthz -> %s\n", survivors[0].url, hz)
	for _, name := range []string{
		"linksynthd_cluster_members", "linksynthd_cluster_peers_up",
		"linksynthd_cluster_membership_epoch", "linksynthd_cluster_replica_ingested_total",
		"linksynthd_cluster_replica_served_total", "linksynthd_cluster_failovers_total",
	} {
		fmt.Printf("  %s\n", metricLine(survivors[0].url, name))
	}
	fmt.Println()

	// 5b. Cluster-wide telemetry from any one member: /debug/cluster
	// fans out to every live node's /metrics and merges them into a
	// single exposition — counters summed, gauges maxed, every sample
	// also broken out per node — so one scrape sees the whole cluster.
	cm, _ := get(survivors[0].url + "/debug/cluster")
	fmt.Printf("GET %s/debug/cluster (merged exposition, %d lines):\n", survivors[0].url, strings.Count(string(cm), "\n"))
	for _, line := range strings.Split(string(cm), "\n") {
		if strings.HasPrefix(line, "linksynthd_cache_entries") || strings.HasPrefix(line, "linksynthd_cluster_node_up") {
			fmt.Printf("  %s\n", line)
		}
	}
}

// printStitchedTrace fetches /debug/trace/{id} — the cross-node stitched
// view — from one member and prints which nodes contributed and the
// merged span timeline.
func printStitchedTrace(url, id string) {
	body, _ := get(url + "/debug/trace/" + id)
	var ct struct {
		Nodes    []string `json:"nodes"`
		Timeline []struct {
			Node string `json:"node"`
			Name string `json:"name"`
		} `json:"timeline"`
	}
	if err := json.Unmarshal(body, &ct); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GET %s/debug/trace/%s -> stitched across %v:\n  timeline:", url, id, ct.Nodes)
	for _, sp := range ct.Timeline {
		fmt.Printf(" %s@%s", sp.Name, sp.Node)
	}
	fmt.Println()
	fmt.Println()
}

// printExplain digs the headline numbers out of a spliced explain member:
// which node measured it, the solver's routing split, and the service-side
// hit ratios at that node.
func printExplain(body []byte, hdr http.Header) {
	var resp struct {
		Explain *struct {
			Node    string `json:"node"`
			TraceID string `json:"trace_id"`
			Cache   string `json:"cache"`
			Solver  *struct {
				Mode       string `json:"mode"`
				ViewRows   int    `json:"view_rows"`
				Combos     int    `json:"combos"`
				CCsToHasse int    `json:"ccs_to_hasse"`
				CCsToILP   int    `json:"ccs_to_ilp"`
				Partitions struct {
					Count int `json:"count"`
				} `json:"partitions"`
			} `json:"solver"`
			Service struct {
				CacheHitRatio float64 `json:"cache_hit_ratio"`
			} `json:"service"`
		} `json:"explain"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		log.Fatal(err)
	}
	if resp.Explain == nil {
		fmt.Println("POST ?explain=1 -> no explain member (unexpected)")
		return
	}
	e := resp.Explain
	fmt.Printf("POST node0/v1/solve?explain=1 -> cache %s, served by %s, measured on %s (trace %s)\n",
		e.Cache, hdr.Get("X-Linksynth-Node"), e.Node, e.TraceID)
	if e.Solver != nil {
		fmt.Printf("  solver: mode=%s view_rows=%d combos=%d routing hasse/ilp=%d/%d partitions=%d\n",
			e.Solver.Mode, e.Solver.ViewRows, e.Solver.Combos,
			e.Solver.CCsToHasse, e.Solver.CCsToILP, e.Solver.Partitions.Count)
	}
	fmt.Printf("  service at %s: cache_hit_ratio=%.2f\n", e.Node, e.Service.CacheHitRatio)
	fmt.Println()
}

// flightSpans polls a node's flight recorder for a trace id and renders
// what that node contributed to it: span names, or events when the node
// answered without timed work (a warm failover is a byte-cache hit, so
// its trail is the failover event plus the cache event). The recorder
// files a trace just after the response bytes are on the wire, hence the
// brief retry loop.
func flightSpans(url, id string) string {
	var dump struct {
		Traces []struct {
			ID    string `json:"id"`
			Spans []struct {
				Name string `json:"name"`
			} `json:"spans"`
			Events []struct {
				Msg string `json:"msg"`
			} `json:"events"`
		} `json:"traces"`
	}
	for i := 0; i < 100; i++ {
		body, _ := get(url + "/debug/flight")
		if err := json.Unmarshal(body, &dump); err != nil {
			log.Fatal(err)
		}
		for _, tr := range dump.Traces {
			if tr.ID != id {
				continue
			}
			if len(tr.Spans) == 0 && len(tr.Events) > 0 {
				msgs := make([]string, len(tr.Events))
				for j, ev := range tr.Events {
					msgs[j] = ev.Msg
				}
				return "events: " + strings.Join(msgs, " | ")
			}
			names := make([]string, len(tr.Spans))
			for j, sp := range tr.Spans {
				names[j] = sp.Name
			}
			return "spans: " + strings.Join(names, " ")
		}
		time.Sleep(5 * time.Millisecond)
	}
	return "(trace not recorded)"
}

func nodeByURL(nodes []*node, url string) *node {
	for _, nd := range nodes {
		if nd.url == url {
			return nd
		}
	}
	log.Fatalf("no node advertises %s", url)
	return nil
}

func waitUntil(what string, cond func() bool) {
	for i := 0; i < 400; i++ {
		if cond() {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	log.Fatalf("timed out waiting for %s", what)
}

func totalRuns(nodes []*node) int {
	total := 0
	for _, nd := range nodes {
		total += metricValue(nd.url, "linksynthd_solver_runs_total")
	}
	return total
}

func metricValue(url, name string) int {
	var v int
	fmt.Sscanf(metricLine(url, name), name+" %d", &v)
	return v
}

func metricLine(url, name string) string {
	body, _ := get(url + "/metrics")
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, name+" ") {
			return line
		}
	}
	return name + " ?"
}

func post(url string, v any) ([]byte, http.Header) {
	b, err := json.Marshal(v)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode >= 300 && resp.StatusCode != 202 {
		log.Fatalf("%s: %d: %s", url, resp.StatusCode, body)
	}
	return body, resp.Header
}

func get(url string) ([]byte, http.Header) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return body, resp.Header
}

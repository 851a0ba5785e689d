package service

import (
	"encoding/json"
	"net/http"

	"repro/internal/obsv"
)

// This file is the serving edge of solve EXPLAIN. A client appends
// ?explain=1 to POST /v1/solve (full or base+delta) and the response body
// gains a trailing "explain" member: the solver's measured cost report
// (when this request actually ran the solver) wrapped in the serving
// context — which node answered, the trace id to quote at /debug/trace,
// the cache disposition, and the node's cache and session counters.
//
// The cached response bytes are never touched: the explain member is
// spliced into a *copy* of the body at write time, after the cache and
// the fingerprint have both seen the canonical bytes. Responses with and
// without explain are therefore byte-identical up to the splice point,
// and the golden tests pin that the splice never leaks into fingerprints
// or cached bodies. In a cluster the ?explain=1 query is forwarded with
// the solve, so the owner — the node that solves — measures the report
// and the entry node relays it verbatim.

// explainJSON is the spliced "explain" member of a solve response.
type explainJSON struct {
	Node    string              `json:"node,omitempty"`
	TraceID string              `json:"trace_id,omitempty"`
	Cache   string              `json:"cache"`
	Solver  *obsv.ExplainReport `json:"solver,omitempty"`
	Service explainServiceJSON  `json:"service"`
}

// explainServiceJSON carries the answering node's warm-state ratios at
// the time of the solve: how often its byte cache and session store are
// hitting.
type explainServiceJSON struct {
	CacheHitRatio    float64 `json:"cache_hit_ratio"`
	Sessions         int     `json:"sessions"`
	CoalescedTotal   uint64  `json:"coalesced_total"`
	SessionMissTotal uint64  `json:"session_misses_total"`
}

// wantExplain reports whether the request asked for a cost report.
func wantExplain(r *http.Request) bool {
	switch r.URL.Query().Get("explain") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// explainEnvelope assembles the explain member for a response served with
// the given cache disposition. The solver report comes off the trace —
// present when this request's solve ran locally, absent on pure cache
// hits and coalesced follows (the report describes a solver run; those
// paths had none).
func (s *Server) explainEnvelope(tr *obsv.Trace, status string) *explainJSON {
	cs := s.cache.Stats()
	return &explainJSON{
		Node:    s.obs.Node,
		TraceID: tr.ID(),
		Cache:   status,
		Solver:  tr.Explain(),
		Service: explainServiceJSON{
			CacheHitRatio:    hitRatio(cs.Hits, cs.Misses),
			Sessions:         s.sessions.Len(),
			CoalescedTotal:   s.coalesced.Load(),
			SessionMissTotal: s.sessionMisses.Load(),
		},
	}
}

// hitRatio is hits/(hits+misses), 0 when nothing was ever looked up.
func hitRatio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// spliceExplain returns a copy of the canonical body with the explain
// member appended inside the top-level object. The input bytes — which
// may be a live cache entry — are never modified. A body that is not a
// JSON object (impossible for a solve response) passes through unchanged.
func spliceExplain(body []byte, env *explainJSON) []byte {
	ej, err := json.Marshal(env)
	if err != nil || len(body) == 0 || body[len(body)-1] != '}' {
		return body
	}
	out := make([]byte, 0, len(body)+len(ej)+len(`,"explain":`))
	out = append(out, body[:len(body)-1]...)
	out = append(out, `,"explain":`...)
	out = append(out, ej...)
	out = append(out, '}')
	return out
}

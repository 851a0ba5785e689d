package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"mime"
	"mime/multipart"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/metrics"
	"repro/internal/table"
)

// RelationJSON is the wire form of a relation: a named schema plus row-major
// cells. Cells are JSON numbers (int columns), strings (string columns) or
// null (missing, e.g. the FK column of R1 before solving).
type RelationJSON struct {
	Name    string       `json:"name"`
	Columns []ColumnJSON `json:"columns"`
	Rows    [][]any      `json:"rows"`
}

// ColumnJSON is one schema column; Type is "int" or "string".
type ColumnJSON struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// OptionsJSON selects the solver configuration for a request. Algo mirrors
// the CLI's -algo flag; Workers is intentionally absent — parallelism is
// the server's policy, and the output is byte-identical either way.
type OptionsJSON struct {
	Algo string `json:"algo,omitempty"` // hybrid (default) | baseline | baseline-marginals | ilp-only | hasse-only
	Seed int64  `json:"seed,omitempty"`
}

// InstanceJSON is one C-Extension instance: both relations inline, the key
// columns, and the constraint sets in the text DSL.
type InstanceJSON struct {
	R1          *RelationJSON `json:"r1"`
	R2          *RelationJSON `json:"r2"`
	K1          string        `json:"k1"`
	K2          string        `json:"k2"`
	FK          string        `json:"fk"`
	Constraints string        `json:"constraints,omitempty"`
}

// SolveRequest is the body of POST /v1/solve. Two shapes are accepted: a
// full instance (r1/r2/k1/k2/fk/constraints), or a warm-start delta — a
// `base` fingerprint naming a previously solved instance plus a `delta`
// change set, with no instance fields. Delta requests re-solve the base
// instance patched by the delta, splicing unchanged work from the warm
// session the base solve left behind; the response is byte-identical in
// its result relations to submitting the patched instance in full.
type SolveRequest struct {
	InstanceJSON
	Options *OptionsJSON `json:"options,omitempty"`
	Base    string       `json:"base,omitempty"`
	Delta   *DeltaJSON   `json:"delta,omitempty"`
}

// DeltaJSON is the wire form of an incremental change set relative to a
// base instance: CC targets remapped by index, R1 cells edited, R1 rows
// appended. Cell values follow the relation cell encoding (number, string
// or null).
type DeltaJSON struct {
	CCTargets map[string]int64 `json:"cc_targets,omitempty"` // CC index (decimal string) -> new target
	R1Edits   []CellEditJSON   `json:"r1_edits,omitempty"`
	R1Appends [][]any          `json:"r1_appends,omitempty"`
}

// CellEditJSON rewrites one R1 cell.
type CellEditJSON struct {
	Row int    `json:"row"`
	Col string `json:"col"`
	Val any    `json:"val"`
}

// toDelta converts the wire delta into the engine's form.
func (dj *DeltaJSON) toDelta() (incr.Delta, error) {
	var d incr.Delta
	if len(dj.CCTargets) > 0 {
		// Decode in sorted key order so a request with several malformed
		// keys always gets the same 400 body — ranging the map made the
		// reported key vary run to run.
		keys := make([]string, 0, len(dj.CCTargets))
		for k := range dj.CCTargets {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		d.CCTargets = make(map[int]int64, len(dj.CCTargets))
		for _, k := range keys {
			i, err := strconv.Atoi(k)
			if err != nil {
				return d, badRequest("delta: cc_targets key %q is not a CC index", k)
			}
			d.CCTargets[i] = dj.CCTargets[k]
		}
	}
	for n, ed := range dj.R1Edits {
		v, err := decodeValue(ed.Val)
		if err != nil {
			return d, badRequest("delta: r1_edits[%d]: %v", n, err)
		}
		d.R1Edits = append(d.R1Edits, incr.CellEdit{Row: ed.Row, Col: ed.Col, Val: v})
	}
	for n, row := range dj.R1Appends {
		vals := make([]table.Value, len(row))
		for j, cell := range row {
			v, err := decodeValue(cell)
			if err != nil {
				return d, badRequest("delta: r1_appends[%d][%d]: %v", n, j, err)
			}
			vals[j] = v
		}
		d.R1Appends = append(d.R1Appends, vals)
	}
	return d, nil
}

// deltaFlightKey derives the singleflight key of a (base, delta) pair, so
// identical concurrent warm-start requests coalesce onto one partial
// re-solve even before the patched instance's full fingerprint is known.
// The encoding is canonical and injective: targets sorted by index, edits
// and appends in request order (order is semantically significant for
// edits), every variable-length field length-prefixed and every section
// count-prefixed — no two distinct deltas share an encoding even when
// string values embed separator bytes.
func deltaFlightKey(base cache.Key, d incr.Delta) cache.Key {
	h := sha256.New()
	writeLP := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		io.WriteString(h, s)
	}
	writeInt := func(v int64) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(v))
		h.Write(n[:])
	}
	writeVal := func(v table.Value) {
		writeInt(int64(v.Kind()))
		switch v.Kind() {
		case table.KindInt:
			writeInt(v.Int())
		case table.KindString:
			writeLP(v.Str())
		}
	}
	writeLP("linksynth-delta-flight-v1")
	h.Write(base[:])
	idxs := make([]int, 0, len(d.CCTargets))
	for i := range d.CCTargets {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	writeInt(int64(len(idxs)))
	for _, i := range idxs {
		writeInt(int64(i))
		writeInt(d.CCTargets[i])
	}
	writeInt(int64(len(d.R1Edits)))
	for _, ed := range d.R1Edits {
		writeInt(int64(ed.Row))
		writeLP(ed.Col)
		writeVal(ed.Val)
	}
	writeInt(int64(len(d.R1Appends)))
	for _, row := range d.R1Appends {
		writeInt(int64(len(row)))
		for _, v := range row {
			writeVal(v)
		}
	}
	var k cache.Key
	h.Sum(k[:0])
	return k
}

// BatchRequest is the body of POST /v1/batch: many instances solved
// asynchronously under one shared Options.
type BatchRequest struct {
	Instances []InstanceJSON `json:"instances"`
	Options   *OptionsJSON   `json:"options,omitempty"`
}

// ResultJSON is the wire form of a solver result plus the §6.1 quality
// measures evaluated on it.
type ResultJSON struct {
	R1Hat    RelationJSON `json:"r1_hat"`
	R2Hat    RelationJSON `json:"r2_hat"`
	VJoin    RelationJSON `json:"vjoin"`
	Stats    core.Stats   `json:"stats"`
	CCErrors []float64    `json:"cc_errors"`
	DCError  float64      `json:"dc_error"`
}

// SolveResponse is the body of a successful solve: the instance's content
// address and its result. Cache status travels in the X-Linksynth-Cache
// header, never in the body, so a cache hit is byte-identical to the cold
// solve that populated it.
type SolveResponse struct {
	Key    string     `json:"key"`
	Result ResultJSON `json:"result"`
}

// apiError is a client-visible request failure carrying its HTTP status.
type apiError struct {
	status int
	msg    string
}

func (e *apiError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

func colTypeString(t table.Type) string {
	if t == table.TypeInt {
		return "int"
	}
	return "string"
}

func encodeRelation(r *table.Relation) RelationJSON {
	s := r.Schema()
	out := RelationJSON{Name: r.Name, Columns: make([]ColumnJSON, s.Len()), Rows: make([][]any, r.Len())}
	for j := 0; j < s.Len(); j++ {
		c := s.Col(j)
		out.Columns[j] = ColumnJSON{Name: c.Name, Type: colTypeString(c.Type)}
	}
	for i := 0; i < r.Len(); i++ {
		row := r.Row(i)
		cells := make([]any, len(row))
		for j, v := range row {
			switch v.Kind() {
			case table.KindInt:
				cells[j] = v.Int()
			case table.KindString:
				cells[j] = v.Str()
			default:
				cells[j] = nil
			}
		}
		out.Rows[i] = cells
	}
	return out
}

// decodeRelation converts the wire form back into a relation. Number cells
// must be integral (the request decoder runs with UseNumber, so no float
// precision is lost on the way in).
func decodeRelation(rj *RelationJSON, fallbackName string) (*table.Relation, error) {
	if rj == nil {
		return nil, badRequest("missing relation %q", strings.ToLower(fallbackName))
	}
	name := rj.Name
	if name == "" {
		name = fallbackName
	}
	if len(rj.Columns) == 0 {
		return nil, badRequest("relation %s: no columns", name)
	}
	cols := make([]table.Column, len(rj.Columns))
	for j, c := range rj.Columns {
		if c.Name == "" {
			return nil, badRequest("relation %s: column %d has no name", name, j)
		}
		switch c.Type {
		case "int":
			cols[j] = table.IntCol(c.Name)
		case "string":
			cols[j] = table.StrCol(c.Name)
		default:
			return nil, badRequest("relation %s: column %q: unknown type %q (want \"int\" or \"string\")", name, c.Name, c.Type)
		}
	}
	rel := table.NewRelation(name, table.NewSchema(cols...))
	for i, row := range rj.Rows {
		if len(row) != len(cols) {
			return nil, badRequest("relation %s: row %d has %d cells, schema has %d columns", name, i, len(row), len(cols))
		}
		vals := make([]table.Value, len(row))
		for j, cell := range row {
			v, err := decodeValue(cell)
			if err != nil {
				return nil, badRequest("relation %s: row %d, column %q: %v", name, i, cols[j].Name, err)
			}
			vals[j] = v
		}
		if err := rel.Append(vals...); err != nil {
			return nil, badRequest("relation %s: row %d: %v", name, i, err)
		}
	}
	return rel, nil
}

func decodeValue(cell any) (table.Value, error) {
	switch c := cell.(type) {
	case nil:
		return table.Null(), nil
	case string:
		return table.String(c), nil
	case json.Number:
		n, err := c.Int64()
		if err != nil {
			return table.Null(), fmt.Errorf("non-integer number %v", c)
		}
		return table.Int(n), nil
	case float64:
		// Reached only when the payload bypassed UseNumber (programmatic use).
		n := int64(c)
		if float64(n) != c {
			return table.Null(), fmt.Errorf("non-integer number %v", c)
		}
		return table.Int(n), nil
	default:
		return table.Null(), fmt.Errorf("unsupported cell type %T", cell)
	}
}

func (o *OptionsJSON) toOptions() (core.Options, error) {
	if o == nil {
		return core.Options{Seed: 1}, nil
	}
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	switch o.Algo {
	case "", "hybrid":
		return core.Options{Seed: seed}, nil
	case "baseline":
		return core.BaselineOptions(seed), nil
	case "baseline-marginals":
		return core.BaselineMarginalsOptions(seed), nil
	case "ilp-only":
		return core.Options{Mode: core.ModeILPOnly, Seed: seed}, nil
	case "hasse-only":
		return core.Options{Mode: core.ModeHasseOnly, Seed: seed}, nil
	default:
		return core.Options{}, badRequest("unknown algo %q (want hybrid, baseline, baseline-marginals, ilp-only or hasse-only)", o.Algo)
	}
}

// toInput validates the instance and assembles the solver input: both
// relations present, key/FK columns named and existing in their schemas,
// and the constraint DSL parsed.
func (ij *InstanceJSON) toInput() (core.Input, error) {
	r1, err := decodeRelation(ij.R1, "R1")
	if err != nil {
		return core.Input{}, err
	}
	r2, err := decodeRelation(ij.R2, "R2")
	if err != nil {
		return core.Input{}, err
	}
	return assembleInput(r1, r2, ij.K1, ij.K2, ij.FK, ij.Constraints)
}

func assembleInput(r1, r2 *table.Relation, k1, k2, fk, consDSL string) (core.Input, error) {
	if k1 == "" || k2 == "" || fk == "" {
		return core.Input{}, badRequest("k1, k2 and fk are required")
	}
	if !r1.Schema().Has(k1) {
		return core.Input{}, badRequest("k1 column %q not in %s (columns: %s)",
			k1, r1.Name, strings.Join(r1.Schema().Names(), ", "))
	}
	if !r1.Schema().Has(fk) {
		return core.Input{}, badRequest("fk column %q not in %s (columns: %s)",
			fk, r1.Name, strings.Join(r1.Schema().Names(), ", "))
	}
	if !r2.Schema().Has(k2) {
		return core.Input{}, badRequest("k2 column %q not in %s (columns: %s)",
			k2, r2.Name, strings.Join(r2.Schema().Names(), ", "))
	}
	in := core.Input{R1: r1, R2: r2, K1: k1, K2: k2, FK: fk}
	if consDSL != "" {
		ccs, dcs, err := constraint.ParseConstraints(strings.NewReader(consDSL))
		if err != nil {
			return core.Input{}, badRequest("constraints: %v", err)
		}
		in.CCs, in.DCs = ccs, dcs
	}
	return in, nil
}

// encodeSolveBody renders the canonical response body for a solved
// instance. The same instance always produces the same bytes, which is what
// the cache stores and what makes hits byte-identical to cold solves.
func encodeSolveBody(keyHex string, in core.Input, res *core.Result) ([]byte, error) {
	// The body is stored in the content-addressed cache under a key that
	// promises byte-identical responses — a cluster gather fallback
	// re-solves a lost peer's group expecting to reproduce its bytes
	// exactly, and warm and cold solves of one key must agree. Wall-clock
	// timings and warm-state reuse flags vary run to run and node to node,
	// so they are canonicalized to zero before encoding; the deterministic
	// counters (partitions, ILP nodes, added tuples, ...) stay.
	st := res.Stats
	st.Pairwise, st.Recursion, st.ILPTime, st.Coloring = 0, 0, 0, 0
	st.Phase1, st.Phase2, st.Total = 0, 0, 0
	st.ProbReused, st.SplicedPartitions = false, 0
	body := SolveResponse{
		Key: keyHex,
		Result: ResultJSON{
			R1Hat:    encodeRelation(res.R1Hat),
			R2Hat:    encodeRelation(res.R2Hat),
			VJoin:    encodeRelation(res.VJoin),
			Stats:    st,
			CCErrors: metrics.CCErrors(res.VJoin, in.CCs),
			DCError:  metrics.DCErrorFraction(res.R1Hat, in.FK, in.DCs),
		},
	}
	return json.Marshal(body)
}

// solveParsed is one decoded /v1/solve request: either a full instance
// (isDelta false; in/opt set) or a warm-start reference (isDelta true;
// base/delta set, solved against the base instance's retained options).
type solveParsed struct {
	isDelta bool
	in      core.Input
	opt     core.Options
	base    cache.Key
	delta   incr.Delta
}

// parseSolveRequest decodes POST /v1/solve in any of its shapes:
// application/json with a full instance (SolveRequest), application/json
// with a base fingerprint plus delta (the warm-start path), or
// multipart/form-data with CSV relation parts. Multipart parts: files "r1"
// and "r2" (CSV, schema inferred while streaming), fields "k1"/"k2"/"fk",
// optional "constraints" (DSL text, field or file) and optional "options"
// (OptionsJSON).
func parseSolveRequest(r *http.Request) (*solveParsed, error) {
	ct := r.Header.Get("Content-Type")
	mediaType, params, err := mime.ParseMediaType(ct)
	if ct != "" && err != nil {
		return nil, badRequest("bad Content-Type %q: %v", ct, err)
	}
	if mediaType == "multipart/form-data" {
		in, opt, err := parseMultipartSolve(r, params["boundary"])
		if err != nil {
			return nil, err
		}
		return &solveParsed{in: in, opt: opt}, nil
	}
	var req SolveRequest
	dec := json.NewDecoder(r.Body)
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		return nil, decodeErr(err)
	}
	if req.Base != "" || req.Delta != nil {
		return parseDeltaRequest(&req)
	}
	in, err := req.InstanceJSON.toInput()
	if err != nil {
		return nil, err
	}
	opt, err := req.Options.toOptions()
	if err != nil {
		return nil, err
	}
	return &solveParsed{in: in, opt: opt}, nil
}

// parseDeltaRequest validates the warm-start shape: base and delta both
// present, no instance fields (the base names the instance), no options
// (the base solve's options are inherited — a delta cannot change them).
func parseDeltaRequest(req *SolveRequest) (*solveParsed, error) {
	if req.Base == "" {
		return nil, badRequest("delta request needs a base fingerprint")
	}
	if req.Delta == nil {
		return nil, badRequest("base without delta: submit a delta, or the full instance without base")
	}
	if req.R1 != nil || req.R2 != nil || req.K1 != "" || req.K2 != "" || req.FK != "" || req.Constraints != "" {
		return nil, badRequest("delta request must not carry instance fields (the base fingerprint names the instance)")
	}
	if req.Options != nil {
		return nil, badRequest("delta request must not carry options (the base solve's options are inherited)")
	}
	raw, err := hex.DecodeString(req.Base)
	if err != nil || len(raw) != 32 {
		return nil, badRequest("base %q is not a 64-hex-digit fingerprint", req.Base)
	}
	d, err := req.Delta.toDelta()
	if err != nil {
		return nil, err
	}
	if d.IsZero() {
		return nil, badRequest("delta is empty")
	}
	p := &solveParsed{isDelta: true, delta: d}
	copy(p.base[:], raw)
	return p, nil
}

func parseMultipartSolve(r *http.Request, boundary string) (core.Input, core.Options, error) {
	if boundary == "" {
		return core.Input{}, core.Options{}, badRequest("multipart request has no boundary")
	}
	mr := multipart.NewReader(r.Body, boundary)
	var (
		r1, r2   *table.Relation
		fields   = map[string]string{}
		optsJSON *OptionsJSON
	)
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return core.Input{}, core.Options{}, decodeErr(err)
		}
		name := part.FormName()
		switch name {
		case "r1", "r2":
			// The CSV is parsed straight off the part stream; the schema is
			// inferred from the header row and the column contents.
			rel, err := table.ReadCSVInferred(part, strings.ToUpper(name))
			if err != nil {
				return core.Input{}, core.Options{}, wrapPartErr(name, err)
			}
			if name == "r1" {
				r1 = rel
			} else {
				r2 = rel
			}
		case "k1", "k2", "fk", "constraints":
			b, err := io.ReadAll(part)
			if err != nil {
				return core.Input{}, core.Options{}, wrapPartErr(name, err)
			}
			fields[name] = strings.TrimSpace(string(b))
		case "options":
			var o OptionsJSON
			dec := json.NewDecoder(part)
			dec.UseNumber()
			if err := dec.Decode(&o); err != nil {
				return core.Input{}, core.Options{}, wrapPartErr(name, err)
			}
			optsJSON = &o
		default:
			return core.Input{}, core.Options{}, badRequest("unknown multipart field %q", name)
		}
		part.Close()
	}
	if r1 == nil || r2 == nil {
		return core.Input{}, core.Options{}, badRequest("multipart request needs both r1 and r2 CSV parts")
	}
	in, err := assembleInput(r1, r2, fields["k1"], fields["k2"], fields["fk"], fields["constraints"])
	if err != nil {
		return core.Input{}, core.Options{}, err
	}
	opt, err := optsJSON.toOptions()
	if err != nil {
		return core.Input{}, core.Options{}, err
	}
	return in, opt, nil
}

// wrapPartErr attributes a multipart decode failure to its part, keeping
// body-size overruns recognizable for the 413 mapping.
func wrapPartErr(part string, err error) error {
	if isTooLarge(err) {
		return err
	}
	return badRequest("part %q: %v", part, err)
}

// decodeErr maps a body decode failure to the right API error: 413 when the
// MaxBytesReader tripped, 400 otherwise.
func decodeErr(err error) error {
	if isTooLarge(err) {
		return err
	}
	return badRequest("decode request: %v", err)
}

func isTooLarge(err error) bool {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return true
	}
	// multipart and csv readers may swallow the typed error; the message
	// survives.
	return err != nil && strings.Contains(err.Error(), "request body too large")
}

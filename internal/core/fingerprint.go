package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/constraint"
	"repro/internal/table"
)

// fingerprintVersion tags the canonical encoding; bump it whenever the
// encoding (or anything the solver's output depends on) changes shape, so
// stale persisted cache entries can never be served for a new format.
const fingerprintVersion = "linksynth-fp-v1"

// Fingerprint returns the SHA-256 content address of a solver instance:
// two (Input, Options) pairs share a key iff the canonical encodings of
// their relations, constraints and output-relevant options agree, and every
// such pair is guaranteed the byte-identical *Result. The encoding covers
// relation names, schemas and rows, K1/K2/FK, the constraint sets rendered
// through the DSL with names elided (constraint.CanonicalConstraints), and
// all Options fields except Workers — the pool size never changes the
// output (see Options.Workers), so a sequential and a parallel solve of the
// same instance share one cache entry. A nonzero ILP.TimeLimit voids the
// solver's determinism promise; it is part of the key, but callers that
// need strict reproducibility should not cache under it.
func Fingerprint(in Input, opt Options) ([32]byte, error) {
	var key [32]byte
	h := sha256.New()
	// The encoding is thousands of tiny writes (a varint per cell); a
	// buffer in front of the hash turns them into a few block updates,
	// cutting the fingerprint cost of a large instance by an order of
	// magnitude.
	bw := bufio.NewWriterSize(h, 1<<12)
	writeString(bw, fingerprintVersion)
	writeString(bw, in.K1)
	writeString(bw, in.K2)
	writeString(bw, in.FK)
	if err := writeRelation(bw, in.R1); err != nil {
		return key, fmt.Errorf("core: fingerprint R1: %w", err)
	}
	if err := writeRelation(bw, in.R2); err != nil {
		return key, fmt.Errorf("core: fingerprint R2: %w", err)
	}
	writeString(bw, constraint.CanonicalConstraints(in.CCs, in.DCs))

	writeOptions(bw, opt)
	if err := bw.Flush(); err != nil {
		return key, err
	}

	h.Sum(key[:0])
	return key, nil
}

// writeRelation encodes name, schema and rows. Strings are length-prefixed
// and values carry a kind tag, so no two distinct relations share an
// encoding.
func writeRelation(w io.Writer, r *table.Relation) error {
	if r == nil {
		return fmt.Errorf("nil relation")
	}
	writeString(w, r.Name)
	s := r.Schema()
	writeUint(w, uint64(s.Len()))
	for j := 0; j < s.Len(); j++ {
		c := s.Col(j)
		writeString(w, c.Name)
		writeUint(w, uint64(c.Type))
	}
	writeUint(w, uint64(r.Len()))
	for i := 0; i < r.Len(); i++ {
		for _, v := range r.Row(i) {
			writeUint(w, uint64(v.Kind()))
			switch v.Kind() {
			case table.KindInt:
				writeUint(w, uint64(v.Int()))
			case table.KindString:
				writeString(w, v.Str())
			}
		}
	}
	return nil
}

func writeString(w io.Writer, s string) {
	writeUint(w, uint64(len(s)))
	io.WriteString(w, s)
}

func writeUint(w io.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeBool(w io.Writer, b bool) {
	if b {
		writeUint(w, 1)
	} else {
		writeUint(w, 0)
	}
}

// writeOptions hashes every output-relevant Options field. Workers is
// deliberately absent (the pool size never changes the output).
func writeOptions(w io.Writer, opt Options) {
	writeUint(w, uint64(opt.Mode))
	writeBool(w, opt.NoMarginals)
	writeBool(w, opt.RandomFK)
	writeBool(w, opt.NoPartition)
	writeUint(w, uint64(opt.Order))
	writeUint(w, uint64(opt.Seed))
	writeUint(w, uint64(opt.ILP.MaxNodes))
	writeUint(w, uint64(opt.ILP.MaxIters))
	writeUint(w, uint64(opt.ILP.TimeLimit))
}

package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"repro/internal/constraint"
	"repro/internal/core"
)

// SessionRecord is everything needed to reopen a parked serving session
// after a restart: references to the base relations (by snapshot
// fingerprint), the constraint text, and the solver options. The record
// stores only the pristine base instance — deltas are re-expressed by
// clients against the base fingerprint, so overlay state need not survive;
// what must survive is the ability to serve the next {base, delta} without
// a 404 or a re-solve of a cached result.
//
// Constraints are persisted through constraint.WriteConstraints, which
// preserves names and declaration order — both load-bearing: names are part
// of the content fingerprint, and delta CC targets index constraints by
// declaration position.
type SessionRecord struct {
	BaseFP [32]byte // content fingerprint of the base instance (the file's name)
	R1FP   [32]byte // snapshot fingerprint of R1
	R2FP   [32]byte // snapshot fingerprint of R2
	K1     string
	K2     string
	FK     string
	Opt    core.Options // Workers is not persisted; the serving process sets it
	CCs    []constraint.CC
	DCs    []constraint.DC
}

// sessionRecordVersion stays 1: the layout still reserves the 32-byte
// metadata slot and the section (secSessReserved) that once held a compiled
// classification plan. Both are written empty and ignored on read, so
// records are exchangeable with nodes that still write them.
const sessionRecordVersion = 1

const (
	optFlagNoMarginals = 1 << iota
	optFlagRandomFK
	optFlagNoPartition
)

func encodeSessionMeta(rec *SessionRecord) []byte {
	var out []byte
	out = binary.LittleEndian.AppendUint32(out, sessionRecordVersion)
	out = append(out, rec.BaseFP[:]...)
	out = append(out, make([]byte, 32)...) // reserved
	out = append(out, rec.R1FP[:]...)
	out = append(out, rec.R2FP[:]...)
	for _, s := range []string{rec.K1, rec.K2, rec.FK} {
		out = binary.LittleEndian.AppendUint32(out, uint32(len(s)))
		out = append(out, s...)
	}
	var flags uint8
	if rec.Opt.NoMarginals {
		flags |= optFlagNoMarginals
	}
	if rec.Opt.RandomFK {
		flags |= optFlagRandomFK
	}
	if rec.Opt.NoPartition {
		flags |= optFlagNoPartition
	}
	out = append(out, uint8(rec.Opt.Mode), flags, uint8(rec.Opt.Order))
	out = binary.LittleEndian.AppendUint64(out, uint64(rec.Opt.Seed))
	out = binary.LittleEndian.AppendUint64(out, uint64(rec.Opt.ILP.MaxNodes))
	out = binary.LittleEndian.AppendUint64(out, uint64(rec.Opt.ILP.MaxIters))
	out = binary.LittleEndian.AppendUint64(out, uint64(rec.Opt.ILP.TimeLimit))
	return out
}

func decodeSessionMeta(data []byte, rec *SessionRecord) error {
	off := 0
	take := func(n int) ([]byte, bool) {
		if n < 0 || off+n > len(data) {
			return nil, false
		}
		b := data[off : off+n]
		off += n
		return b, true
	}
	vb, ok := take(4)
	if !ok {
		return fmt.Errorf("session meta truncated")
	}
	if v := binary.LittleEndian.Uint32(vb); v != sessionRecordVersion {
		return fmt.Errorf("unsupported session record version %d", v)
	}
	var reserved [32]byte
	for _, dst := range [][]byte{rec.BaseFP[:], reserved[:], rec.R1FP[:], rec.R2FP[:]} {
		b, ok := take(32)
		if !ok {
			return fmt.Errorf("session meta truncated")
		}
		copy(dst, b)
	}
	for _, dst := range []*string{&rec.K1, &rec.K2, &rec.FK} {
		lb, ok := take(4)
		if !ok {
			return fmt.Errorf("session meta truncated")
		}
		sb, ok := take(int(binary.LittleEndian.Uint32(lb)))
		if !ok {
			return fmt.Errorf("session meta truncated")
		}
		*dst = string(sb)
	}
	hb, ok := take(3)
	if !ok {
		return fmt.Errorf("session meta truncated")
	}
	rec.Opt.Mode = core.Mode(hb[0])
	rec.Opt.NoMarginals = hb[1]&optFlagNoMarginals != 0
	rec.Opt.RandomFK = hb[1]&optFlagRandomFK != 0
	rec.Opt.NoPartition = hb[1]&optFlagNoPartition != 0
	rec.Opt.Order = core.ColorOrder(hb[2])
	ints := make([]uint64, 4)
	for i := range ints {
		b, ok := take(8)
		if !ok {
			return fmt.Errorf("session meta truncated")
		}
		ints[i] = binary.LittleEndian.Uint64(b)
	}
	rec.Opt.Seed = int64(ints[0])
	rec.Opt.ILP.MaxNodes = int(int64(ints[1]))
	rec.Opt.ILP.MaxIters = int(int64(ints[2]))
	rec.Opt.ILP.TimeLimit = time.Duration(int64(ints[3]))
	if off != len(data) {
		return fmt.Errorf("session meta: %d trailing bytes", len(data)-off)
	}
	return nil
}

func encodeSessionRecord(rec *SessionRecord) ([]byte, error) {
	var cons bytes.Buffer
	if err := constraint.WriteConstraints(&cons, rec.CCs, rec.DCs); err != nil {
		return nil, err
	}
	secs := []section{
		{kind: secSessMeta, payload: encodeSessionMeta(rec)},
		{kind: secSessCons, payload: cons.Bytes()},
		{kind: secSessReserved}, // reserved, written empty
	}
	return buildFile(fileKindSession, secs), nil
}

func decodeSessionRecord(secs []section) (*SessionRecord, error) {
	rec := &SessionRecord{}
	meta, err := findSection(secs, secSessMeta)
	if err != nil {
		return nil, err
	}
	if err := decodeSessionMeta(meta, rec); err != nil {
		return nil, err
	}
	cons, err := findSection(secs, secSessCons)
	if err != nil {
		return nil, err
	}
	if rec.CCs, rec.DCs, err = constraint.ParseConstraints(bytes.NewReader(cons)); err != nil {
		return nil, fmt.Errorf("session constraints: %w", err)
	}
	// The reserved section's payload is ignored, but the section must be
	// present: it is the last one written, so its absence marks a record
	// cut short.
	if _, err := findSection(secs, secSessReserved); err != nil {
		return nil, err
	}
	return rec, nil
}

// PutSession persists the record under its base fingerprint, atomically
// replacing any previous record for the same base.
func (s *Store) PutSession(rec *SessionRecord) error {
	img, err := encodeSessionRecord(rec)
	if err != nil {
		return err
	}
	if err := atomicWriteFile(s.sessPath(rec.BaseFP), img); err != nil {
		return err
	}
	s.sessionsPut.Add(1)
	return nil
}

// LoadSession reads the session record for the given base fingerprint. A
// torn or corrupt record is quarantined and reported as an error; the
// caller falls back to a cold solve rather than ever serving wrong state.
func (s *Store) LoadSession(baseFP [32]byte) (*SessionRecord, error) {
	path := s.sessPath(baseFP)
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	secs, err := parseFile(data, fileKindSession)
	if err != nil {
		s.quarantine(path)
		return nil, err
	}
	rec, err := decodeSessionRecord(secs)
	if err != nil {
		s.quarantine(path)
		return nil, err
	}
	if rec.BaseFP != baseFP {
		s.quarantine(path)
		return nil, fmt.Errorf("store: session record fingerprint mismatch")
	}
	return rec, nil
}

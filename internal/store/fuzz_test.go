package store

import (
	"os"
	"reflect"
	"testing"
)

// FuzzDecodeSessionRecord fuzzes the metadata and constraint payloads of a
// session record below the CRC framing, which would reject nearly every
// mutation of a whole file. Decoding must never panic, and a record it
// accepts must survive its own encoder unchanged.
func FuzzDecodeSessionRecord(f *testing.F) {
	for _, path := range []string{fixtureNoPlan, fixturePlan} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		secs, err := parseFile(data, fileKindSession)
		if err != nil {
			f.Fatal(err)
		}
		meta, err := findSection(secs, secSessMeta)
		if err != nil {
			f.Fatal(err)
		}
		cons, err := findSection(secs, secSessCons)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(meta, cons)
	}
	f.Fuzz(func(t *testing.T, meta, cons []byte) {
		rec, err := decodeSessionRecord([]section{
			{kind: secSessMeta, payload: meta},
			{kind: secSessCons, payload: cons},
			{kind: secSessReserved},
		})
		if err != nil {
			return
		}
		img, err := encodeSessionRecord(rec)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		secs, err := parseFile(img, fileKindSession)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decodeSessionRecord(secs)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if back.BaseFP != rec.BaseFP || back.R1FP != rec.R1FP || back.R2FP != rec.R2FP ||
			back.K1 != rec.K1 || back.K2 != rec.K2 || back.FK != rec.FK ||
			!reflect.DeepEqual(back.Opt, rec.Opt) ||
			len(back.CCs) != len(rec.CCs) || len(back.DCs) != len(rec.DCs) {
			t.Fatalf("record changed across re-encoding: %+v -> %+v", rec, back)
		}
	})
}

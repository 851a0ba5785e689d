package service

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"repro/internal/cache"
	"repro/internal/census"
	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/table"
)

// pinCensusInput is the instance the store package's session-record
// fixtures describe (see internal/store/record_pin_test.go).
func pinCensusInput() (core.Input, core.Options) {
	d := census.Generate(census.Config{Households: 20, Areas: 6, Seed: 11})
	in := core.Input{
		R1: d.Persons, R2: d.Housing,
		K1: "pid", K2: "hid", FK: "hid",
		CCs: d.GoodCCs(8), DCs: census.AllDCs(),
	}
	return in, core.Options{Seed: 3, Mode: core.ModeHybrid}
}

// pinnedBodySHA256 is the SHA-256 of the canonical response body for
// pinCensusInput. The body is what the result cache stores and every node
// of a cluster serves, so it must not move when the solver's internals do.
const pinnedBodySHA256 = "84ce585ba03a18ed7b9e669379bcba7d278a2790bdf4e775d200375c66a0f8c8"

func pinBody(t *testing.T, in core.Input, opt core.Options, res *core.Result) string {
	t.Helper()
	key, err := core.Fingerprint(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	body, err := encodeSolveBody(hex.EncodeToString(key[:]), in, res)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

func TestSolveBodyHashPinned(t *testing.T) {
	in, opt := pinCensusInput()
	res, err := core.Solve(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := pinBody(t, in, opt, res); got != pinnedBodySHA256 {
		t.Fatalf("canonical body SHA-256 = %s, want %s", got, pinnedBodySHA256)
	}
}

// TestRestoreAcceptsPlanCarryingRecord: a session record that carries a
// plan blob and a structural fingerprint restores, and the restored
// session solves to the pinned canonical body.
func TestRestoreAcceptsPlanCarryingRecord(t *testing.T) {
	in, opt := pinCensusInput()
	base, err := core.Fingerprint(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*table.Relation{in.R1, in.R2} {
		if _, err := st.PutRelation(r); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile("../store/testdata/session_plan.sess")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Ingest(base, data); err != nil {
		t.Fatal(err)
	}
	c, err := cache.Open("", 4)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1, Cache: c, Store: st})
	defer s.Close()
	ss := s.restoreSession(base)
	if ss == nil {
		t.Fatal("restoreSession refused the record")
	}
	res, err := ss.sess.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if got := pinBody(t, in, opt, res); got != pinnedBodySHA256 {
		t.Fatalf("restored session body SHA-256 = %s, want %s", got, pinnedBodySHA256)
	}
}

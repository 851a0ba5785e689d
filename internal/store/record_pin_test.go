package store

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"repro/internal/core"
)

// The session-record fixtures under testdata describe one instance,
// pinInput, and were written by the encoder that still persisted a
// compiled classification plan:
//
//   - session_plan.sess carries a real plan blob in section 5 and a
//     nonzero structural fingerprint in the metadata.
//   - session_noplan.sess is the same record with no plan and a zero
//     structural fingerprint.
//
// They pin the on-disk layout in both directions, so nodes running either
// encoder keep exchanging session records (restores and replica pushes).
//
// pin_r1.snap is the snapshot file of pinInput's R1, so the columnar
// encoding — and with it every snapshot's content fingerprint — is pinned
// too.
const (
	fixturePlan   = "testdata/session_plan.sess"
	fixtureNoPlan = "testdata/session_noplan.sess"
	fixtureR1Snap = "testdata/pin_r1.snap"
)

func pinInput() (core.Input, core.Options) {
	return censusInput(20, 11), core.Options{Seed: 3, Mode: core.ModeHybrid}
}

// pinRecord stores the pin instance's relations in s and returns its
// session record.
func pinRecord(t *testing.T, s *Store) *SessionRecord {
	t.Helper()
	in, opt := pinInput()
	baseFP, err := core.Fingerprint(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	r1fp, err := s.PutRelation(in.R1)
	if err != nil {
		t.Fatal(err)
	}
	r2fp, err := s.PutRelation(in.R2)
	if err != nil {
		t.Fatal(err)
	}
	return &SessionRecord{
		BaseFP: baseFP, R1FP: r1fp, R2FP: r2fp,
		K1: in.K1, K2: in.K2, FK: in.FK,
		Opt: opt, CCs: in.CCs, DCs: in.DCs,
	}
}

// TestSessionRecordBytesMatchFixture: a record encoded today is byte for
// byte the fixture's encoding of the same plan-free record.
func TestSessionRecordBytesMatchFixture(t *testing.T) {
	rec := pinRecord(t, mustOpen(t, t.TempDir()))
	got, err := encodeSessionRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(fixtureNoPlan)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("session record encoding (%d bytes) differs from %s (%d bytes)", len(got), fixtureNoPlan, len(want))
	}
}

// TestLoadsSessionRecordWithPlanSection: a record that carries a plan blob
// and a structural fingerprint still loads, and its fields rebuild an
// instance whose content fingerprint is the record's base fingerprint.
func TestLoadsSessionRecordWithPlanSection(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	want := pinRecord(t, s)
	data, err := os.ReadFile(fixturePlan)
	if err != nil {
		t.Fatal(err)
	}
	noPlan, err := os.ReadFile(fixtureNoPlan)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) <= len(noPlan) {
		t.Fatalf("%s (%d bytes) carries no plan blob", fixturePlan, len(data))
	}
	if _, err := s.Ingest(want.BaseFP, data); err != nil {
		t.Fatal(err)
	}
	got, err := s.LoadSession(want.BaseFP)
	if err != nil {
		t.Fatal(err)
	}
	if got.BaseFP != want.BaseFP || got.R1FP != want.R1FP || got.R2FP != want.R2FP {
		t.Fatal("fingerprints differ from the fixture instance")
	}
	if got.K1 != want.K1 || got.K2 != want.K2 || got.FK != want.FK || !reflect.DeepEqual(got.Opt, want.Opt) {
		t.Fatalf("keys or options differ: %+v", got)
	}
	r1, err := s.LoadRelation(got.R1FP)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.LoadRelation(got.R2FP)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt := core.Input{R1: r1, R2: r2, K1: got.K1, K2: got.K2, FK: got.FK, CCs: got.CCs, DCs: got.DCs}
	fp, err := core.Fingerprint(rebuilt, got.Opt)
	if err != nil {
		t.Fatal(err)
	}
	if fp != want.BaseFP {
		t.Fatal("rebuilt instance fingerprint differs from the record's base fingerprint")
	}
}

// TestSnapshotBytesMatchFixture: today's encoder reproduces the pinned R1
// snapshot byte for byte, its fingerprint is the R1FP the session fixture
// references, and LoadRelation reads the fixture back cell for cell.
func TestSnapshotBytesMatchFixture(t *testing.T) {
	in, _ := pinInput()
	want, err := os.ReadFile(fixtureR1Snap)
	if err != nil {
		t.Fatal(err)
	}
	got, fp, err := encodeSnapshot(in.R1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshot encoding (%d bytes) differs from %s (%d bytes)", len(got), fixtureR1Snap, len(want))
	}
	sess, err := os.ReadFile(fixtureNoPlan)
	if err != nil {
		t.Fatal(err)
	}
	secs, err := parseFile(sess, fileKindSession)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := decodeSessionRecord(secs)
	if err != nil {
		t.Fatal(err)
	}
	if fp != rec.R1FP {
		t.Fatalf("snapshot fingerprint %x, session fixture references %x", fp, rec.R1FP)
	}
	s := mustOpen(t, t.TempDir())
	if _, err := s.Ingest(fp, want); err != nil {
		t.Fatal(err)
	}
	back, err := s.LoadRelation(fp)
	if err != nil {
		t.Fatal(err)
	}
	if !relationsEqual(back, in.R1) {
		t.Fatal("fixture snapshot loads into a different relation")
	}
}

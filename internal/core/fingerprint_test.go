package core

import (
	"testing"

	"repro/internal/constraint"
	"repro/internal/table"
)

func fpInstance() Input {
	r1 := table.NewRelation("R1", table.NewSchema(
		table.IntCol("pid"), table.StrCol("Rel"), table.IntCol("hid")))
	r1.MustAppend(table.Int(1), table.String("Owner"), table.Null())
	r1.MustAppend(table.Int(2), table.String("Spouse"), table.Null())
	r2 := table.NewRelation("R2", table.NewSchema(
		table.IntCol("hid"), table.StrCol("Area")))
	r2.MustAppend(table.Int(10), table.String("North"))
	r2.MustAppend(table.Int(11), table.String("South"))
	cc, err := constraint.ParseCC("cc north: count(Area = 'North') = 1")
	if err != nil {
		panic(err)
	}
	dc, err := constraint.ParseDC("dc one_owner: deny t1.Rel = 'Owner' & t2.Rel = 'Owner'")
	if err != nil {
		panic(err)
	}
	return Input{R1: r1, R2: r2, K1: "pid", K2: "hid", FK: "hid",
		CCs: []constraint.CC{cc}, DCs: []constraint.DC{dc}}
}

func TestFingerprintStable(t *testing.T) {
	a, err := Fingerprint(fpInstance(), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fingerprint(fpInstance(), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same instance hashed differently: %x vs %x", a, b)
	}
}

func TestFingerprintIgnoresWorkersAndNames(t *testing.T) {
	base, _ := Fingerprint(fpInstance(), Options{Seed: 7})
	par, _ := Fingerprint(fpInstance(), Options{Seed: 7, Workers: 8})
	if base != par {
		t.Errorf("Workers changed the key: output is byte-identical across pool sizes")
	}
	renamed := fpInstance()
	renamed.CCs[0].Name = "something_else"
	renamed.DCs[0].Name = ""
	rn, _ := Fingerprint(renamed, Options{Seed: 7})
	if base != rn {
		t.Errorf("constraint names changed the key; they never change the output")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base, _ := Fingerprint(fpInstance(), Options{Seed: 7})
	seen := map[[32]byte]string{base: "base"}
	check := func(label string, in Input, opt Options) {
		t.Helper()
		k, err := Fingerprint(in, opt)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("%s collides with %s", label, prev)
		}
		seen[k] = label
	}

	check("seed", fpInstance(), Options{Seed: 8})
	check("mode", fpInstance(), Options{Seed: 7, Mode: ModeILPOnly})
	check("random-fk", fpInstance(), Options{Seed: 7, RandomFK: true})

	row := fpInstance()
	row.R1.MustAppend(table.Int(3), table.String("Owner"), table.Null())
	check("extra R1 row", row, Options{Seed: 7})

	cell := fpInstance()
	cell.R2.Set(0, "Area", table.String("East"))
	check("changed R2 cell", cell, Options{Seed: 7})

	cons := fpInstance()
	cons.CCs[0].Target = 2
	check("changed CC target", cons, Options{Seed: 7})

	noDC := fpInstance()
	noDC.DCs = nil
	check("dropped DC", noDC, Options{Seed: 7})

	keys := fpInstance()
	keys.FK = "pid"
	check("different FK column", keys, Options{Seed: 7})
}

func TestFingerprintNilRelation(t *testing.T) {
	in := fpInstance()
	in.R2 = nil
	if _, err := Fingerprint(in, Options{}); err == nil {
		t.Fatal("want error for nil relation")
	}
}

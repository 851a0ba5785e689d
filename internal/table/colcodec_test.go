package table

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// encodeToBytes is the test-side convenience wrapper.
func encodeToBytes(t *testing.T, c *Columnar) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := EncodeColumnar(c, &buf)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("encode reported %d bytes, wrote %d", n, buf.Len())
	}
	if n%8 != 0 {
		t.Fatalf("encoded length %d not 8-aligned", n)
	}
	return buf.Bytes()
}

// columnarsEquivalent compares two snapshots structurally: schema, rows,
// and per-column payloads including dictionaries, null masks, and posting
// lists.
func columnarsEquivalent(a, b *Columnar) error {
	if !a.schema.Equal(b.schema) {
		return fmt.Errorf("schemas differ")
	}
	if a.nrows != b.nrows {
		return fmt.Errorf("nrows %d vs %d", a.nrows, b.nrows)
	}
	for j := range a.cols {
		ca, cb := a.cols[j], b.cols[j]
		if (ca == nil) != (cb == nil) {
			return fmt.Errorf("col %d: capture mismatch", j)
		}
		if ca == nil {
			continue
		}
		if !reflect.DeepEqual(ca.raw, cb.raw) {
			return fmt.Errorf("col %d: raw mismatch", j)
		}
		if ca.raw != nil {
			continue
		}
		if !reflect.DeepEqual(ca.vals, cb.vals) {
			return fmt.Errorf("col %d: vals mismatch", j)
		}
		if !reflect.DeepEqual(ca.null, cb.null) {
			return fmt.Errorf("col %d: null mismatch", j)
		}
		if (ca.dict == nil) != (cb.dict == nil) {
			return fmt.Errorf("col %d: dict presence mismatch", j)
		}
		if ca.dict != nil && !reflect.DeepEqual(ca.dict.strs, cb.dict.strs) {
			return fmt.Errorf("col %d: dict mismatch", j)
		}
		if len(ca.post) != len(cb.post) {
			return fmt.Errorf("col %d: posting count mismatch", j)
		}
		for v, la := range ca.post {
			if !reflect.DeepEqual(la, cb.post[v]) {
				return fmt.Errorf("col %d: posting list for %d mismatch", j, v)
			}
		}
	}
	return nil
}

func TestColumnarCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 200; iter++ {
		r := randomRelation(rng, iter%3 == 0)
		c := NewColumnar(r)
		got, err := DecodeColumnar(encodeToBytes(t, c))
		if err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		if err := columnarsEquivalent(c, got); err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
	}
}

// TestColumnarCodecCanonical: the same snapshot must always encode to the
// same bytes — the durable store names files by content hash.
func TestColumnarCodecCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 50; iter++ {
		r := randomRelation(rng, false)
		a := encodeToBytes(t, NewColumnar(r))
		b := encodeToBytes(t, NewColumnar(r.Clone()))
		if !bytes.Equal(a, b) {
			t.Fatalf("iter %d: encoding not canonical", iter)
		}
	}
}

// TestColumnarCodecPartialCapture covers snapshots that captured only a
// subset of columns: the absent columns must round-trip as absent.
func TestColumnarCodecPartialCapture(t *testing.T) {
	r := NewRelation("p", NewSchema(IntCol("a"), StrCol("b"), IntCol("c")))
	r.MustAppend(Int(1), String("x"), Int(10))
	r.MustAppend(Int(2), String("y"), Int(20))
	c := NewColumnar(r, "a", "c")
	enc := encodeToBytes(t, c)
	got, err := DecodeColumnar(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := columnarsEquivalent(c, got); err != nil {
		t.Fatal(err)
	}
	if got.cols[1] != nil {
		t.Fatal("uncaptured column decoded as captured")
	}
	if _, err := got.Relation("p"); err == nil {
		t.Fatal("Relation on partial snapshot should fail")
	}
}

// TestColumnarRelationLossless: a full-column snapshot decoded from bytes
// must materialize back into a cell-for-cell identical relation.
func TestColumnarRelationLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 100; iter++ {
		r := randomRelation(rng, iter%2 == 0)
		enc := encodeToBytes(t, NewColumnar(r))
		got, err := DecodeColumnar(enc)
		if err != nil {
			t.Fatalf("iter %d: decode: %v", iter, err)
		}
		back, err := got.Relation(r.Name)
		if err != nil {
			t.Fatalf("iter %d: relation: %v", iter, err)
		}
		if back.Name != r.Name || !back.Schema().Equal(r.Schema()) || back.Len() != r.Len() {
			t.Fatalf("iter %d: shape mismatch", iter)
		}
		for i := 0; i < r.Len(); i++ {
			for j := 0; j < r.Schema().Len(); j++ {
				if back.At(i, j) != r.At(i, j) {
					t.Fatalf("iter %d: cell (%d,%d): got %v want %v", iter, i, j, back.At(i, j), r.At(i, j))
				}
			}
		}
	}
}

// TestColumnarDecodeRejectsCorruption: every truncation of a valid blob,
// and a byte flip at every offset, must fail cleanly — never decode into a
// plausible-but-wrong snapshot silently. (Byte flips in payload regions can
// legitimately decode — the store layer's CRC catches those — but flips in
// structural regions must not crash.)
func TestColumnarDecodeRejectsCorruption(t *testing.T) {
	r := NewRelation("g", NewSchema(IntCol("a"), StrCol("b")))
	for i := 0; i < 20; i++ {
		if i%5 == 0 {
			r.MustAppend(Null(), String(string(rune('a'+i%3))))
		} else {
			r.MustAppend(Int(int64(i%4)), String(string(rune('a'+i%3))))
		}
	}
	enc := encodeToBytes(t, NewColumnar(r))
	for cut := 0; cut < len(enc); cut++ {
		if _, err := DecodeColumnar(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	for off := range enc {
		mut := bytes.Clone(enc)
		mut[off] ^= 0xff
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("byte flip at %d panicked: %v", off, p)
				}
			}()
			if got, err := DecodeColumnar(mut); err == nil {
				got.Relation("g")
			}
		}()
	}
	if _, err := DecodeColumnar(append(bytes.Clone(enc), 0, 0, 0, 0, 0, 0, 0, 0)); err == nil {
		t.Fatal("trailing bytes decoded without error")
	}
}

func TestColumnarCodecEmpty(t *testing.T) {
	r := NewRelation("e", NewSchema(IntCol("a"), StrCol("b")))
	enc := encodeToBytes(t, NewColumnar(r))
	got, err := DecodeColumnar(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	back, err := got.Relation("e")
	if err != nil {
		t.Fatalf("relation: %v", err)
	}
	if back.Len() != 0 {
		t.Fatalf("got %d rows, want 0", back.Len())
	}
}

// TestColumnarDecodeRejectsDictCodeOutOfRange: a dictionary column whose
// non-null codes fall outside the dictionary must fail to decode, not
// panic later in Relation. Codes under null rows are not looked up.
func TestColumnarDecodeRejectsDictCodeOutOfRange(t *testing.T) {
	r := NewRelation("d", NewSchema(StrCol("s")))
	r.MustAppend(String("a"))
	r.MustAppend(String("b"))
	r.MustAppend(Null())
	for _, bad := range []int64{2, 99, -1} {
		c := NewColumnar(r)
		c.cols[0].vals[1] = bad
		if _, err := DecodeColumnar(encodeToBytes(t, c)); err == nil {
			t.Fatalf("dictionary code %d decoded without error", bad)
		}
	}
	c := NewColumnar(r)
	c.cols[0].vals[2] = 99 // under the null row
	got, err := DecodeColumnar(encodeToBytes(t, c))
	if err != nil {
		t.Fatalf("code under a null row rejected: %v", err)
	}
	if _, err := got.Relation("d"); err != nil {
		t.Fatal(err)
	}
}

// FuzzDecodeColumnar: no input may make DecodeColumnar, or Relation on
// what it accepts, panic.
func FuzzDecodeColumnar(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4; i++ {
		var buf bytes.Buffer
		if _, err := EncodeColumnar(NewColumnar(randomRelation(rng, i%2 == 0)), &buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := DecodeColumnar(data)
		if err != nil {
			return
		}
		c.Relation("f")
	})
}

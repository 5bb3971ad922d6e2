package synopsis

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dwmaxerr/internal/wavelet"
)

func TestCodecRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(10))
		s := New(n)
		for i := 0; i < n; i++ {
			if rng.Intn(4) == 0 {
				s.Terms = append(s.Terms, Coefficient{Index: i, Value: rng.NormFloat64() * 1000})
			}
		}
		s.Normalize()
		var buf bytes.Buffer
		written, err := s.WriteTo(&buf)
		if err != nil {
			return false
		}
		if int(written) != buf.Len() || buf.Len() != s.EncodedSize() {
			return false
		}
		back, err := Read(&buf)
		if err != nil {
			return false
		}
		return back.N == s.N && reflect.DeepEqual(back.Terms, s.Terms)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestCodecUnsortedTermsAreNormalized(t *testing.T) {
	s := New(8)
	s.Terms = []Coefficient{{5, 1}, {2, 3}, {7, -1}}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Size() != 3 || back.Terms[0].Index != 2 {
		t.Fatalf("terms = %+v", back.Terms)
	}
}

func TestCodecRejectsCorruptInput(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := Read(bytes.NewReader([]byte("DWS1\x00"))); err == nil {
		t.Fatal("truncated header accepted")
	}
	// Valid header claiming more terms than exist.
	var buf bytes.Buffer
	s := New(8)
	s.Terms = []Coefficient{{1, 2}}
	s.WriteTo(&buf)
	raw := buf.Bytes()
	raw[12] = 200 // inflate the term count
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Fatal("inflated term count accepted")
	}
	// Headers and index deltas no WriteTo could produce: errors, never
	// terms outside [0, n).
	for name, raw := range map[string][]byte{
		"delta wraps below zero": encodeRaw(8, 1, 1<<64-5),
		"delta past n-1":         encodeRaw(8, 1, 8),
		"second delta past n-1":  encodeRaw(8, 2, 3, 5),
		"repeated index":         encodeRaw(8, 2, 3, 0),
		"n not a power of two":   encodeRaw(12, 1, 3),
		"n zero":                 encodeRaw(0, 0),
		"n above the cap":        encodeRaw(maxN*2, 0),
	} {
		if s, err := Read(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: accepted as %+v", name, s)
		}
	}
	if s, err := Read(bytes.NewReader(encodeRaw(8, 2, 0, 7))); err != nil || s.Terms[1].Index != 7 {
		t.Fatalf("indices 0 and 7 of n=8: %+v, %v", s, err)
	}
}

// encodeRaw writes a synopsis file with the given header and index
// deltas (each term's value is 1), bypassing WriteTo's checks.
func encodeRaw(n, terms uint64, deltas ...uint64) []byte {
	b := append([]byte(nil), codecMagic[:]...)
	b = binary.LittleEndian.AppendUint64(b, n)
	b = binary.LittleEndian.AppendUint64(b, terms)
	for _, d := range deltas {
		b = binary.AppendUvarint(b, d)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(1))
	}
	return b
}

// FuzzRead: Read never panics, everything it accepts is a well-formed
// synopsis (n a power of two within the cap, indices strictly increasing
// inside [0, n)), and it survives a write/read round trip unchanged. The
// committed corpus (testdata/fuzz/FuzzRead) holds the wrapped-delta file
// that once decoded to index -5.
func FuzzRead(f *testing.F) {
	valid := New(16)
	valid.Terms = []Coefficient{{0, 2.5}, {3, -1}, {15, math.Inf(1)}}
	var buf bytes.Buffer
	valid.WriteTo(&buf)
	f.Add(buf.Bytes())
	f.Add(encodeRaw(8, 1, 1<<64-5))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if s.N <= 0 || uint64(s.N) > maxN || !wavelet.IsPowerOfTwo(s.N) {
			t.Fatalf("accepted n=%d", s.N)
		}
		for i, term := range s.Terms {
			if term.Index < 0 || term.Index >= s.N || (i > 0 && term.Index <= s.Terms[i-1].Index) {
				t.Fatalf("term %d index %d out of order or range (n=%d)", i, term.Index, s.N)
			}
		}
		if s.N <= 1<<12 {
			s.Dense()
		}
		var first, second bytes.Buffer
		if _, err := s.WriteTo(&first); err != nil {
			t.Fatal(err)
		}
		back, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-reading own encoding: %v", err)
		}
		if _, err := back.WriteTo(&second); err != nil {
			t.Fatal(err)
		}
		if back.N != s.N || !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the synopsis: %+v -> %+v", s, back)
		}
	})
}

func TestCodecEmptySynopsis(t *testing.T) {
	s := New(16)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil || back.N != 16 || back.Size() != 0 {
		t.Fatalf("back=%+v err=%v", back, err)
	}
}

func TestBoundedIntervals(t *testing.T) {
	data := []float64{5, 5, 0, 26, 1, 3, 14, 2}
	w, _ := wavelet.Transform(data)
	s := FromIndices(w, []int{0, 5, 3})
	eps := MaxAbsError(s, data)
	ev := NewEvaluator(s)

	for k := range data {
		b := ev.PointBound(k, eps)
		if !b.Contains(data[k]) {
			t.Fatalf("point %d: %v does not contain %g", k, b, data[k])
		}
	}
	for _, q := range [][2]int{{0, 7}, {2, 5}, {3, 3}} {
		var exact float64
		for i := q[0]; i <= q[1]; i++ {
			exact += data[i]
		}
		b := ev.RangeSumBound(q[0], q[1], eps)
		if !b.Contains(exact) {
			t.Fatalf("range %v: %v does not contain %g", q, b, exact)
		}
		avg := ev.RangeAvgBound(q[0], q[1], eps)
		if !avg.Contains(exact / float64(q[1]-q[0]+1)) {
			t.Fatalf("avg %v: %v does not contain %g", q, avg, exact/float64(q[1]-q[0]+1))
		}
	}
	b := Bounded{Approx: 10, Radius: 2}
	if b.Lo() != 8 || b.Hi() != 12 || b.String() != "10 ± 2" {
		t.Fatalf("bounded accessors: %v [%g,%g]", b, b.Lo(), b.Hi())
	}
}

func TestPrefixSumsMatchRangeSums(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 64
	w := make([]float64, n)
	var idx []int
	for i := range w {
		w[i] = rng.NormFloat64() * 10
		if rng.Intn(2) == 0 {
			idx = append(idx, i)
		}
	}
	s := FromIndices(w, idx)
	ev := NewEvaluator(s)
	p := ev.PrefixSums()
	rec := s.ReconstructAll()
	for trial := 0; trial < 50; trial++ {
		l := rng.Intn(n)
		h := l + rng.Intn(n-l)
		want := ev.RangeSum(l, h)
		got := p[h]
		if l > 0 {
			got -= p[l-1]
		}
		if math.Abs(got-want) > 1e-7*(1+math.Abs(want)) {
			t.Fatalf("prefix sum (%d,%d): %g vs %g", l, h, got, want)
		}
		_ = rec
	}
	if ev.N() != n {
		t.Fatalf("N = %d", ev.N())
	}
}

func TestBatchPointsMatchesPoint(t *testing.T) {
	data := []float64{5, 5, 0, 26, 1, 3, 14, 2}
	w, _ := wavelet.Transform(data)
	s := FromIndices(w, []int{0, 1, 2})
	ev := NewEvaluator(s)
	ks := []int{0, 3, 7, 3}
	got := ev.BatchPoints(ks)
	for i, k := range ks {
		if got[i] != ev.Point(k) {
			t.Fatalf("batch point %d mismatch", k)
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	s := New(16)
	s.Terms = []Coefficient{{0, 7}, {3, -2.5}, {9, 1e-3}}
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Terms, s.Terms) {
		t.Fatalf("got %+v want %+v", back.Terms, s.Terms)
	}
}

func TestReadCSVValidation(t *testing.T) {
	if _, err := ReadCSV(bytes.NewBufferString("1,2\n"), 0); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := ReadCSV(bytes.NewBufferString("nope\n"), 8); err == nil {
		t.Fatal("missing comma accepted")
	}
	if _, err := ReadCSV(bytes.NewBufferString("x,1\n"), 8); err == nil {
		t.Fatal("bad index accepted")
	}
	if _, err := ReadCSV(bytes.NewBufferString("1,x\n"), 8); err == nil {
		t.Fatal("bad value accepted")
	}
	if _, err := ReadCSV(bytes.NewBufferString("9,1\n"), 8); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	s, err := ReadCSV(bytes.NewBufferString("\n2, 4.5 \n\n"), 8)
	if err != nil || s.Size() != 1 || s.Terms[0].Value != 4.5 {
		t.Fatalf("blank-tolerant parse failed: %+v %v", s, err)
	}
}

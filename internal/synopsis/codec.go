package synopsis

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary serialization for synopses: a compact format for persisting and
// shipping synopses (e.g. from a build cluster to query frontends).
//
// Layout (little-endian):
//
//	magic   [4]byte  "DWS1"
//	n       uint64   data vector length
//	terms   uint64   number of retained coefficients
//	then per term: index uvarint (delta-encoded, ascending), value float64
//
// Delta-encoded indices keep typical synopses (dense in the low indices)
// small.

var codecMagic = [4]byte{'D', 'W', 'S', '1'}

// maxN caps the data vector length Read accepts: 2^32 values, 32 GiB
// dense. Larger headers are corrupt or hostile, and a reader would try to
// reconstruct them.
const maxN = 1 << 32

// WriteTo serializes the synopsis. Terms must be normalized (sorted by
// index); Write normalizes a copy if needed.
func (s *Synopsis) WriteTo(w io.Writer) (int64, error) {
	terms := s.Terms
	for i := 1; i < len(terms); i++ {
		if terms[i].Index <= terms[i-1].Index {
			cp := &Synopsis{N: s.N, Terms: append([]Coefficient(nil), s.Terms...)}
			cp.Normalize()
			terms = cp.Terms
			break
		}
	}
	bw := bufio.NewWriter(w)
	var written int64
	count := func(n int, err error) error {
		written += int64(n)
		return err
	}
	if err := count(bw.Write(codecMagic[:])); err != nil {
		return written, err
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(s.N))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(terms)))
	if err := count(bw.Write(hdr[:])); err != nil {
		return written, err
	}
	var buf [binary.MaxVarintLen64 + 8]byte
	prev := 0
	for _, t := range terms {
		k := binary.PutUvarint(buf[:], uint64(t.Index-prev))
		prev = t.Index
		binary.LittleEndian.PutUint64(buf[k:], math.Float64bits(t.Value))
		if err := count(bw.Write(buf[:k+8])); err != nil {
			return written, err
		}
	}
	return written, bw.Flush()
}

// Read deserializes a synopsis written by WriteTo. It rejects input no
// WriteTo could produce: n not a power of two or above 2^32, more terms
// than n, or indices that do not increase strictly inside [0, n).
func Read(r io.Reader) (*Synopsis, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("synopsis: reading magic: %w", err)
	}
	if magic != codecMagic {
		return nil, fmt.Errorf("synopsis: bad magic %q", magic[:])
	}
	var hdr [16]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("synopsis: reading header: %w", err)
	}
	n := binary.LittleEndian.Uint64(hdr[0:])
	terms := binary.LittleEndian.Uint64(hdr[8:])
	if n == 0 || n > maxN || n&(n-1) != 0 || terms > n {
		return nil, fmt.Errorf("synopsis: implausible header n=%d terms=%d", n, terms)
	}
	s := New(int(n))
	var prev uint64 // index of the previous term
	var valBuf [8]byte
	for i := uint64(0); i < terms; i++ {
		delta, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("synopsis: term %d index: %w", i, err)
		}
		// Indices increase strictly: every delta after the first is
		// positive, and none may step past n-1.
		if (i > 0 && delta == 0) || delta > n-1-prev {
			return nil, fmt.Errorf("synopsis: term %d index delta %d out of range after index %d (n=%d)", i, delta, prev, n)
		}
		idx := prev + delta
		prev = idx
		if _, err := io.ReadFull(br, valBuf[:]); err != nil {
			return nil, fmt.Errorf("synopsis: term %d value: %w", i, err)
		}
		s.Terms = append(s.Terms, Coefficient{
			Index: int(idx),
			Value: math.Float64frombits(binary.LittleEndian.Uint64(valBuf[:])),
		})
	}
	return s, nil
}

// EncodedSize returns the exact byte length WriteTo would produce.
func (s *Synopsis) EncodedSize() int {
	size := 4 + 16
	prev := 0
	for _, t := range s.Terms {
		size += uvarintLen(uint64(t.Index-prev)) + 8
		prev = t.Index
	}
	return size
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

package matrix

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func binaryTestMatrix(t *testing.T) *Matrix {
	t.Helper()
	m := New(4, 3)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			m.Set(i, j, float64(i*10+j)-5.5)
		}
	}
	m.SetMissing(1, 2)
	m.SetMissing(3, 0)
	return m
}

func TestBinaryRoundTrip(t *testing.T) {
	m := binaryTestMatrix(t)
	data := EncodeBinary(m)
	got, err := DecodeBinary(data, 0)
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	if got.Rows() != m.Rows() || got.Cols() != m.Cols() {
		t.Fatalf("decoded shape %dx%d, want %dx%d", got.Rows(), got.Cols(), m.Rows(), m.Cols())
	}
	for i := 0; i < m.Rows(); i++ {
		for j := 0; j < m.Cols(); j++ {
			if got.IsSpecified(i, j) != m.IsSpecified(i, j) {
				t.Fatalf("entry (%d,%d) specified mismatch", i, j)
			}
			if m.IsSpecified(i, j) && got.Get(i, j) != m.Get(i, j) {
				t.Fatalf("entry (%d,%d) = %v, want %v", i, j, got.Get(i, j), m.Get(i, j))
			}
		}
	}
}

func TestBinaryEncodingIsCanonical(t *testing.T) {
	m := binaryTestMatrix(t)
	// A decoded copy must re-encode to identical bytes even though its
	// missing entries may carry a different NaN payload internally.
	data := EncodeBinary(m)
	got, err := DecodeBinary(data, 0)
	if err != nil {
		t.Fatalf("DecodeBinary: %v", err)
	}
	// Poke a non-canonical NaN into the copy's missing slot.
	got.data[1*3+2] = math.Float64frombits(0x7FF8_0000_0000_BEEF)
	if !bytes.Equal(EncodeBinary(got), data) {
		t.Fatalf("re-encoding a decoded matrix changed the bytes")
	}
}

func TestBinaryRoundTripEmpty(t *testing.T) {
	for _, shape := range [][2]int{{0, 0}, {0, 5}, {3, 0}} {
		m := New(shape[0], shape[1])
		got, err := DecodeBinary(EncodeBinary(m), 0)
		if err != nil {
			t.Fatalf("%dx%d: DecodeBinary: %v", shape[0], shape[1], err)
		}
		if got.Rows() != shape[0] || got.Cols() != shape[1] {
			t.Fatalf("decoded shape %dx%d, want %dx%d", got.Rows(), got.Cols(), shape[0], shape[1])
		}
	}
}

// TestBinaryRoundTripProperty checks the codec over random shapes and
// fill rates, including the degenerate ones: every specified entry
// must come back with the same Float64bits (so ±0 survive), every
// missing one as the canonical NaN whatever payload it carried, the
// body must have exactly the v2 size, and re-encoding the decoded
// matrix must reproduce the bytes.
func TestBinaryRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nans := []uint64{
		math.Float64bits(math.NaN()),
		0x7FF8_0000_0000_BEEF, // quiet, non-canonical payload
		0x7FF0_0000_0000_0001, // signalling
		0xFFF8_0000_0000_0000, // negative quiet
	}
	type shape struct {
		rows, cols int
		fill       float64 // share of entries specified
	}
	shapes := []shape{
		{1, 1, 1}, {1, 1, 0}, {1, 97, 0.5}, {97, 1, 0.5},
		{8, 8, 1}, {8, 8, 0}, {5, 13, 0.3}, {3, 64, 1}, {65, 1, 0.9},
	}
	for i := 0; i < 40; i++ {
		shapes = append(shapes, shape{1 + rng.Intn(70), 1 + rng.Intn(70), rng.Float64()})
	}
	canonical := math.Float64bits(math.NaN())
	for _, sh := range shapes {
		m := New(sh.rows, sh.cols)
		nnz := 0
		for k := range m.data {
			switch r := rng.Float64(); {
			case r >= sh.fill:
				m.data[k] = math.Float64frombits(nans[rng.Intn(len(nans))])
				continue
			case r < sh.fill/8:
				m.data[k] = math.Copysign(0, float64(rng.Intn(2)*2-1))
			default:
				m.data[k] = rng.NormFloat64() * 100
			}
			nnz++
		}
		data := EncodeBinary(m)
		words := (sh.rows*sh.cols + 63) / 64
		if want := binaryHeaderLen + binaryDimsLen + 8*words + 8*nnz + sha256.Size; len(data) != want {
			t.Fatalf("%dx%d nnz %d: encoded %d bytes, want %d", sh.rows, sh.cols, nnz, len(data), want)
		}
		got, err := DecodeBinary(data, 0)
		if err != nil {
			t.Fatalf("%dx%d: DecodeBinary: %v", sh.rows, sh.cols, err)
		}
		if got.Rows() != sh.rows || got.Cols() != sh.cols {
			t.Fatalf("decoded shape %dx%d, want %dx%d", got.Rows(), got.Cols(), sh.rows, sh.cols)
		}
		for k, v := range m.data {
			want := math.Float64bits(v)
			if v != v {
				want = canonical
			}
			if g := math.Float64bits(got.data[k]); g != want {
				t.Fatalf("%dx%d entry %d: bits %#x, want %#x", sh.rows, sh.cols, k, g, want)
			}
		}
		if !bytes.Equal(EncodeBinary(got), data) {
			t.Fatalf("%dx%d: re-encoding the decoded matrix changed the bytes", sh.rows, sh.cols)
		}
	}
}

// sealed frames a hand-built DCMX body: the given version and a
// payload of little-endian uint64 words (for v2: rows, cols, nnz, the
// bitmap, then the packed value bits), with a valid checksum, so
// corruption cases reach the payload checks.
func sealed(version uint32, words ...uint64) []byte {
	payload := make([]byte, 0, 8*len(words))
	for _, w := range words {
		payload = binary.LittleEndian.AppendUint64(payload, w)
	}
	out := append([]byte(binaryMagic), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(out[4:8], version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	sum := sha256.Sum256(payload)
	return append(out, sum[:]...)
}

func TestDecodeBinaryRejectsCorruption(t *testing.T) {
	real := EncodeBinary(binaryTestMatrix(t))
	f := math.Float64bits

	badVersion := append([]byte(nil), real...)
	binary.LittleEndian.PutUint32(badVersion[4:8], 99)
	badSum := append([]byte(nil), real...)
	badSum[len(badSum)-1] ^= 0x01
	flippedCell := append([]byte(nil), real...)
	flippedCell[len(flippedCell)-sha256.Size-3] ^= 0x40 // corrupt a value byte, checksum now stale
	hugeLen := append([]byte(nil), real...)
	binary.LittleEndian.PutUint64(hugeLen[8:16], 1<<60)
	hugeDims := append([]byte(nil), real...)
	binary.LittleEndian.PutUint64(hugeDims[binaryHeaderLen:], 1<<40) // rows — checksum also stale
	inf := binaryTestMatrix(t)
	inf.data[0] = math.Inf(1)
	withInf := EncodeBinary(inf)

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "bad magic"},
		{"magic only", []byte("DCMX"), "bad magic"},
		{"bad magic", append([]byte("JUNK"), real[4:]...), "bad magic"},
		{"truncated header", real[:15], "bad magic"},
		{"truncated payload", real[:len(real)-40], "truncated"},
		{"trailing bytes", append(append([]byte(nil), real...), 0), "trailing"},
		{"bad version", badVersion, "version 99"},
		{"v1 body", sealed(1, 1, 2, f(1), f(2)), "version 1"},
		{"checksum flip", badSum, "checksum"},
		{"flipped cell", flippedCell, "checksum"},
		{"huge length", hugeLen, "truncated"},
		{"huge dimensions", hugeDims, "checksum"},
		{"huge dimensions (resealed)", sealed(2, 1<<40, 1, 0, 0), "implausible"},
		{"short payload", sealed(2, 1, 1), "too short"},
		{"infinite entry", withInf, "not finite"},
		{"packed -Inf", sealed(2, 1, 2, 2, 0b11, f(1), f(math.Inf(-1))), "not finite"},
		{"packed NaN", sealed(2, 1, 2, 2, 0b11, f(math.NaN()), f(1)), "not finite"},
		{"nnz past rows*cols", sealed(2, 1, 2, 3, 0b11, f(1), f(2), f(3)), "specified entries in 1x2"},
		{"one value word short", sealed(2, 1, 2, 2, 0b11, f(1)), "needs"},
		{"one value word long", sealed(2, 1, 2, 1, 0b01, f(1), f(2)), "needs"},
		{"bitmap word missing", sealed(2, 1, 65, 0, 0), "needs"},
		{"bitmap word extra", sealed(2, 1, 64, 0, 0, 0), "needs"},
		{"stray bit", sealed(2, 2, 3, 1, 1<<6, f(1)), "past entry 6"},
		{"stray top bit", sealed(2, 1, 65, 1, 0, 1<<63, f(1)), "past entry 65"},
		{"popcount below nnz", sealed(2, 2, 3, 3, 0b11, f(1), f(2), f(3)), "marks 2"},
		{"popcount above nnz", sealed(2, 2, 3, 1, 0b11, f(1)), "marks 2"},
	}
	for _, tc := range cases {
		_, err := DecodeBinary(tc.data, 0)
		if err == nil {
			t.Errorf("%s: decode succeeded, want error containing %q", tc.name, tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want it to contain %q", tc.name, err, tc.want)
		}
	}
	// Mismatched dimensions with a recomputed checksum must fail on the
	// payload's own structure, not the checksum. In v2 a dims change
	// that keeps the bitmap word count and leaves no bit past the new
	// shape is a different valid matrix, so the two rejections left are
	// a word-count change (size) and a shrink that strands set bits.
	grown := append([]byte(nil), real...)
	binary.LittleEndian.PutUint64(grown[binaryHeaderLen:], 22) // 22x3 = 66 entries: 2 bitmap words, not 1
	if _, err := DecodeBinary(reseal(grown), 0); err == nil || !strings.Contains(err.Error(), "needs") {
		t.Errorf("wrong dims, more words (resealed): err = %v, want payload-size mismatch", err)
	}
	shrunk := append([]byte(nil), real...)
	binary.LittleEndian.PutUint64(shrunk[binaryHeaderLen:], 5)   // 5x2 = 10 entries, nnz 10 fits,
	binary.LittleEndian.PutUint64(shrunk[binaryHeaderLen+8:], 2) // but bits 10 and 11 are set
	if _, err := DecodeBinary(reseal(shrunk), 0); err == nil || !strings.Contains(err.Error(), "past entry 10") {
		t.Errorf("wrong dims, stray bits (resealed): err = %v, want stray-bit error", err)
	}
}

// reseal recomputes the trailing checksum so corruption tests can
// target payload semantics instead of tripping the integrity check.
func reseal(data []byte) []byte {
	out := append([]byte(nil), data...)
	n := binary.LittleEndian.Uint64(out[8:16])
	sum := sha256.Sum256(out[binaryHeaderLen : binaryHeaderLen+int(n)])
	copy(out[binaryHeaderLen+int(n):], sum[:])
	return out
}

func TestDecodeBinaryEnforcesMaxEntriesBeforeAllocating(t *testing.T) {
	m := binaryTestMatrix(t) // 4x3 = 12 entries
	data := EncodeBinary(m)
	if _, err := DecodeBinary(data, 12); err != nil {
		t.Fatalf("decode at exactly the cap: %v", err)
	}
	_, err := DecodeBinary(data, 11)
	if err == nil || !strings.Contains(err.Error(), "capped") {
		t.Fatalf("decode over the cap: err = %v, want cap error", err)
	}
}

func TestWriteReadBinary(t *testing.T) {
	m := binaryTestMatrix(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, m); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	got, err := ReadBinary(&buf, 0)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if got.Rows() != m.Rows() || got.Cols() != m.Cols() {
		t.Fatalf("round trip shape %dx%d, want %dx%d", got.Rows(), got.Cols(), m.Rows(), m.Cols())
	}
}

// FuzzBinaryMatrixDecode hardens the untrusted binary-ingest path the
// same way FuzzLoadCheckpoint hardens DCKP: arbitrary bytes must
// decode or error, never panic, and a successful decode must uphold
// the matrix invariants and re-encode canonically.
func FuzzBinaryMatrixDecode(f *testing.F) {
	m := New(3, 2)
	m.Set(0, 0, 1.5)
	m.Set(0, 1, -2)
	m.Set(1, 0, 3.25)
	m.Set(2, 1, 0)
	real := EncodeBinary(m)

	f.Add(real)
	f.Add([]byte{})
	f.Add([]byte("DCMX"))
	f.Add(real[:15])           // truncated header
	f.Add(real[:len(real)-20]) // truncated checksum
	f.Add(append([]byte("JUNK"), real[4:]...))
	badVersion := append([]byte(nil), real...)
	binary.LittleEndian.PutUint32(badVersion[4:8], 99)
	f.Add(badVersion)
	badSum := append([]byte(nil), real...)
	badSum[len(badSum)-1] ^= 0xFF
	f.Add(badSum)
	hugeLen := append([]byte(nil), real...)
	binary.LittleEndian.PutUint64(hugeLen[8:16], 1<<60)
	f.Add(hugeLen)
	hugeDims := append([]byte(nil), real...)
	binary.LittleEndian.PutUint64(hugeDims[binaryHeaderLen:], 1<<62)
	f.Add(reseal(hugeDims)) // oversized section with a valid checksum

	// Valid v2 bodies of each fill pattern, so mutations start from
	// the bitmap/packed-value structure rather than from scratch.
	complete := New(3, 5)
	for k := range complete.data {
		complete.data[k] = float64(k) - 7
	}
	complete.data[4] = math.Copysign(0, -1)
	f.Add(EncodeBinary(complete))
	f.Add(EncodeBinary(New(4, 4))) // all missing: a zero bitmap, no values
	straddle := New(5, 13)         // 65 entries: the last word holds one
	for _, k := range []int{0, 62, 63, 64} {
		straddle.data[k] = float64(k)
	}
	f.Add(EncodeBinary(straddle))
	f.Add(sealed(2, 5, 13, 5, 1|1<<62|1<<63, 1|1<<1, 0, 0, 0, 0, 0)) // stray bit past entry 65
	f.Add(sealed(1, 1, 2, math.Float64bits(1), math.Float64bits(2))) // a v1 body

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeBinary(data, 1<<20)
		if err != nil {
			return // rejected input: fine, as long as it didn't panic
		}
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				if m.IsSpecified(i, j) && math.IsInf(m.Get(i, j), 0) {
					t.Fatalf("entry (%d,%d) decoded non-finite value", i, j)
				}
			}
		}
		// A body that decodes is already canonical (missingness is the
		// bitmap's alone, values are never NaN), so decode → encode
		// must reproduce it byte for byte and decode again to the same
		// bits, entry for entry.
		enc := EncodeBinary(m)
		if !bytes.Equal(enc, data) {
			t.Fatalf("re-encoding an accepted body changed its bytes")
		}
		m2, err := DecodeBinary(enc, 1<<20)
		if err != nil {
			t.Fatalf("re-decoding a canonical encoding failed: %v", err)
		}
		if m2.Rows() != m.Rows() || m2.Cols() != m.Cols() {
			t.Fatalf("re-decoded shape %dx%d, want %dx%d", m2.Rows(), m2.Cols(), m.Rows(), m.Cols())
		}
		for k := range m.data {
			if math.Float64bits(m2.data[k]) != math.Float64bits(m.data[k]) {
				t.Fatalf("entry %d: re-decoded bits %#x, want %#x", k, math.Float64bits(m2.data[k]), math.Float64bits(m.data[k]))
			}
		}
	})
}

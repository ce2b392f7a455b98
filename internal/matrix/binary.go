package matrix

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
)

// Binary matrix framing — the wire format of the service's
// application/x-deltacluster-matrix transport. It reuses the DCKP
// checkpoint discipline from internal/floc: a fixed magic, a version,
// an explicit payload length, and a SHA-256 checksum over the payload,
// all little-endian, so corruption and truncation are detected before
// any byte of the payload is interpreted.
//
//	offset  size          field
//	0       4             magic "DCMX"
//	4       4             format version (uint32, currently 2)
//	8       8             payload length n (uint64)
//	16      n             payload
//	16+n    32            SHA-256 of payload
//
//	payload = rows uint64 | cols uint64 | nnz uint64
//	        | specified bitmap: ceil(rows*cols/64) uint64 words;
//	          bit k of word w is row-major entry 64w+k
//	        | nnz float64 bits: the specified entries, row-major
//
// Missingness travels only in the bitmap: a sparse matrix (the
// MovieLens case, ~5% filled) costs one bit per cell plus its values,
// and a complete one pays 1/64 over the bare values. The encoding is
// canonical — every NaN payload means missing and leaves its bit
// clear, so equal matrices encode to equal bytes. Labels are not
// carried: the binary transport exists for bulk numeric ingest, and
// the service's JSON/CSV paths don't surface labels either.
const (
	binaryMagic   = "DCMX"
	binaryVersion = 2

	// binaryHeaderLen is magic + version + payload length.
	binaryHeaderLen = 16
	// binaryDimsLen is the payload's rows, cols and nnz words.
	binaryDimsLen = 24
)

// BinaryContentType is the MIME type of the binary matrix encoding.
const BinaryContentType = "application/x-deltacluster-matrix"

// EncodeBinary renders m in the DCMX binary format. The encoding is
// canonical: equal matrices (same shape, same specified values, same
// missing set) produce identical bytes; ±0 keep their sign bit. One
// pass counts the specified entries so the second writes straight
// into an exact-size buffer.
func EncodeBinary(m *Matrix) []byte {
	entries := m.rows * m.cols
	words := (entries + 63) / 64
	nnz := 0
	for _, v := range m.data {
		if v == v {
			nnz++
		}
	}
	n := binaryDimsLen + 8*words + 8*nnz
	buf := make([]byte, binaryHeaderLen+n+sha256.Size)
	le := binary.LittleEndian
	copy(buf, binaryMagic)
	le.PutUint32(buf[4:8], binaryVersion)
	le.PutUint64(buf[8:16], uint64(n))
	payload := buf[binaryHeaderLen : binaryHeaderLen+n]
	le.PutUint64(payload[0:8], uint64(m.rows))
	le.PutUint64(payload[8:16], uint64(m.cols))
	le.PutUint64(payload[16:24], uint64(nnz))
	bitmap := payload[binaryDimsLen : binaryDimsLen+8*words]
	vals := payload[binaryDimsLen+8*words:]
	for w := 0; w < words; w++ {
		var word uint64
		for k, v := range m.data[64*w : min(64*w+64, entries)] {
			if v == v {
				word |= 1 << uint(k)
				le.PutUint64(vals, math.Float64bits(v))
				vals = vals[8:]
			}
		}
		le.PutUint64(bitmap[8*w:], word)
	}
	sum := sha256.Sum256(payload)
	copy(buf[binaryHeaderLen+n:], sum[:])
	return buf
}

// DecodeBinary parses a DCMX-framed matrix. Framing is verified before
// the payload is touched: magic, version, declared length against the
// actual data, then the checksum. The payload is then checked in full
// before the matrix is allocated: plausible dimensions, a positive
// maxEntries bounding rows*cols, a payload length that matches the
// declared shape and nnz exactly, no bitmap bits past the last entry,
// and a bitmap popcount equal to nnz. Since the whole bitmap must be
// present, the dense backing is at most 64× the payload even with no
// cap. Packed values must be finite and not NaN
// (the matrix must be finite, as with text ingest, and missingness is
// the bitmap's alone). Missing entries decode as the canonical NaN.
func DecodeBinary(data []byte, maxEntries int) (*Matrix, error) {
	return DecodeBinaryCap(data, maxEntries, 0)
}

// DecodeBinaryCap is DecodeBinary with room to grow: the dense backing
// gets capacity for capRows rows when that exceeds the section's own
// row count, so AppendRows up to that many rows fills it in place
// instead of reallocating. The entries are those DecodeBinary returns.
func DecodeBinaryCap(data []byte, maxEntries, capRows int) (*Matrix, error) {
	if len(data) < binaryHeaderLen || string(data[:4]) != binaryMagic {
		return nil, fmt.Errorf("matrix: not a binary matrix (bad magic)")
	}
	le := binary.LittleEndian
	version := le.Uint32(data[4:8])
	if version != binaryVersion {
		return nil, fmt.Errorf("matrix: unsupported binary matrix version %d (want %d)", version, binaryVersion)
	}
	n := le.Uint64(data[8:16])
	if uint64(len(data)-binaryHeaderLen) < n || len(data)-binaryHeaderLen-int(n) < sha256.Size {
		return nil, fmt.Errorf("matrix: binary matrix truncated")
	}
	if len(data) != binaryHeaderLen+int(n)+sha256.Size {
		return nil, fmt.Errorf("matrix: %d trailing bytes after binary matrix", len(data)-binaryHeaderLen-int(n)-sha256.Size)
	}
	payload := data[binaryHeaderLen : binaryHeaderLen+int(n)]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[binaryHeaderLen+int(n):]) {
		return nil, fmt.Errorf("matrix: binary matrix checksum mismatch")
	}
	if n < binaryDimsLen {
		return nil, fmt.Errorf("matrix: binary matrix payload too short for dimensions")
	}
	rows := le.Uint64(payload[0:8])
	cols := le.Uint64(payload[8:16])
	nnz := le.Uint64(payload[16:24])
	// The per-dimension bound keeps rows*cols from overflowing uint64.
	if rows >= 1<<31 || cols >= 1<<31 {
		return nil, fmt.Errorf("matrix: binary matrix declares implausible dimensions %dx%d", rows, cols)
	}
	entries := rows * cols
	if maxEntries > 0 && entries > uint64(maxEntries) {
		return nil, fmt.Errorf("matrix is %dx%d = %d entries; capped at %d", rows, cols, entries, maxEntries)
	}
	if nnz > entries {
		return nil, fmt.Errorf("matrix: binary matrix declares %d specified entries in %dx%d", nnz, rows, cols)
	}
	// Compare in whole words of the payload actually present, so no
	// product of untrusted counts can overflow.
	words := (entries + 63) / 64
	body := n - binaryDimsLen
	if body%8 != 0 || words > body/8 || body/8-words != nnz {
		return nil, fmt.Errorf("matrix: binary matrix holds %d bytes after its dimensions; %dx%d with %d specified entries needs %d bitmap and %d value words",
			body, rows, cols, nnz, words, nnz)
	}
	bitmap := payload[binaryDimsLen : binaryDimsLen+8*words]
	vals := payload[binaryDimsLen+8*words:]
	if tail := entries % 64; tail != 0 && le.Uint64(bitmap[8*(words-1):])>>tail != 0 {
		return nil, fmt.Errorf("matrix: binary matrix bitmap sets bits past entry %d", entries)
	}
	var set uint64
	for w := uint64(0); w < words; w++ {
		set += uint64(bits.OnesCount64(le.Uint64(bitmap[8*w:])))
	}
	if set != nnz {
		return nil, fmt.Errorf("matrix: binary matrix bitmap marks %d specified entries, header declares %d", set, nnz)
	}

	size := entries
	if capRows > 0 && uint64(capRows) > rows {
		size = uint64(capRows) * cols
	}
	out := make([]float64, entries, size)
	if nnz < entries {
		nan := math.NaN()
		for k := range out {
			out[k] = nan
		}
	}
	next := 0
	for w := 0; w < int(words); w++ {
		for word := le.Uint64(bitmap[8*w:]); word != 0; word &= word - 1 {
			k := 64*w + bits.TrailingZeros64(word)
			v := math.Float64frombits(le.Uint64(vals[8*next:]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("matrix: binary matrix packed value %d (entry %d) is not finite", next, k)
			}
			out[k] = v
			next++
		}
	}
	return &Matrix{rows: int(rows), cols: int(cols), data: out}, nil
}

// WriteBinary writes m to w in the DCMX format.
func WriteBinary(w io.Writer, m *Matrix) error {
	if _, err := w.Write(EncodeBinary(m)); err != nil {
		return fmt.Errorf("matrix: writing binary matrix: %w", err)
	}
	return nil
}

// ReadBinary reads one DCMX-framed matrix from r (consuming r to EOF).
// maxEntries ≤ 0 means unlimited.
func ReadBinary(r io.Reader, maxEntries int) (*Matrix, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("matrix: reading binary matrix: %w", err)
	}
	return DecodeBinary(data, maxEntries)
}

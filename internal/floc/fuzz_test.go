package floc

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzLoadCheckpoint drives the DCKP decode path with adversarial
// bytes. Replication ships checkpoint encodings between deltaserve
// nodes, so a torn, truncated or outright hostile byte string reaches
// DecodeCheckpoint on a live backend; the contract is that it either
// returns a verified *Checkpoint or an error — it must never panic,
// never over-allocate from a forged length field, and never hand back
// unverified payload bytes.
//
// The corpus is seeded from a real converged-run checkpoint and a seed
// checkpoint (boundary 0, no cluster states) plus the
// systematic corruptions the unit tests cover one by one: truncated
// header, bad magic, unknown version, flipped checksum, oversized
// section lengths.
func FuzzLoadCheckpoint(f *testing.F) {
	m := resilienceTestMatrix(f)
	_, cks := captureCheckpoints(f, m, resilienceTestConfig(f))
	real, err := EncodeCheckpoint(cks[len(cks)-1])
	if err != nil {
		f.Fatal(err)
	}

	f.Add(real)
	seed, err := EncodeCheckpoint(seedCheckpoint(f, m, resilienceTestConfig(f)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte("DCKP"))
	f.Add(real[:15])                           // truncated header
	f.Add(real[:len(real)/2])                  // truncated payload
	f.Add(append([]byte("JUNK"), real[4:]...)) // bad magic

	badVersion := append([]byte(nil), real...)
	binary.LittleEndian.PutUint32(badVersion[4:8], 99)
	f.Add(badVersion)

	badSum := append([]byte(nil), real...)
	badSum[len(badSum)-1] ^= 0xff
	f.Add(badSum)

	// Forge the payload-length field to a huge value: the decoder must
	// reject it as truncation, not trust it.
	hugeLen := append([]byte(nil), real...)
	binary.LittleEndian.PutUint64(hugeLen[8:16], 1<<60)
	f.Add(hugeLen)

	// Forge the trace-length collection header inside the payload
	// (offset 16 header + 7 fixed uint64 fields): an oversized count
	// must be bounded by the remaining payload, never allocated raw.
	hugeTrace := append([]byte(nil), real...)
	binary.LittleEndian.PutUint64(hugeTrace[16+7*8:16+8*8], 1<<50)
	f.Add(hugeTrace)

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeCheckpoint(data)
		if err != nil {
			if ck != nil {
				t.Fatalf("DecodeCheckpoint returned both a checkpoint and error %v", err)
			}
			return
		}
		// An accepted checkpoint passed magic, version and checksum
		// verification, so it must re-encode — and the re-encoding must
		// decode to the same logical checkpoint (the encoding is
		// canonical: equal checkpoints produce equal bytes).
		out, err := EncodeCheckpoint(ck)
		if err != nil {
			t.Fatalf("re-encoding accepted checkpoint: %v", err)
		}
		again, err := DecodeCheckpoint(out)
		if err != nil {
			t.Fatalf("decoding re-encoded checkpoint: %v", err)
		}
		out2, err := EncodeCheckpoint(again)
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("re-encoding is not canonical:\n first %x\nsecond %x", out, out2)
		}
	})
}

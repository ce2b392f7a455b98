package service

import (
	"bytes"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"deltacluster/internal/matrix"
	"deltacluster/internal/synth"
)

// TestDoneBinaryJobRetention pins what a done binary FLOC job keeps on
// its backend, so a later change cannot quietly double it. The job is
// the ratings stand-in submitted as a DCMX section at the served
// MovieLens configuration. Once it is done, its lineage is parked:
//
//   - no float backing is reachable from the job record or its
//     lineage: the dense matrix (rows·cols floats) went with the run,
//     and what floats remain are the final checkpoint's residue trace;
//   - exactly one byte slice is: the lineage's base section, with
//     len == cap == len(EncodeBinary(m)), bytewise that encoding, and a
//     copy rather than a window into the pooled request body (which
//     goes back to the pool with the request);
//   - its log is empty, and the first PATCH leaves it one entry and the
//     lineage still without a dense matrix: a PATCH decodes nothing.
func TestDoneBinaryJobRetention(t *testing.T) {
	ds, err := synth.MovieLens(synth.DefaultMovieLensConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	m := ds.Matrix
	section := matrix.EncodeBinary(m)
	env := newTestEnv(t, Options{Workers: 1, QueueCap: 4})
	body, err := EncodeBinarySubmit(&SubmitRequest{
		Algorithm: AlgoFLOC,
		FLOC: &FLOCParams{K: 10, Delta: 1, Seed: 1, MaxIterations: 40,
			Seeding: "anchored", Occupancy: 0.6, Workers: 1},
	}, m)
	if err != nil {
		t.Fatal(err)
	}
	id := env.submitBinary(t, body)
	if v := env.poll(t, id, 60*time.Second); v.State != StateDone {
		t.Fatalf("job finished %s (error %q), want done", v.State, v.Error)
	}

	st := env.s.store
	st.mu.Lock()
	j := st.jobs[id]
	if j == nil {
		st.mu.Unlock()
		t.Fatalf("job %s is not in the store", id)
	}
	ln := st.lineages[j.lineage]
	var h held
	h.walk(reflect.ValueOf(j), map[uintptr]bool{})
	h.walk(reflect.ValueOf(ln), map[uintptr]bool{})
	st.mu.Unlock()

	if j.m != nil {
		t.Error("the done job still holds its dense matrix")
	}
	if h.floats > 1<<10 {
		t.Errorf("the job record and its lineage reach %d float64s; want at most 1 Ki "+
			"(the residue trace), not a matrix backing of rows·cols = %d", h.floats, m.Rows()*m.Cols())
	}
	if h.byteSlices != 1 || ln == nil {
		t.Fatalf("the job record and its lineage reach %d byte slices; want exactly the lineage's base section",
			h.byteSlices)
	}
	base := ln.base
	if len(base) != len(section) || cap(base) != len(section) {
		t.Errorf("base section len %d cap %d, want both exactly len(EncodeBinary(m)) = %d",
			len(base), cap(base), len(section))
	}
	if !bytes.Equal(base, section) {
		t.Error("the base section differs from EncodeBinary of the submitted matrix")
	}
	if buf, ok := bodyBufPool.Get().(*bytes.Buffer); ok {
		if pooled := buf.Bytes()[:buf.Cap()]; len(pooled) > 0 && overlaps(base, pooled) {
			t.Error("the base section aliases a pooled request body")
		}
		bodyBufPool.Put(buf)
	}
	if h.strings > 1<<10 {
		t.Errorf("the job record and its lineage reach %d bytes of strings; want at most 1 KiB of identifiers", h.strings)
	}
	if ln.log.Version() != 0 {
		t.Errorf("the lineage log is at version %d before any PATCH", ln.log.Version())
	}
	t.Logf("job record and lineage reach %d bytes of strings, %d float64s, one %d-byte base section",
		h.strings, h.floats, len(base))

	v := 3.5
	if pr := env.patch(t, id, &MatrixPatchRequest{Updates: []CellPatch{{Row: 0, Col: 0, Value: &v}}}); pr.MatrixVersion != 1 {
		t.Fatalf("first patch committed version %d, want 1", pr.MatrixVersion)
	}
	st.mu.Lock()
	version, dense := ln.log.Version(), j.m != nil
	st.mu.Unlock()
	if version != 1 {
		t.Fatalf("after the first PATCH the lineage log is at version %d, want one entry", version)
	}
	if dense {
		t.Error("the first PATCH built a dense matrix for the idle lineage")
	}
	if dn, _ := st.matrixGauges(); dn != 0 {
		t.Errorf("after the first PATCH the store holds %d dense matrices, want 0", dn)
	}
}

// overlaps reports whether two byte slices share backing memory.
func overlaps(a, b []byte) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return a0 < b0+uintptr(len(b)) && b0 < a0+uintptr(len(a))
}

// held tallies what a reflect walk reaches: the non-empty byte slices,
// the float64 elements of every float64 slice, and the length of every
// string.
type held struct {
	byteSlices int
	floats     int
	strings    int
}

// walk visits everything reachable from v. Pointers are followed once
// each. Unsafe pointers (atomic.Pointer's word), functions and
// channels are not followed: a matrix keeps its derived caches behind
// an atomic pointer, and the walk only needs to find the matrix's own
// backing, which a reachable matrix always exposes.
func (h *held) walk(v reflect.Value, seen map[uintptr]bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		h.walk(v.Elem(), seen)
	case reflect.Interface:
		if !v.IsNil() {
			h.walk(v.Elem(), seen)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			h.walk(v.Field(i), seen)
		}
	case reflect.String:
		h.strings += v.Len()
	case reflect.Slice:
		switch k := v.Type().Elem().Kind(); {
		case k == reflect.Uint8:
			if v.Cap() > 0 {
				h.byteSlices++
			}
			return
		case k == reflect.Float64:
			h.floats += v.Cap()
			return
		case k <= reflect.Complex128:
			return // other numbers hold no references
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			h.walk(v.Index(i), seen)
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			h.walk(it.Key(), seen)
			h.walk(it.Value(), seen)
		}
	}
}

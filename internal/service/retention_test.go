package service

import (
	"reflect"
	"testing"
	"time"

	"deltacluster/internal/matrix"
	"deltacluster/internal/synth"
)

// TestDoneBinaryJobRetention pins what a done binary FLOC job keeps on
// its backend, so a later change cannot quietly double it. The job is
// the ratings stand-in submitted as a DCMX section at the served
// MovieLens configuration. Once it is done:
//
//   - its matrix backing is exactly rows·cols floats (len == cap), not
//     a decode buffer with growth slack;
//   - nothing reachable from the job record holds bytes of the request:
//     the DSUB body and its DCMX section (0.9 MB here) go back to the
//     body pool with the request, so the record's byte slices and
//     strings add up to no more than a few short identifiers;
//   - it has no lineage log: the log is created by the first PATCH,
//     which then holds exactly that one mutation.
func TestDoneBinaryJobRetention(t *testing.T) {
	ds, err := synth.MovieLens(synth.DefaultMovieLensConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	m := ds.Matrix
	section := len(matrix.EncodeBinary(m))
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
	jm := j.spec.m
	_, hasLog := st.lineages[j.lineage]
	var bytesHeld, largest int
	heldBytes(reflect.ValueOf(j), map[uintptr]bool{}, &bytesHeld, &largest)
	st.mu.Unlock()

	if !jm.Equal(m) {
		t.Fatal("the job's matrix differs from the submitted one")
	}
	// RowView(0) starts the backing, so its capacity is the backing's.
	if got, want := cap(jm.RowView(0)), m.Rows()*m.Cols(); got != want {
		t.Errorf("matrix backing capacity %d, want exactly rows·cols = %d", got, want)
	}
	if bytesHeld > 1<<10 || largest > 0 {
		t.Errorf("the job record reaches %d bytes of strings and byte slices, the largest byte slice %d bytes; "+
			"want at most 1 KiB of identifiers and no byte slice (the DCMX section is %d bytes)",
			bytesHeld, largest, section)
	}
	if hasLog {
		t.Error("a lineage log exists before the first PATCH")
	}
	t.Logf("job record reaches %d bytes of strings and byte slices (largest byte slice %d); DCMX section %d bytes",
		bytesHeld, largest, section)

	v := 3.5
	if pr := env.patch(t, id, &MatrixPatchRequest{Updates: []CellPatch{{Row: 0, Col: 0, Value: &v}}}); pr.MatrixVersion != 1 {
		t.Fatalf("first patch committed version %d, want 1", pr.MatrixVersion)
	}
	st.mu.Lock()
	log := st.lineages[j.lineage]
	st.mu.Unlock()
	if log == nil || log.Version() != 1 {
		t.Fatalf("after the first PATCH the lineage log is %v, want one entry", log)
	}
}

// heldBytes walks everything reachable from v and adds the capacity of
// every byte slice, and the length of every string, to *total; *largest
// records the largest byte slice. Pointers are followed once each;
// slices of numbers are not walked.
// Unsafe pointers (atomic.Pointer's word), functions and channels are
// not followed: the job's matrix keeps its derived caches behind an
// atomic pointer, and those hold floats and bitsets, never bytes.
func heldBytes(v reflect.Value, seen map[uintptr]bool, total, largest *int) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		heldBytes(v.Elem(), seen, total, largest)
	case reflect.Interface:
		if !v.IsNil() {
			heldBytes(v.Elem(), seen, total, largest)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			heldBytes(v.Field(i), seen, total, largest)
		}
	case reflect.String:
		*total += v.Len()
	case reflect.Slice:
		switch k := v.Type().Elem().Kind(); {
		case k == reflect.Uint8:
			*total += v.Cap()
			*largest = max(*largest, v.Cap())
			return
		case k <= reflect.Complex128:
			return // numbers hold no references
		}
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			heldBytes(v.Index(i), seen, total, largest)
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			heldBytes(it.Key(), seen, total, largest)
			heldBytes(it.Value(), seen, total, largest)
		}
	}
}

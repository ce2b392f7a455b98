package matrix_test

import (
	"testing"

	"deltacluster/internal/matrix"
	"deltacluster/internal/synth"
)

// Sinks keep the compiler from discarding the benchmarked calls.
var (
	encodedSink []byte
	decodedSink *matrix.Matrix
)

// BenchmarkBinaryCodec times the DCMX codec on the two realistic
// stand-ins: the sparse MovieLens ratings matrix (943×1682, ~5%
// specified — the served-upload case) and the complete yeast
// microarray (2884×17), where the bitmap is pure overhead.
func BenchmarkBinaryCodec(b *testing.B) {
	ratings, err := synth.MovieLens(synth.DefaultMovieLensConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	yeast, err := synth.Yeast(synth.DefaultYeastConfig(), 1)
	if err != nil {
		b.Fatal(err)
	}
	inputs := []struct {
		name string
		m    *matrix.Matrix
	}{
		{"ratings", ratings.Matrix},
		{"yeast", yeast.Matrix},
	}
	for _, in := range inputs {
		b.Run("encode/"+in.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(matrix.EncodeBinary(in.m))))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				encodedSink = matrix.EncodeBinary(in.m)
			}
		})
	}
	for _, in := range inputs {
		data := matrix.EncodeBinary(in.m)
		b.Run("decode/"+in.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				m, err := matrix.DecodeBinary(data, 0)
				if err != nil {
					b.Fatal(err)
				}
				decodedSink = m
			}
		})
	}
}

package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= eps
}

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, math.NaN()},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3}, 2},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVariance(t *testing.T) {
	if got := Variance([]float64{2, 2, 2}); got != 0 {
		t.Errorf("constant variance = %v, want 0", got)
	}
	if got := Variance([]float64{1, 3}); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Variance(1,3) = %v, want 1", got)
	}
	if got := Variance(nil); !math.IsNaN(got) {
		t.Errorf("Variance(nil) = %v, want NaN", got)
	}
}

func TestMeanAbs(t *testing.T) {
	if got := MeanAbs([]float64{-2, 2}); !almostEqual(got, 2, 1e-12) {
		t.Errorf("MeanAbs(-2,2) = %v, want 2", got)
	}
	if got := MeanAbs(nil); !math.IsNaN(got) {
		t.Errorf("MeanAbs(nil) = %v, want NaN", got)
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 2})
	if min != -1 || max != 7 {
		t.Errorf("MinMax = (%v, %v), want (-1, 7)", min, max)
	}
	min, max = MinMax(nil)
	if !math.IsNaN(min) || !math.IsNaN(max) {
		t.Errorf("MinMax(nil) = (%v, %v), want NaN", min, max)
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	xs := []float64{1.5, -2, 3.25, 0, 9, -4.5, 2}
	var w Welford
	for _, x := range xs {
		w.Add(x)
	}
	if w.N() != len(xs) {
		t.Fatalf("N = %d, want %d", w.N(), len(xs))
	}
	if !almostEqual(w.Mean(), Mean(xs), 1e-12) {
		t.Errorf("Welford mean %v, batch %v", w.Mean(), Mean(xs))
	}
	if !almostEqual(w.Variance(), Variance(xs), 1e-9) {
		t.Errorf("Welford variance %v, batch %v", w.Variance(), Variance(xs))
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if !math.IsNaN(w.Mean()) || !math.IsNaN(w.Variance()) {
		t.Error("empty Welford should report NaN moments")
	}
}

// Property: Welford agrees with the two-pass formulas on arbitrary
// input. Each case draws, from the seed quick supplies, 1 to 200
// values spread by 10^-1 to 10^5 around a centre within ±1e5, so every
// input is non-empty and inside |x| ≤ 1.1e6, and a centre far from the
// spread tests the running update's cancellation.
func TestWelfordProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := NewRNG(seed)
		center := g.Uniform(-1e5, 1e5)
		spread := math.Pow(10, float64(g.Intn(7)-1))
		xs := make([]float64, g.UniformInt(1, 200))
		for i := range xs {
			xs[i] = center + spread*g.Uniform(-1, 1)
		}
		var w Welford
		for _, x := range xs {
			w.Add(x)
		}
		scale := 1.0 + math.Abs(Mean(xs))
		return w.N() == len(xs) && almostEqual(w.Mean(), Mean(xs), 1e-8*scale) &&
			almostEqual(w.Variance(), Variance(xs), 1e-6*(1+Variance(xs)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

package numeric

import (
	"math"
	"math/rand"
	"testing"
)

// samePow fails the test unless Pow(x, y) carries exactly math.Pow's bits.
func samePow(t *testing.T, x, y float64) {
	t.Helper()
	got, want := Pow(x, y), math.Pow(x, y)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Pow(%v, %v) = %v (%#x), math.Pow = %v (%#x)",
			x, y, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

func TestPowMatchesMathPowTable(t *testing.T) {
	xs := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		1, -1, 2, -2, 0.5, 3.7, -3.7, 1e-3, 2.5e6, 1.9e9, -1.9e9,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, 0x1p-1022,
		math.MaxFloat64, -math.MaxFloat64, 1e300, 1e-300,
		// The range guards and their neighbours.
		powMinAbs, math.Nextafter(powMinAbs, 0), math.Nextafter(powMinAbs, 1),
		powMaxAbs, math.Nextafter(powMaxAbs, 0), math.Nextafter(powMaxAbs, math.Inf(1)),
		-powMinAbs, -powMaxAbs, math.Nextafter(-powMaxAbs, math.Inf(-1)),
	}
	ys := []float64{
		0, math.Copysign(0, -1), 1, -1, 2, -2, 3, -3, 4, 7, -7,
		powMaxExp, -powMaxExp, powMaxExp + 1, -powMaxExp - 1,
		math.Nextafter(3, 4), math.Nextafter(-2, -3),
		0.5, -0.5, 1.5, -1.5, 1.0 / 3, 2.0 / 3, 1e20, -1e20,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, x := range xs {
		for _, y := range ys {
			samePow(t, x, y)
		}
	}
}

// TestPowIntegerIdentities pins the closed forms the solvers rely on:
// the fast path is plain float arithmetic on x.
func TestPowIntegerIdentities(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		x := math.Ldexp(0.5+r.Float64()/2, r.Intn(240)-119)
		if r.Intn(2) == 0 {
			x = -x
		}
		if got, want := Pow(x, -2), 1/(x*x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Pow(%v, -2) = %v, 1/(x*x) = %v", x, got, want)
		}
		if got, want := Pow(x, 3), x*(x*x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Pow(%v, 3) = %v, x*(x*x) = %v", x, got, want)
		}
	}
}

// TestPowIntegerSweep compares every integer exponent of the fast path
// over log-uniform bases spanning the whole guarded range.
func TestPowIntegerSweep(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		x := math.Ldexp(0.5+r.Float64()/2, r.Intn(260)-129)
		if r.Intn(2) == 0 {
			x = -x
		}
		for n := -powMaxExp - 1; n <= powMaxExp+1; n++ {
			samePow(t, x, float64(n))
		}
	}
}

func FuzzPowMatchesMathPow(f *testing.F) {
	f.Add(1.9e9, 3.0)
	f.Add(0.0123, -2.0)
	f.Add(-3.7, 7.0)
	f.Add(powMaxAbs, float64(powMaxExp))
	f.Add(math.SmallestNonzeroFloat64, -1.0)
	f.Fuzz(func(t *testing.T, x, y float64) {
		samePow(t, x, y)
	})
}

// powSink keeps the benchmarked calls from being optimized away.
var powSink float64

// BenchmarkPow compares the integer fast path with math.Pow on the
// L^{1−λ} term of the §7 objective (λ = 3).
func BenchmarkPow(b *testing.B) {
	for _, bc := range []struct {
		name string
		pow  func(x, y float64) float64
	}{{"numeric", Pow}, {"math", math.Pow}} {
		b.Run(bc.name, func(b *testing.B) {
			var s float64
			for i := 0; i < b.N; i++ {
				s += bc.pow(1e-3+float64(i&1023)*1e-6, -2)
			}
			powSink = s
		})
	}
}

package gpu

import (
	"math"
	"testing"
)

// TestAvgDivideBitIdentical pins the reciprocal-weight fast path: for a
// power-of-two count, multiplying by the precomputed exact reciprocal must
// round identically to the division it replaces for every accumulator —
// including subnormals, infinities, and signed zero — because 1/2^k is
// exact in binary floating point. Non-power-of-two and negative counts must
// take the exact-division path, and a zero count performs no division.
func TestAvgDivideBitIdentical(t *testing.T) {
	values := []float64{
		0, math.Copysign(0, -1), 1, -1, 1.5, -math.Pi, 1e-320, -5e-324,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.Inf(1), math.Inf(-1), 123456789.123456789, 1.0000000000000002,
	}
	counts := []int32{
		1, 2, 3, 4, 5, 7, 8, 15, 16, 31, 32, 33, 64, 100, 1 << 20, 1 << 30,
		-1, -2, -8, -100, math.MinInt32, math.MaxInt32,
	}
	for _, v := range values {
		for _, n := range counts {
			got := avgDivide(v, n)
			want := v / float64(n)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("avgDivide(%v, %d) = %v (%#x), want %v (%#x)",
					v, n, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		// Zero count: the serial engine never divides, it reports the raw
		// accumulator.
		if got := avgDivide(v, 0); math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("avgDivide(%v, 0) = %v, want the accumulator unchanged", v, got)
		}
	}
	// NaN propagates through both paths (payload comparison is
	// architecture-dependent, so only the class is pinned).
	for _, n := range []int32{0, 3, 8} {
		if got := avgDivide(math.NaN(), n); !math.IsNaN(got) {
			t.Fatalf("avgDivide(NaN, %d) = %v, want NaN", n, got)
		}
	}
}

// TestRecipPow2Exact pins the reciprocal table itself: every entry is the
// exactly-representable 1/2^k, not a rounded approximation.
func TestRecipPow2Exact(t *testing.T) {
	for k, r := range recipPow2 {
		if want := math.Ldexp(1, -k); r != want {
			t.Fatalf("recipPow2[%d] = %v, want exact %v", k, r, want)
		}
	}
}

// TestAveragedSlotsZeroAlloc pins that the hot averaging path of the
// RangeCheck/ProfileSample intrinsics allocates nothing.
func TestAveragedSlotsZeroAlloc(t *testing.T) {
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		sink += avgDivide(avgConvert(avgF32, math.Float32bits(3.75)), 32)
		sink += avgDivide(avgConvert(avgU32, 12345), 100)
		sink += avgDivide(avgConvert(avgI32, uint32(0xfffffff0)), 7)
	})
	if allocs != 0 {
		t.Fatalf("averaging path allocates %.1f objects/op, want 0", allocs)
	}
	_ = sink
}

// BenchmarkAvgDivide measures the intrinsic-averaging divide with the
// power-of-two reciprocal fast path against the arbitrary-count slow path.
func BenchmarkAvgDivide(b *testing.B) {
	bench := func(name string, n int32) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += avgDivide(float64(i)+0.5, n)
			}
			_ = sink
		})
	}
	bench("pow2", 32)
	bench("arbitrary", 100)
}

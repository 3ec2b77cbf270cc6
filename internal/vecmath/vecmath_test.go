package vecmath

import (
	"math"
	"testing"
)

// jitterRow returns Jitter(base, t0+i) for i in [0, n) through the fused
// kernel: a zero accumulator, a unit profile and avg 1 make each sum
// 0 + (1*1)*j, which is j exactly.
func jitterRow(n int, base uint64, t0 int) []float64 {
	acc := make([]float64, n)
	prof := make([]float64, n)
	for i := range prof {
		prof[i] = 1
	}
	JitterAccumRow(acc, prof, 1, base, t0)
	return acc
}

// TestJitterRowMatchesScalar is the package's load-bearing test: the SIMD
// row kernel must reproduce the scalar chain bit-for-bit — including the
// ~5% of lanes that fall into the Acklam tail branches and are spilled
// back to scalar — across many streams and row offsets. A series worker's
// interval range may start anywhere in the month, hence offsets like 4031
// that are not a multiple of four.
func TestJitterRowMatchesScalar(t *testing.T) {
	if !SIMDEnabled() {
		t.Skip("no SIMD kernels on this machine; scalar path is the reference itself")
	}
	lengths := []int{1, 2, 3, 4, 5, 7, 8, 63, 64, 288, 1021, 8064}
	bases := []uint64{0, 1, 0xDEADBEEF, 0x9E3779B97F4A7C15, 1 << 63, ^uint64(0)}
	for _, n := range lengths {
		for _, base := range bases {
			for _, t0 := range []int{0, 1, 17, 4031, 8000} {
				simd := jitterRow(n, base, t0)
				for i := range simd {
					want := Jitter(base, t0+i)
					if math.Float64bits(simd[i]) != math.Float64bits(want) {
						t.Fatalf("jitter row (n=%d, base=%#x, t0=%d)[%d] = %x, scalar %x",
							n, base, t0, i, simd[i], want)
					}
				}
			}
		}
	}
}

// TestJitterRowManyStreams sweeps enough streams to hit every branch
// combination within quads (all-central, mixed, all-tail is vanishingly
// rare but the spill machinery is per-lane anyway).
func TestJitterRowManyStreams(t *testing.T) {
	if !SIMDEnabled() {
		t.Skip("no SIMD kernels on this machine")
	}
	const n = 512
	for s := 0; s < 400; s++ {
		base := uint64(s)*0x9E3779B97F4A7C15 + 12345
		simd := jitterRow(n, base, 0)
		for i := range simd {
			want := Jitter(base, i)
			if math.Float64bits(simd[i]) != math.Float64bits(want) {
				t.Fatalf("stream %d lane %d: simd %x scalar %x", s, i, simd[i], want)
			}
		}
	}
}

// TestSetSIMDToggle checks the test knob: with SIMD forced off the row
// kernel must still produce the same bits (it is the scalar loop then).
func TestSetSIMDToggle(t *testing.T) {
	was := SIMDEnabled()
	defer SetSIMD(was)
	const n = 288
	base := uint64(0xABCDEF123456)
	on := jitterRow(n, base, 5)
	SetSIMD(false)
	if SIMDEnabled() {
		t.Fatal("SetSIMD(false) left SIMD enabled")
	}
	off := jitterRow(n, base, 5)
	for i := range on {
		if math.Float64bits(on[i]) != math.Float64bits(off[i]) {
			t.Fatalf("lane %d: simd %x scalar %x", i, on[i], off[i])
		}
	}
}

// TestJitterAgainstMathExp pins the scalar chain itself against the
// spelled-out composition, guarding accidental drift in Jitter.
func TestJitterAgainstMathExp(t *testing.T) {
	for i := 0; i < 10000; i++ {
		base := uint64(i) * 0x9E3779B97F4A7C15
		got := Jitter(base, i)
		want := math.Exp(0.3 * NormFromUniform(Hash01(base, i)))
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("i=%d: %x vs %x", i, got, want)
		}
	}
}

// TestJitterAccumRowMatchesScalar pins the fused kernel against the
// spelled-out scalar fold at many lengths, streams, and accumulator
// states — including the spilled-lane patch ordering.
func TestJitterAccumRowMatchesScalar(t *testing.T) {
	for _, n := range []int{0, 1, 3, 4, 7, 64, 288, 1021} {
		for s := 0; s < 40; s++ {
			base := uint64(s)*0x9E3779B97F4A7C15 + 777
			prof := make([]float64, n)
			got := make([]float64, n)
			want := make([]float64, n)
			for i := range prof {
				prof[i] = 0.5 + float64(i%9)/17
				got[i] = float64(i) * 1e5
				want[i] = got[i]
			}
			avg := 2.5e8
			JitterAccumRow(got, prof, avg, base, 3)
			for i := range want {
				want[i] += (avg * prof[i]) * Jitter(base, 3+i)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d stream=%d lane %d: fused %x scalar %x", n, s, i, got[i], want[i])
				}
			}
		}
	}
}

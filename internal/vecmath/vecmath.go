// Package vecmath holds the numeric kernel of the traffic-series
// synthesis: the deterministic hash → inverse-normal → exponential chain
// that turns (entry, interval) coordinates into multiplicative lognormal
// jitter. The chain is evaluated hundreds of millions of times per month
// of 5-minute samples, so this package provides, next to the scalar
// reference implementation, a 4-wide AVX2+FMA row kernel that computes
// the *identical* float64 bit patterns.
//
// Bit-exactness is the package contract, not an aspiration: the
// repo's equivalence goldens pin every series sample, so the SIMD path
// may only reorganise work, never arithmetic. Three facts make that
// possible:
//
//   - Every lane of a packed AVX2 instruction rounds exactly like the
//     corresponding scalar instruction, so evaluating four independent
//     samples side by side is a pure re-scheduling.
//   - Go's compiler does not contract a*b+c into FMA on amd64, so the
//     assembly mirrors the scalar code mul-for-mul and add-for-add —
//     except inside math.Exp, whose amd64 assembly *does* use FMA when
//     the CPU has AVX+FMA; the vector kernel replicates that exact
//     instruction sequence (see exp steps in kernels_amd64.s) and is
//     therefore only enabled on CPUs where math.Exp takes the FMA path.
//   - The Acklam inverse-CDF tail branches (u outside the central
//     ~95%) need math.Log; those lanes are spilled back to the scalar
//     implementation and patched into the row afterwards.
//
// The scalar helpers (Hash01, NormFromUniform, Jitter) are the single
// source of truth the rest of the repo uses for one-off samples;
// JitterAccumRow, which folds one stream's jitter into an accumulator
// row, is the one bulk path.
package vecmath

import (
	"math"
	"sync"
	"sync/atomic"
)

// simdOff disables the assembly kernel when set; tests use it to pin
// SIMD output against the pure-Go path on the same machine.
var simdOff atomic.Bool

// SIMDEnabled reports whether the AVX2+FMA row kernel is active.
func SIMDEnabled() bool { return hasKernels && !simdOff.Load() }

// SetSIMD enables or disables the assembly kernel (no-op on machines
// without it) and reports whether it is now active. Results are
// bit-identical either way; the switch exists so tests can prove it.
func SetSIMD(on bool) bool {
	simdOff.Store(!on)
	return SIMDEnabled()
}

// Hash01 derives a deterministic uniform [0,1) value from a per-stream
// base and a sample index: splitmix64's finaliser over base ^ uint32(t).
// The 2^-53 scale is a multiplication by an exact power of two, so it is
// bit-identical to the division it replaces.
func Hash01(base uint64, t int) float64 {
	x := base ^ uint64(uint32(t))
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) * (1.0 / float64(1<<53))
}

// Beasley-Springer-Moro style rational-approximation coefficients for
// NormFromUniform, hoisted to package level: a per-call composite literal
// would re-materialise all 21 words on every call of the series hot loop.
var (
	normA = [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	normB = [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	normC = [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	normD = [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
)

// plow is the Acklam central/tail split point; the SIMD kernel handles
// the central branch (u in [plow, 1-plow]) and spills the tails.
const plow = 0.02425

// NormFromUniform converts a uniform (0,1) value into a standard normal
// deviate via the inverse-CDF approximation of Acklam (sufficient for
// traffic jitter).
func NormFromUniform(u float64) float64 {
	if u <= 0 {
		u = 1e-12
	}
	if u >= 1 {
		u = 1 - 1e-12
	}
	a, b, c, dd := &normA, &normB, &normC, &normD
	switch {
	case u < plow:
		q := math.Sqrt(-2 * math.Log(u))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((dd[0]*q+dd[1])*q+dd[2])*q+dd[3])*q + 1)
	case u > 1-plow:
		q := math.Sqrt(-2 * math.Log(1-u))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((dd[0]*q+dd[1])*q+dd[2])*q+dd[3])*q + 1)
	default:
		q := u - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}

// Jitter is the full scalar chain: the multiplicative lognormal traffic
// jitter for sample t of the stream identified by base.
func Jitter(base uint64, t int) float64 {
	return math.Exp(0.3 * NormFromUniform(Hash01(base, t)))
}

// spillPool recycles the spill-index scratch the SIMD row kernel records
// tail-branch lanes into (~5% of samples land there).
var spillPool = sync.Pool{
	New: func() any { s := make([]int32, 4096); return &s },
}

// JitterAccumRow folds one stream's jitter into an accumulator row:
// acc[i] += (avg * prof[i]) * Jitter(base, t0+i), without materialising
// the jitter. t0 is the interval of acc[0], so a caller may hand in any
// sub-range of a month. Exactly the scalar expression, exactly the
// scalar order; the SIMD path adds +0.0 on tail-branch lanes and patches
// them scalar before returning (x + 0.0 = x exactly for the non-negative
// series values, so the deferred patch leaves the accumulation chain
// intact).
func JitterAccumRow(acc, prof []float64, avg float64, base uint64, t0 int) {
	if len(prof) != len(acc) {
		panic("vecmath: JitterAccumRow length mismatch")
	}
	if !SIMDEnabled() {
		for i := range acc {
			acc[i] += (avg * prof[i]) * Jitter(base, t0+i)
		}
		return
	}
	n4 := len(acc) &^ 3
	if n4 > 0 {
		sp := spillPool.Get().(*[]int32)
		if cap(*sp) < n4 {
			*sp = make([]int32, n4)
		}
		spill := (*sp)[:cap(*sp)]
		ns := jitterAccumRow4(&acc[0], &prof[0], avg, n4, base, t0, &spill[0])
		for _, idx := range spill[:ns] {
			acc[idx] += (avg * prof[idx]) * Jitter(base, t0+int(idx))
		}
		spillPool.Put(sp)
	}
	for i := n4; i < len(acc); i++ {
		acc[i] += (avg * prof[i]) * Jitter(base, t0+i)
	}
}

//go:build amd64

package vecmath

// hasKernels reports whether the AVX2+FMA row kernel may run on this
// CPU. FMA support is load-bearing twice over: the kernel replicates the
// FMA instruction sequence of math.Exp's amd64 assembly, which that code
// only takes when the CPU has AVX and FMA — so requiring both keeps the
// vector and scalar paths on the *same* exp algorithm.
var hasKernels = detectKernels()

func detectKernels() bool {
	// CPUID leaf 1: ECX bit 12 = FMA, bit 27 = OSXSAVE, bit 28 = AVX.
	_, _, ecx1, _ := cpuid(1, 0)
	const fma, osxsave, avx = 1 << 12, 1 << 27, 1 << 28
	if ecx1&fma == 0 || ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1-2: the OS saves XMM and YMM state across context
	// switches (without this, AVX registers are unusable in practice).
	if xgetbv0()&0x6 != 0x6 {
		return false
	}
	// CPUID leaf 7: EBX bit 5 = AVX2.
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// cpuid executes the CPUID instruction (implemented in assembly).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register XCR0.
func xgetbv0() uint64

// jitterAccumRow4 performs acc[i] += (avg*prof[i])*Jitter(base, t0+i)
// for i in [0, n), n a positive multiple of 4. Tail-branch lanes add
// +0.0 instead and land in spill (room for n entries) for the caller to
// patch; the return value is their count.
func jitterAccumRow4(acc, prof *float64, avg float64, n int, base uint64, t0 int, spill *int32) int

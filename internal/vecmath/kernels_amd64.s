// AVX2+FMA row kernel for the traffic-jitter chain. Bit-exactness
// contract: every packed instruction below rounds lane-wise exactly like
// the scalar instruction the Go (or math.Exp assembly) reference
// executes, and the instruction sequence mirrors the reference
// operation-for-operation:
//
//   - splitmix64 finisher: 64-bit integer ops, trivially exact;
//   - uniform mapping: CVTSQ2SD (exact for < 2^53) then one multiply by
//     2^-53, matching float64(x>>11) * (1.0/(1<<53));
//   - Acklam central branch: mul/add chains (NOT fused — the Go
//     compiler does not contract a*b+c on amd64) and one divide;
//   - exp: the exact avxfma instruction sequence of math.archExp
//     (exp_amd64.s), which the scalar path takes on every CPU this
//     kernel is enabled on (it requires AVX+FMA, and the kernel gate
//     requires AVX2+FMA);
//   - lanes whose uniform falls outside the central branch contribute
//     +0.0 and their indices are spilled for the scalar caller to
//     patch — the tail branches need math.Log, which has no vector
//     twin here.
//
// Garbage flowing through disabled lanes (huge norms from the central
// polynomial applied to tail uniforms) is harmless: FP faults are
// masked, VCVTPD2DQ yields the integer-indefinite value, and the
// VANDPD blends those lanes to zero before they reach the accumulator.

//go:build amd64

#include "textflag.h"

// inv53 (offset 0)
DATA konst4<>+0(SB)/8, $0x3CA0000000000000
DATA konst4<>+8(SB)/8, $0x3CA0000000000000
DATA konst4<>+16(SB)/8, $0x3CA0000000000000
DATA konst4<>+24(SB)/8, $0x3CA0000000000000
// plow (offset 32)
DATA konst4<>+32(SB)/8, $0x3F98D4FDF3B645A2
DATA konst4<>+40(SB)/8, $0x3F98D4FDF3B645A2
DATA konst4<>+48(SB)/8, $0x3F98D4FDF3B645A2
DATA konst4<>+56(SB)/8, $0x3F98D4FDF3B645A2
// phigh (offset 64)
DATA konst4<>+64(SB)/8, $0x3FEF395810624DD3
DATA konst4<>+72(SB)/8, $0x3FEF395810624DD3
DATA konst4<>+80(SB)/8, $0x3FEF395810624DD3
DATA konst4<>+88(SB)/8, $0x3FEF395810624DD3
// half (offset 96)
DATA konst4<>+96(SB)/8, $0x3FE0000000000000
DATA konst4<>+104(SB)/8, $0x3FE0000000000000
DATA konst4<>+112(SB)/8, $0x3FE0000000000000
DATA konst4<>+120(SB)/8, $0x3FE0000000000000
// a0 (offset 128)
DATA konst4<>+128(SB)/8, $0xC043D931BC1E0525
DATA konst4<>+136(SB)/8, $0xC043D931BC1E0525
DATA konst4<>+144(SB)/8, $0xC043D931BC1E0525
DATA konst4<>+152(SB)/8, $0xC043D931BC1E0525
// a1 (offset 160)
DATA konst4<>+160(SB)/8, $0x406B9E467034039B
DATA konst4<>+168(SB)/8, $0x406B9E467034039B
DATA konst4<>+176(SB)/8, $0x406B9E467034039B
DATA konst4<>+184(SB)/8, $0x406B9E467034039B
// a2 (offset 192)
DATA konst4<>+192(SB)/8, $0xC0713EDB2DC53B99
DATA konst4<>+200(SB)/8, $0xC0713EDB2DC53B99
DATA konst4<>+208(SB)/8, $0xC0713EDB2DC53B99
DATA konst4<>+216(SB)/8, $0xC0713EDB2DC53B99
// a3 (offset 224)
DATA konst4<>+224(SB)/8, $0x40614B72B40B401B
DATA konst4<>+232(SB)/8, $0x40614B72B40B401B
DATA konst4<>+240(SB)/8, $0x40614B72B40B401B
DATA konst4<>+248(SB)/8, $0x40614B72B40B401B
// a4 (offset 256)
DATA konst4<>+256(SB)/8, $0xC03EAA3034C08BCD
DATA konst4<>+264(SB)/8, $0xC03EAA3034C08BCD
DATA konst4<>+272(SB)/8, $0xC03EAA3034C08BCD
DATA konst4<>+280(SB)/8, $0xC03EAA3034C08BCD
// a5 (offset 288)
DATA konst4<>+288(SB)/8, $0x40040D9320575479
DATA konst4<>+296(SB)/8, $0x40040D9320575479
DATA konst4<>+304(SB)/8, $0x40040D9320575479
DATA konst4<>+312(SB)/8, $0x40040D9320575479
// b0 (offset 320)
DATA konst4<>+320(SB)/8, $0xC04B3CF0CE3004C4
DATA konst4<>+328(SB)/8, $0xC04B3CF0CE3004C4
DATA konst4<>+336(SB)/8, $0xC04B3CF0CE3004C4
DATA konst4<>+344(SB)/8, $0xC04B3CF0CE3004C4
// b1 (offset 352)
DATA konst4<>+352(SB)/8, $0x406432BF2CF04277
DATA konst4<>+360(SB)/8, $0x406432BF2CF04277
DATA konst4<>+368(SB)/8, $0x406432BF2CF04277
DATA konst4<>+376(SB)/8, $0x406432BF2CF04277
// b2 (offset 384)
DATA konst4<>+384(SB)/8, $0xC063765E0B02D8D2
DATA konst4<>+392(SB)/8, $0xC063765E0B02D8D2
DATA konst4<>+400(SB)/8, $0xC063765E0B02D8D2
DATA konst4<>+408(SB)/8, $0xC063765E0B02D8D2
// b3 (offset 416)
DATA konst4<>+416(SB)/8, $0x4050B348B1A7E9BE
DATA konst4<>+424(SB)/8, $0x4050B348B1A7E9BE
DATA konst4<>+432(SB)/8, $0x4050B348B1A7E9BE
DATA konst4<>+440(SB)/8, $0x4050B348B1A7E9BE
// b4 (offset 448)
DATA konst4<>+448(SB)/8, $0xC02A8FB57E147826
DATA konst4<>+456(SB)/8, $0xC02A8FB57E147826
DATA konst4<>+464(SB)/8, $0xC02A8FB57E147826
DATA konst4<>+472(SB)/8, $0xC02A8FB57E147826
// one (offset 480)
DATA konst4<>+480(SB)/8, $0x3FF0000000000000
DATA konst4<>+488(SB)/8, $0x3FF0000000000000
DATA konst4<>+496(SB)/8, $0x3FF0000000000000
DATA konst4<>+504(SB)/8, $0x3FF0000000000000
// c03 (offset 512)
DATA konst4<>+512(SB)/8, $0x3FD3333333333333
DATA konst4<>+520(SB)/8, $0x3FD3333333333333
DATA konst4<>+528(SB)/8, $0x3FD3333333333333
DATA konst4<>+536(SB)/8, $0x3FD3333333333333
// log2e (offset 544)
DATA konst4<>+544(SB)/8, $0x3FF71547652B82FE
DATA konst4<>+552(SB)/8, $0x3FF71547652B82FE
DATA konst4<>+560(SB)/8, $0x3FF71547652B82FE
DATA konst4<>+568(SB)/8, $0x3FF71547652B82FE
// ln2u (offset 576)
DATA konst4<>+576(SB)/8, $0x3FE62E42FEFA3000
DATA konst4<>+584(SB)/8, $0x3FE62E42FEFA3000
DATA konst4<>+592(SB)/8, $0x3FE62E42FEFA3000
DATA konst4<>+600(SB)/8, $0x3FE62E42FEFA3000
// ln2l (offset 608)
DATA konst4<>+608(SB)/8, $0x3D53DE6AF278ECE6
DATA konst4<>+616(SB)/8, $0x3D53DE6AF278ECE6
DATA konst4<>+624(SB)/8, $0x3D53DE6AF278ECE6
DATA konst4<>+632(SB)/8, $0x3D53DE6AF278ECE6
// sixt (offset 640)
DATA konst4<>+640(SB)/8, $0x3FB0000000000000
DATA konst4<>+648(SB)/8, $0x3FB0000000000000
DATA konst4<>+656(SB)/8, $0x3FB0000000000000
DATA konst4<>+664(SB)/8, $0x3FB0000000000000
// c9 (offset 672)
DATA konst4<>+672(SB)/8, $0x3EFA01A01A01A01A
DATA konst4<>+680(SB)/8, $0x3EFA01A01A01A01A
DATA konst4<>+688(SB)/8, $0x3EFA01A01A01A01A
DATA konst4<>+696(SB)/8, $0x3EFA01A01A01A01A
// c8 (offset 704)
DATA konst4<>+704(SB)/8, $0x3F2A01A01A01A01A
DATA konst4<>+712(SB)/8, $0x3F2A01A01A01A01A
DATA konst4<>+720(SB)/8, $0x3F2A01A01A01A01A
DATA konst4<>+728(SB)/8, $0x3F2A01A01A01A01A
// c7 (offset 736)
DATA konst4<>+736(SB)/8, $0x3F56C16C16C16C17
DATA konst4<>+744(SB)/8, $0x3F56C16C16C16C17
DATA konst4<>+752(SB)/8, $0x3F56C16C16C16C17
DATA konst4<>+760(SB)/8, $0x3F56C16C16C16C17
// c6 (offset 768)
DATA konst4<>+768(SB)/8, $0x3F81111111111111
DATA konst4<>+776(SB)/8, $0x3F81111111111111
DATA konst4<>+784(SB)/8, $0x3F81111111111111
DATA konst4<>+792(SB)/8, $0x3F81111111111111
// c5 (offset 800)
DATA konst4<>+800(SB)/8, $0x3FA5555555555555
DATA konst4<>+808(SB)/8, $0x3FA5555555555555
DATA konst4<>+816(SB)/8, $0x3FA5555555555555
DATA konst4<>+824(SB)/8, $0x3FA5555555555555
// c4 (offset 832)
DATA konst4<>+832(SB)/8, $0x3FC5555555555555
DATA konst4<>+840(SB)/8, $0x3FC5555555555555
DATA konst4<>+848(SB)/8, $0x3FC5555555555555
DATA konst4<>+856(SB)/8, $0x3FC5555555555555
// two (offset 864)
DATA konst4<>+864(SB)/8, $0x4000000000000000
DATA konst4<>+872(SB)/8, $0x4000000000000000
DATA konst4<>+880(SB)/8, $0x4000000000000000
DATA konst4<>+888(SB)/8, $0x4000000000000000
// int32 exponent bias x4 (offset 896)
DATA konst4<>+896(SB)/4, $0x000003FF
DATA konst4<>+900(SB)/4, $0x000003FF
DATA konst4<>+904(SB)/4, $0x000003FF
DATA konst4<>+908(SB)/4, $0x000003FF
// int64 lane offsets 0..3 (offset 912)
DATA konst4<>+912(SB)/8, $0
DATA konst4<>+920(SB)/8, $1
DATA konst4<>+928(SB)/8, $2
DATA konst4<>+936(SB)/8, $3
// int64 4 (offset 944)
DATA konst4<>+944(SB)/8, $4
DATA konst4<>+952(SB)/8, $4
DATA konst4<>+960(SB)/8, $4
DATA konst4<>+968(SB)/8, $4
// low-32 mask (offset 976)
DATA konst4<>+976(SB)/8, $0x00000000FFFFFFFF
DATA konst4<>+984(SB)/8, $0x00000000FFFFFFFF
DATA konst4<>+992(SB)/8, $0x00000000FFFFFFFF
DATA konst4<>+1000(SB)/8, $0x00000000FFFFFFFF
// splitmix64 multiplier 1 (offset 1008)
DATA konst4<>+1008(SB)/8, $0xBF58476D1CE4E5B9
DATA konst4<>+1016(SB)/8, $0xBF58476D1CE4E5B9
DATA konst4<>+1024(SB)/8, $0xBF58476D1CE4E5B9
DATA konst4<>+1032(SB)/8, $0xBF58476D1CE4E5B9
// multiplier 1 high half (offset 1040)
DATA konst4<>+1040(SB)/8, $0x00000000BF58476D
DATA konst4<>+1048(SB)/8, $0x00000000BF58476D
DATA konst4<>+1056(SB)/8, $0x00000000BF58476D
DATA konst4<>+1064(SB)/8, $0x00000000BF58476D
// splitmix64 multiplier 2 (offset 1072)
DATA konst4<>+1072(SB)/8, $0x94D049BB133111EB
DATA konst4<>+1080(SB)/8, $0x94D049BB133111EB
DATA konst4<>+1088(SB)/8, $0x94D049BB133111EB
DATA konst4<>+1096(SB)/8, $0x94D049BB133111EB
// multiplier 2 high half (offset 1104)
DATA konst4<>+1104(SB)/8, $0x0000000094D049BB
DATA konst4<>+1112(SB)/8, $0x0000000094D049BB
DATA konst4<>+1120(SB)/8, $0x0000000094D049BB
DATA konst4<>+1128(SB)/8, $0x0000000094D049BB
// 2^52 (int bits and double) (offset 1136)
DATA konst4<>+1136(SB)/8, $0x4330000000000000
DATA konst4<>+1144(SB)/8, $0x4330000000000000
DATA konst4<>+1152(SB)/8, $0x4330000000000000
DATA konst4<>+1160(SB)/8, $0x4330000000000000
// 2^32 as double (offset 1168)
DATA konst4<>+1168(SB)/8, $0x41F0000000000000
DATA konst4<>+1176(SB)/8, $0x41F0000000000000
DATA konst4<>+1184(SB)/8, $0x41F0000000000000
DATA konst4<>+1192(SB)/8, $0x41F0000000000000
GLOBL konst4<>(SB), RODATA, $1200
#define K_inv53 0
#define K_plow 32
#define K_phigh 64
#define K_half 96
#define K_a0 128
#define K_a1 160
#define K_a2 192
#define K_a3 224
#define K_a4 256
#define K_a5 288
#define K_b0 320
#define K_b1 352
#define K_b2 384
#define K_b3 416
#define K_b4 448
#define K_one 480
#define K_c03 512
#define K_log2e 544
#define K_ln2u 576
#define K_ln2l 608
#define K_sixt 640
#define K_c9 672
#define K_c8 704
#define K_c7 736
#define K_c6 768
#define K_c5 800
#define K_c4 832
#define K_two 864
#define K_bias 896
#define K_iota 912
#define K_four 944
#define K_mask32 976
#define K_m1 1008
#define K_m1hi 1040
#define K_m2 1072
#define K_m2hi 1104
#define K_magic 1136
#define K_two32 1168

// func jitterAccumRow4(acc, prof *float64, avg float64, n int, base uint64, t0 int, spill *int32) int
// acc[i] += (avg*prof[i])*jitter(i) for central lanes (+0 for spilled
// ones, which the caller patches); n must be a positive multiple of 4.
TEXT ·jitterAccumRow4(SB), NOSPLIT, $0-64
	MOVQ acc+0(FP), DI
	MOVQ prof+8(FP), SI
	VBROADCASTSD avg+16(FP), Y15
	MOVQ n+24(FP), CX
	MOVQ base+32(FP), R8
	MOVQ t0+40(FP), R9
	MOVQ spill+48(FP), R10
	XORQ R11, R11                   // spill count
	XORQ R12, R12                   // i
	MOVQ R9, X8
	VPBROADCASTQ X8, Y8
	VPADDQ konst4<>+K_iota(SB), Y8, Y8  // t lanes {t0, t0+1, t0+2, t0+3}
	MOVQ R8, X10
	VPBROADCASTQ X10, Y9                // per-stream hash base

fquad:
	CMPQ R12, CX
	JGE  fdone

	// ---- four splitmix64 lanes, 4-wide (64x64 low multiply built from
	// VPMULUDQ halves; uint64->double via the exact split conversion:
	// double(hi)*2^32 + double(lo), both steps exact below 2^53) ----
	VPAND konst4<>+K_mask32(SB), Y8, Y10 // uint64(uint32(t))
	VPXOR Y9, Y10, Y10                   // x = base ^ t32
	VPSRLQ $30, Y10, Y11
	VPXOR Y11, Y10, Y10                  // x ^= x>>30
	VPSRLQ $32, Y10, Y11
	VPMULUDQ konst4<>+K_m1(SB), Y10, Y12 // lo(x)*lo(m1)
	VPMULUDQ konst4<>+K_m1(SB), Y11, Y11 // hi(x)*lo(m1)
	VPMULUDQ konst4<>+K_m1hi(SB), Y10, Y13 // lo(x)*hi(m1)
	VPADDQ Y13, Y11, Y11
	VPSLLQ $32, Y11, Y11
	VPADDQ Y11, Y12, Y10                 // x *= m1
	VPSRLQ $27, Y10, Y11
	VPXOR Y11, Y10, Y10                  // x ^= x>>27
	VPSRLQ $32, Y10, Y11
	VPMULUDQ konst4<>+K_m2(SB), Y10, Y12
	VPMULUDQ konst4<>+K_m2(SB), Y11, Y11
	VPMULUDQ konst4<>+K_m2hi(SB), Y10, Y13
	VPADDQ Y13, Y11, Y11
	VPSLLQ $32, Y11, Y11
	VPADDQ Y11, Y12, Y10                 // x *= m2
	VPSRLQ $31, Y10, Y11
	VPXOR Y11, Y10, Y10                  // x ^= x>>31
	VPSRLQ $11, Y10, Y10                 // v = x>>11 (< 2^53)
	VPAND konst4<>+K_mask32(SB), Y10, Y11
	VPSRLQ $32, Y10, Y12
	VPOR konst4<>+K_magic(SB), Y11, Y11
	VPOR konst4<>+K_magic(SB), Y12, Y12
	VSUBPD konst4<>+K_magic(SB), Y11, Y11 // double(lo), exact
	VSUBPD konst4<>+K_magic(SB), Y12, Y12 // double(hi), exact
	VMULPD konst4<>+K_two32(SB), Y12, Y12 // *2^32, exact (hi <= 2^21)
	VADDPD Y11, Y12, Y0                   // double(v), exact
	VPADDQ konst4<>+K_four(SB), Y8, Y8    // advance t lanes

	// ---- u = conv * 2^-53 ----
	VMULPD konst4<>+K_inv53(SB), Y0, Y0

	// ---- central-branch mask: plow <= u <= 1-plow ----
	VCMPPD $0x1D, konst4<>+K_plow(SB), Y0, Y3   // u >= plow (GE_OQ)
	VCMPPD $0x12, konst4<>+K_phigh(SB), Y0, Y1  // u <= 1-plow (LE_OQ)
	VANDPD Y1, Y3, Y3
	VMOVMSKPD Y3, R13

	// ---- Acklam central branch (mul/add, no fusion, one divide) ----
	VSUBPD konst4<>+K_half(SB), Y0, Y1          // q = u - 0.5
	VMULPD Y1, Y1, Y2                           // r = q*q
	VMOVUPD konst4<>+K_a0(SB), Y4
	VMULPD Y2, Y4, Y4
	VADDPD konst4<>+K_a1(SB), Y4, Y4            // a0*r + a1
	VMULPD Y2, Y4, Y4
	VADDPD konst4<>+K_a2(SB), Y4, Y4
	VMULPD Y2, Y4, Y4
	VADDPD konst4<>+K_a3(SB), Y4, Y4
	VMULPD Y2, Y4, Y4
	VADDPD konst4<>+K_a4(SB), Y4, Y4
	VMULPD Y2, Y4, Y4
	VADDPD konst4<>+K_a5(SB), Y4, Y4
	VMULPD Y1, Y4, Y4                           // numerator * q
	VMOVUPD konst4<>+K_b0(SB), Y5
	VMULPD Y2, Y5, Y5
	VADDPD konst4<>+K_b1(SB), Y5, Y5            // b0*r + b1
	VMULPD Y2, Y5, Y5
	VADDPD konst4<>+K_b2(SB), Y5, Y5
	VMULPD Y2, Y5, Y5
	VADDPD konst4<>+K_b3(SB), Y5, Y5
	VMULPD Y2, Y5, Y5
	VADDPD konst4<>+K_b4(SB), Y5, Y5
	VMULPD Y2, Y5, Y5
	VADDPD konst4<>+K_one(SB), Y5, Y5           // denominator
	VDIVPD Y5, Y4, Y4                           // norm = (num*q) / den

	// ---- x = 0.3 * norm ----
	VMULPD konst4<>+K_c03(SB), Y4, Y4

	// ---- exp(x): the avxfma sequence of math.archExp ----
	VMULPD konst4<>+K_log2e(SB), Y4, Y5         // x * log2(e)
	VCVTPD2DQY Y5, X6                           // e (round to nearest int32)
	VCVTDQ2PD X6, Y5                            // float64(e)
	VFNMADD231PD konst4<>+K_ln2u(SB), Y5, Y4    // x -= e*ln2u (fused)
	VFNMADD231PD konst4<>+K_ln2l(SB), Y5, Y4    // x -= e*ln2l (fused)
	VMULPD konst4<>+K_sixt(SB), Y4, Y4          // x *= 0.0625
	VMOVUPD konst4<>+K_c9(SB), Y7
	VFMADD213PD konst4<>+K_c8(SB), Y4, Y7       // h = h*x + c (fused), Taylor chain
	VFMADD213PD konst4<>+K_c7(SB), Y4, Y7
	VFMADD213PD konst4<>+K_c6(SB), Y4, Y7
	VFMADD213PD konst4<>+K_c5(SB), Y4, Y7
	VFMADD213PD konst4<>+K_c4(SB), Y4, Y7
	VFMADD213PD konst4<>+K_half(SB), Y4, Y7     // ... + 0.5
	VFMADD213PD konst4<>+K_one(SB), Y4, Y7      // ... + 1.0
	VMULPD Y7, Y4, Y4                           // x *= h
	VADDPD konst4<>+K_two(SB), Y4, Y5           // w = x + 2
	VMULPD Y5, Y4, Y4                           // x *= w (un-reduce, 4 rounds)
	VADDPD konst4<>+K_two(SB), Y4, Y5
	VMULPD Y5, Y4, Y4
	VADDPD konst4<>+K_two(SB), Y4, Y5
	VMULPD Y5, Y4, Y4
	VADDPD konst4<>+K_two(SB), Y4, Y5
	VFMADD213PD konst4<>+K_one(SB), Y5, Y4      // x = x*w + 1 (fused)
	VPADDD konst4<>+K_bias(SB), X6, X6          // biased exponent
	VPMOVSXDQ X6, Y5
	VPSLLQ $52, Y5, Y5
	VMULPD Y5, Y4, Y4                           // x *= 2^e

	// ---- blend tail-branch lanes to zero, fold into acc, spill ----
	VANDPD Y3, Y4, Y4
	VMOVUPD (SI), Y5
	VMULPD Y15, Y5, Y5              // avg * prof[i]
	VMULPD Y4, Y5, Y5               // ... * j[i] (+0.0 on spilled lanes)
	VMOVUPD (DI), Y6
	VADDPD Y5, Y6, Y6               // acc[i] + val
	VMOVUPD Y6, (DI)
	XORL $0xF, R13
	JZ   fnext
	TESTL $1, R13
	JZ   flane1
	MOVL R12, AX
	MOVL AX, (R10)(R11*4)
	INCQ R11
flane1:
	TESTL $2, R13
	JZ   flane2
	LEAQ 1(R12), AX
	MOVL AX, (R10)(R11*4)
	INCQ R11
flane2:
	TESTL $4, R13
	JZ   flane3
	LEAQ 2(R12), AX
	MOVL AX, (R10)(R11*4)
	INCQ R11
flane3:
	TESTL $8, R13
	JZ   fnext
	LEAQ 3(R12), AX
	MOVL AX, (R10)(R11*4)
	INCQ R11
fnext:
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $4, R12
	JMP  fquad

fdone:
	MOVQ R11, ret+56(FP)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() uint64
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	SHLQ $32, DX
	ORQ  DX, AX
	MOVQ AX, ret+0(FP)
	RET

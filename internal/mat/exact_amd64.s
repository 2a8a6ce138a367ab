//go:build amd64

#include "textflag.h"

// Exact transcendental kernels: vector lanes of math.Exp and math.Tanh
// that reproduce the standard library bit for bit (see exact_amd64.go for
// the dispatch and ARCHITECTURE.md §18 for the argument).
//
// math.Exp on amd64 is $GOROOT/src/math/exp_amd64.s. Where math's useFMA
// holds (AVX && FMA) it takes this path for a finite x ≤ Overflow whose
// exponent k lands in the normal range:
//
//	k  = CVTSD2SL(x·log2e)             round to nearest even
//	r  = FNMADD(k, ln2u, x)            one rounding
//	r  = FNMADD(k, ln2l, r)
//	r *= 1/16
//	p  = FMA(…FMA(c8, r, c7)…, r, 1)   Horner over c8..c3, ½, 1
//	r *= p                             e^(r) − 1 at the 1/16 argument
//	r *= r + 2                         three squarings of 1 + r, each as
//	…                                  (e−1)(e+1) = e²−1
//	r  = FMA(r + 2, r, 1)              the fourth, fused with the +1
//	return r · float64frombits((k+1023)<<52)
//
// Every step above is one IEEE operation, so lane i of the packed form
// (VCVTPD2DQ, VFNMADD231PD, VFMADD213PD, VMULPD, VADDPD) rounds exactly
// like the scalar instruction. Each kernel handles whole vectors only and
// returns how many elements it wrote; it stops, without storing, at the
// first vector holding a lane archExp would send elsewhere — not finite,
// above Overflow, or k outside [−1022, 1023] (the denormal, underflow and
// rounding-overflow branches) — and the Go side computes that vector with
// the scalar function before calling the kernel again.
//
// math.Tanh on amd64 is the portable $GOROOT/src/math/tanh.go, compiled
// with separate multiply and add (the amd64 backend contracts to FMA only
// for an explicit math.FMA). The tanh kernels evaluate every branch in
// Go's operation order and blend per lane; a NaN lane hands its vector
// back to the scalar function.
//
// Constants are 64-byte RODATA vectors (eight copies) used directly as
// memory operands: the AVX-512 kernels read all 64 bytes, the AVX2 kernels
// the first 32. The AVX-512 kernels use only AVX512F instructions (the
// only extension detectGEMMLevel checks).

#define VCONST(name, bits) \
	DATA name<>+0(SB)/8, $bits;  \
	DATA name<>+8(SB)/8, $bits;  \
	DATA name<>+16(SB)/8, $bits; \
	DATA name<>+24(SB)/8, $bits; \
	DATA name<>+32(SB)/8, $bits; \
	DATA name<>+40(SB)/8, $bits; \
	DATA name<>+48(SB)/8, $bits; \
	DATA name<>+56(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $64

// exp_amd64.s constants, bit for bit (LOG2E, LN2U, LN2L, Overflow, the
// 1/16 reduction and exprodata's Taylor coefficients).
VCONST(exLog2E, 0x3FF71547652B82FE)
VCONST(exLn2U, 0x3FE62E42FEFA3000)
VCONST(exLn2L, 0x3D53DE6AF278ECE6)
VCONST(exOverflow, 0x40862E42FEFA39EF)
VCONST(exSixteenth, 0x3FB0000000000000)
VCONST(exC8, 0x3EFA01A01A01A01A)
VCONST(exC7, 0x3F2A01A01A01A01A)
VCONST(exC6, 0x3F56C16C16C16C17)
VCONST(exC5, 0x3F81111111111111)
VCONST(exC4, 0x3FA5555555555555)
VCONST(exC3, 0x3FC5555555555555)
VCONST(exHalf, 0x3FE0000000000000)
VCONST(exOne, 0x3FF0000000000000)
VCONST(exTwo, 0x4000000000000000)

// The normal-exponent window of archExp's ldexp step, k ∈ [−1022, 1023],
// and its exponent bias as an int64.
VCONST(exKLo, 0xC08FF00000000000)
VCONST(exKHi, 0x408FF80000000000)
VCONST(exBias, 0x00000000000003FF)

VCONST(exSign, 0x8000000000000000)
VCONST(exAbs, 0x7FFFFFFFFFFFFFFF)

// tanh.go constants: tanhP, tanhQ, 0.5·MAXLOG and the 0.625 split.
VCONST(thP0, 0xBFEEDC5BAAFD6F4B)
VCONST(thP1, 0xC058D26A0E26682D)
VCONST(thP2, 0xC0993AC030580563)
VCONST(thQ0, 0x405C33F28A581B86)
VCONST(thQ1, 0x40A176FA0E5535FA)
VCONST(thQ2, 0x40B2EC102442040C)
VCONST(thBig, 0x404601E678FC457B)
VCONST(thMid, 0x3FE4000000000000)

// EXPCORE runs archExp's FMA path on X (preserved) up to, not including,
// the 2^k scale: R gets the mantissa factor, KD = k as float64 and KI its
// int32 lanes (a half-width register). CVT is the width's VCVTPD2DQ
// spelling; P is clobbered.
#define EXPCORE(CVT, X, KI, KD, R, P) \
	VMULPD       exLog2E<>(SB), X, KD;     \
	CVT          KD, KI;                   \
	VCVTDQ2PD    KI, KD;                   \
	VMOVAPD      X, R;                     \
	VFNMADD231PD exLn2U<>(SB), KD, R;      \
	VFNMADD231PD exLn2L<>(SB), KD, R;      \
	VMULPD       exSixteenth<>(SB), R, R;  \
	VMOVUPD      exC8<>(SB), P;            \
	VFMADD213PD  exC7<>(SB), R, P;         \
	VFMADD213PD  exC6<>(SB), R, P;         \
	VFMADD213PD  exC5<>(SB), R, P;         \
	VFMADD213PD  exC4<>(SB), R, P;         \
	VFMADD213PD  exC3<>(SB), R, P;         \
	VFMADD213PD  exHalf<>(SB), R, P;       \
	VFMADD213PD  exOne<>(SB), R, P;        \
	VMULPD       P, R, R;                  \
	VADDPD       exTwo<>(SB), R, P;        \
	VMULPD       P, R, R;                  \
	VADDPD       exTwo<>(SB), R, P;        \
	VMULPD       P, R, R;                  \
	VADDPD       exTwo<>(SB), R, P;        \
	VMULPD       P, R, R;                  \
	VADDPD       exTwo<>(SB), R, P;        \
	VFMADD213PD  exOne<>(SB), P, R

// EXPSCALE multiplies R by 2^k, k from the int32 lanes KI; KW is clobbered.
#define EXPSCALE(KI, KW, R) \
	VPMOVSXDQ KI, KW;             \
	VPADDQ    exBias<>(SB), KW, KW; \
	VPSLLQ    $52, KW, KW;        \
	VMULPD    KW, R, R

// EXPRARE512 jumps to bail when any lane of X (with exponent KD) leaves
// archExp's normal path: !(x ≤ Overflow) catches NaN, +Inf and overflow;
// the k window catches −Inf, the denormal/underflow branch and a k that
// rounds up to 1024.
#define EXPRARE512(X, KD, bail) \
	VCMPPD   $0x16, exOverflow<>(SB), X, K1; \
	VCMPPD   $0x11, exKLo<>(SB), KD, K2;     \
	KORW     K2, K1, K1;                     \
	VCMPPD   $0x1E, exKHi<>(SB), KD, K2;     \
	KORTESTW K2, K1;                         \
	JNE      bail

#define EXPRARE256(X, KD, T1, T2, bail) \
	VCMPPD $0x16, exOverflow<>(SB), X, T1; \
	VCMPPD $0x11, exKLo<>(SB), KD, T2;     \
	VORPD  T2, T1, T1;                     \
	VCMPPD $0x1E, exKHi<>(SB), KD, T2;     \
	VORPD  T2, T1, T1;                     \
	VPTEST T1, T1;                         \
	JNE    bail

// func expAVX512(dst, src *float64, n int) int
// dst[i] = math.Exp(src[i]) over whole 8-lane vectors; n is a multiple of
// 8; dst may alias src. Returns the elements written (see header).
TEXT ·expAVX512(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

e5loop:
	CMPQ AX, CX
	JGE  e5done
	VMOVUPD (SI)(AX*8), Z0
	EXPCORE(VCVTPD2DQ, Z0, Y2, Z1, Z3, Z4)
	EXPRARE512(Z0, Z1, e5done)
	EXPSCALE(Y2, Z5, Z3)
	VMOVUPD Z3, (DI)(AX*8)
	ADDQ    $8, AX
	JMP     e5loop

e5done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func expAVX2(dst, src *float64, n int) int
// The 4-lane form of expAVX512; n is a multiple of 4.
TEXT ·expAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

e2loop:
	CMPQ AX, CX
	JGE  e2done
	VMOVUPD (SI)(AX*8), Y0
	EXPCORE(VCVTPD2DQY, Y0, X2, Y1, Y3, Y4)
	EXPRARE256(Y0, Y1, Y6, Y7, e2done)
	EXPSCALE(X2, Y5, Y3)
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     e2loop

e2done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func sigmoidAVX512(dst, src *float64, n int) int
// dst[i] = 1/(1+math.Exp(−src[i])) — the tape's sigmoid — over whole
// 8-lane vectors; the negation is a sign flip, the add and the divide are
// correctly rounded per lane. Same contract as expAVX512.
TEXT ·sigmoidAVX512(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

s5loop:
	CMPQ AX, CX
	JGE  s5done
	VMOVUPD (SI)(AX*8), Z0
	VPXORQ  exSign<>(SB), Z0, Z0
	EXPCORE(VCVTPD2DQ, Z0, Y2, Z1, Z3, Z4)
	EXPRARE512(Z0, Z1, s5done)
	EXPSCALE(Y2, Z5, Z3)
	VADDPD  exOne<>(SB), Z3, Z3
	VMOVUPD exOne<>(SB), Z6
	VDIVPD  Z3, Z6, Z3
	VMOVUPD Z3, (DI)(AX*8)
	ADDQ    $8, AX
	JMP     s5loop

s5done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func sigmoidAVX2(dst, src *float64, n int) int
// The 4-lane form of sigmoidAVX512; n is a multiple of 4.
TEXT ·sigmoidAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

s2loop:
	CMPQ AX, CX
	JGE  s2done
	VMOVUPD (SI)(AX*8), Y0
	VXORPD  exSign<>(SB), Y0, Y0
	EXPCORE(VCVTPD2DQY, Y0, X2, Y1, Y3, Y4)
	EXPRARE256(Y0, Y1, Y6, Y7, s2done)
	EXPSCALE(X2, Y5, Y3)
	VADDPD  exOne<>(SB), Y3, Y3
	VMOVUPD exOne<>(SB), Y6
	VDIVPD  Y3, Y6, Y3
	VMOVUPD Y3, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     s2loop

s2done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// TANHRATIONAL computes tanh.go's small-|x| form in its operation order,
// x + x·s·P(s)/Q(s) with s = x·x, into OUT; S, P, Q are clobbered.
#define TANHRATIONAL(X, S, P, Q, OUT) \
	VMULPD X, X, S;               \
	VMULPD thP0<>(SB), S, P;      \
	VADDPD thP1<>(SB), P, P;      \
	VMULPD S, P, P;               \
	VADDPD thP2<>(SB), P, P;      \
	VADDPD thQ0<>(SB), S, Q;      \
	VMULPD S, Q, Q;               \
	VADDPD thQ1<>(SB), Q, Q;      \
	VMULPD S, Q, Q;               \
	VADDPD thQ2<>(SB), Q, Q;      \
	VMULPD S, X, OUT;             \
	VMULPD P, OUT, OUT;           \
	VDIVPD Q, OUT, OUT;           \
	VADDPD OUT, X, OUT

// TANHMID computes tanh.go's 0.625 ≤ |x| form, 1 − 2/(Exp(2|x|)+1), from
// Z = |x| into R (the sign is restored by the caller); every temporary
// after Z is clobbered. Lanes outside the form compute garbage that the
// caller's blends discard; their 2|x| may leave archExp's normal path,
// but the form's own lanes have 2|x| ∈ [1.25, 88.03], k ∈ [2, 127].
#define TANHMID(CVT, Z, X2Z, KI, KD, R, P, KW) \
	VADDPD  Z, Z, X2Z;                   \
	EXPCORE(CVT, X2Z, KI, KD, R, P);     \
	EXPSCALE(KI, KW, R);                 \
	VADDPD  exOne<>(SB), R, R;           \
	VMOVUPD exTwo<>(SB), P;              \
	VDIVPD  R, P, R;                     \
	VMOVUPD exOne<>(SB), P;              \
	VSUBPD  R, P, R

// func tanhAVX512(dst, src *float64, n int) int
// dst[i] = math.Tanh(src[i]) over whole 8-lane vectors, stopping at the
// first vector with a NaN lane; n is a multiple of 8; dst may alias src.
TEXT ·tanhAVX512(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	VPXORQ Z15, Z15, Z15

t5loop:
	CMPQ AX, CX
	JGE  t5done
	VMOVUPD  (SI)(AX*8), Z0
	VCMPPD   $3, Z0, Z0, K1 // UNORD_Q: NaN lane
	KORTESTW K1, K1
	JNE      t5done
	VPANDQ   exAbs<>(SB), Z0, Z1  // z = |x|
	VPANDQ   exSign<>(SB), Z0, Z8 // sign of x
	TANHMID(VCVTPD2DQ, Z1, Z6, Y2, Z7, Z3, Z4, Z5)
	VPORQ    Z8, Z3, Z3           // z = −z for x < 0 (z > 0 here)
	TANHRATIONAL(Z0, Z9, Z10, Z11, Z12)
	VCMPPD   $0x1D, thMid<>(SB), Z1, K2 // GE_OQ: |x| ≥ 0.625
	VMOVAPD  Z3, K2, Z12
	VCMPPD   $0x1E, thBig<>(SB), Z1, K3 // GT_OQ: |x| > 0.5·MAXLOG
	VPORQ    exOne<>(SB), Z8, Z13       // ±1
	VMOVAPD  Z13, K3, Z12
	VCMPPD   $0, Z15, Z0, K4            // EQ_OQ: x == ±0 returns x
	VMOVAPD  Z0, K4, Z12
	VMOVUPD  Z12, (DI)(AX*8)
	ADDQ     $8, AX
	JMP      t5loop

t5done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

// func tanhAVX2(dst, src *float64, n int) int
// The 4-lane form of tanhAVX512; n is a multiple of 4.
TEXT ·tanhAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ src+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	VXORPD Y15, Y15, Y15

t2loop:
	CMPQ AX, CX
	JGE  t2done
	VMOVUPD (SI)(AX*8), Y0
	VCMPPD  $3, Y0, Y0, Y14 // UNORD_Q: NaN lane
	VPTEST  Y14, Y14
	JNE     t2done
	VANDPD  exAbs<>(SB), Y0, Y1  // z = |x|
	VANDPD  exSign<>(SB), Y0, Y8 // sign of x
	TANHMID(VCVTPD2DQY, Y1, Y6, X2, Y7, Y3, Y4, Y5)
	VORPD   Y8, Y3, Y3           // z = −z for x < 0 (z > 0 here)
	TANHRATIONAL(Y0, Y9, Y10, Y11, Y12)
	VCMPPD    $0x1D, thMid<>(SB), Y1, Y13 // GE_OQ: |x| ≥ 0.625
	VBLENDVPD Y13, Y3, Y12, Y12
	VCMPPD    $0x1E, thBig<>(SB), Y1, Y13 // GT_OQ: |x| > 0.5·MAXLOG
	VORPD     exOne<>(SB), Y8, Y14        // ±1
	VBLENDVPD Y13, Y14, Y12, Y12
	VCMPPD    $0, Y15, Y0, Y13            // EQ_OQ: x == ±0 returns x
	VBLENDVPD Y13, Y0, Y12, Y12
	VMOVUPD   Y12, (DI)(AX*8)
	ADDQ      $4, AX
	JMP       t2loop

t2done:
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET

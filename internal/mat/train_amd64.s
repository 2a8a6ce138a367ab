// SIMD training kernels for the autodiff tape's backward pass and the Adam
// optimiser. Like the forward GEMM (gemm_amd64.s) they vectorise across
// independent output elements only: each vector lane performs exactly the
// scalar loop's operations for its own element, in the scalar order, with
// separate VMULPD/VADDPD (never VFMADD), and VDIVPD/VSQRTPD are IEEE
// correctly rounded — so results are bit-identical to the scalar kernels
// (pinned by the parity tests in train_amd64_test.go and the end-to-end
// training golden in internal/core).

#include "textflag.h"

// func rank1AVX512(dst, a, b *float64, nk, m int)
//
// The rank-1 update behind MatMulATInto: for every k < nk whose a[k] is
// not ±0, dst[k*m+j] += a[k]*b[j] for j < m&^7. The ±0 skip mirrors the
// scalar `if av == 0 { continue }` (tested on the bits with the sign
// shifted out, so NaN is not skipped); columns at and past m&^7 are left
// to the Go caller.
TEXT ·rank1AVX512(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ nk+24(FP), R8
	MOVQ m+32(FP), R9
	MOVQ R9, R10
	ANDQ $-8, R10          // mAsm = m &^ 7
	JZ   k512done
	SHLQ $3, R9            // dst row stride in bytes
	TESTQ R8, R8
	JZ   k512done
k512row:
	MOVQ (SI), AX
	SHLQ $1, AX            // drop the sign: ±0 → 0
	JZ   k512next
	VBROADCASTSD (SI), Z0
	XORQ R12, R12          // j
k512j32:
	LEAQ 32(R12), AX
	CMPQ AX, R10
	JG   k512j8
	VMULPD (DX)(R12*8), Z0, Z1
	VADDPD (DI)(R12*8), Z1, Z1
	VMOVUPD Z1, (DI)(R12*8)
	VMULPD 64(DX)(R12*8), Z0, Z2
	VADDPD 64(DI)(R12*8), Z2, Z2
	VMOVUPD Z2, 64(DI)(R12*8)
	VMULPD 128(DX)(R12*8), Z0, Z3
	VADDPD 128(DI)(R12*8), Z3, Z3
	VMOVUPD Z3, 128(DI)(R12*8)
	VMULPD 192(DX)(R12*8), Z0, Z4
	VADDPD 192(DI)(R12*8), Z4, Z4
	VMOVUPD Z4, 192(DI)(R12*8)
	MOVQ AX, R12
	JMP  k512j32
k512j8:
	LEAQ 8(R12), AX
	CMPQ AX, R10
	JG   k512next
	VMULPD (DX)(R12*8), Z0, Z1
	VADDPD (DI)(R12*8), Z1, Z1
	VMOVUPD Z1, (DI)(R12*8)
	MOVQ AX, R12
	JMP  k512j8
k512next:
	ADDQ $8, SI
	ADDQ R9, DI
	DECQ R8
	JNZ  k512row
k512done:
	VZEROUPPER
	RET

// func rank1AVX2(dst, a, b *float64, nk, m int)
// As rank1AVX512 over j < m&^3.
TEXT ·rank1AVX2(SB), NOSPLIT, $0-40
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ nk+24(FP), R8
	MOVQ m+32(FP), R9
	MOVQ R9, R10
	ANDQ $-4, R10          // mAsm = m &^ 3
	JZ   k2done
	SHLQ $3, R9
	TESTQ R8, R8
	JZ   k2done
k2row:
	MOVQ (SI), AX
	SHLQ $1, AX
	JZ   k2next
	VBROADCASTSD (SI), Y0
	XORQ R12, R12
k2j16:
	LEAQ 16(R12), AX
	CMPQ AX, R10
	JG   k2j4
	VMULPD (DX)(R12*8), Y0, Y1
	VADDPD (DI)(R12*8), Y1, Y1
	VMOVUPD Y1, (DI)(R12*8)
	VMULPD 32(DX)(R12*8), Y0, Y2
	VADDPD 32(DI)(R12*8), Y2, Y2
	VMOVUPD Y2, 32(DI)(R12*8)
	VMULPD 64(DX)(R12*8), Y0, Y3
	VADDPD 64(DI)(R12*8), Y3, Y3
	VMOVUPD Y3, 64(DI)(R12*8)
	VMULPD 96(DX)(R12*8), Y0, Y4
	VADDPD 96(DI)(R12*8), Y4, Y4
	VMOVUPD Y4, 96(DI)(R12*8)
	MOVQ AX, R12
	JMP  k2j16
k2j4:
	LEAQ 4(R12), AX
	CMPQ AX, R10
	JG   k2next
	VMULPD (DX)(R12*8), Y0, Y1
	VADDPD (DI)(R12*8), Y1, Y1
	VMOVUPD Y1, (DI)(R12*8)
	MOVQ AX, R12
	JMP  k2j4
k2next:
	ADDQ $8, SI
	ADDQ R9, DI
	DECQ R8
	JNZ  k2row
k2done:
	VZEROUPPER
	RET

// func adamAVX512(p, m, v, grad *float64, n int, c *AdamCoeffs)
//
// One Adam element update per lane over n (a multiple of 8) elements,
// evaluating AdamUpdateInto's scalar expression tree operation for
// operation:
//
//	m' = B1*m + C1*g          v' = B2*v + (C2*g)*g
//	p' = p - (LR*(m'/BC1)) / (sqrt(v'/BC2) + Eps)
//
// AdamCoeffs field offsets: B1 0, C1 8, B2 16, C2 24, BC1 32, BC2 40,
// LR 48, Eps 56.
TEXT ·adamAVX512(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ grad+24(FP), BX
	MOVQ n+32(FP), CX
	MOVQ c+40(FP), AX
	SHRQ $3, CX
	JZ   a512done
	VBROADCASTSD 0(AX), Z8
	VBROADCASTSD 8(AX), Z9
	VBROADCASTSD 16(AX), Z10
	VBROADCASTSD 24(AX), Z11
	VBROADCASTSD 32(AX), Z12
	VBROADCASTSD 40(AX), Z13
	VBROADCASTSD 48(AX), Z14
	VBROADCASTSD 56(AX), Z15
a512loop:
	VMOVUPD (BX), Z0       // g
	VMULPD (SI), Z8, Z1    // B1*m
	VMULPD Z0, Z9, Z2      // C1*g
	VADDPD Z2, Z1, Z1      // m'
	VMOVUPD Z1, (SI)
	VMULPD (DX), Z10, Z3   // B2*v
	VMULPD Z0, Z11, Z4     // C2*g
	VMULPD Z0, Z4, Z4      // (C2*g)*g
	VADDPD Z4, Z3, Z3      // v'
	VMOVUPD Z3, (DX)
	VDIVPD Z12, Z1, Z1     // mhat = m'/BC1
	VDIVPD Z13, Z3, Z3     // vhat = v'/BC2
	VSQRTPD Z3, Z3
	VADDPD Z15, Z3, Z3     // sqrt(vhat) + Eps
	VMULPD Z1, Z14, Z1     // LR*mhat
	VDIVPD Z3, Z1, Z1      // (LR*mhat) / (sqrt(vhat)+Eps)
	VMOVUPD (DI), Z5
	VSUBPD Z1, Z5, Z5      // p - step
	VMOVUPD Z5, (DI)
	ADDQ $64, DI
	ADDQ $64, SI
	ADDQ $64, DX
	ADDQ $64, BX
	DECQ CX
	JNZ  a512loop
a512done:
	VZEROUPPER
	RET

// func adamAVX2(p, m, v, grad *float64, n int, c *AdamCoeffs)
// As adamAVX512 over n (a multiple of 4) elements.
TEXT ·adamAVX2(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ grad+24(FP), BX
	MOVQ n+32(FP), CX
	MOVQ c+40(FP), AX
	SHRQ $2, CX
	JZ   a2done
	VBROADCASTSD 0(AX), Y8
	VBROADCASTSD 8(AX), Y9
	VBROADCASTSD 16(AX), Y10
	VBROADCASTSD 24(AX), Y11
	VBROADCASTSD 32(AX), Y12
	VBROADCASTSD 40(AX), Y13
	VBROADCASTSD 48(AX), Y14
	VBROADCASTSD 56(AX), Y15
a2loop:
	VMOVUPD (BX), Y0
	VMULPD (SI), Y8, Y1
	VMULPD Y0, Y9, Y2
	VADDPD Y2, Y1, Y1
	VMOVUPD Y1, (SI)
	VMULPD (DX), Y10, Y3
	VMULPD Y0, Y11, Y4
	VMULPD Y0, Y4, Y4
	VADDPD Y4, Y3, Y3
	VMOVUPD Y3, (DX)
	VDIVPD Y12, Y1, Y1
	VDIVPD Y13, Y3, Y3
	VSQRTPD Y3, Y3
	VADDPD Y15, Y3, Y3
	VMULPD Y1, Y14, Y1
	VDIVPD Y3, Y1, Y1
	VMOVUPD (DI), Y5
	VSUBPD Y1, Y5, Y5
	VMOVUPD Y5, (DI)
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, BX
	DECQ CX
	JNZ  a2loop
a2done:
	VZEROUPPER
	RET

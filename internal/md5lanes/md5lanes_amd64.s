#include "textflag.h"

// block16 runs MD5's compression function over n 64-byte blocks of
// each of 16 lanes at once, one lane per 32-bit element of a ZMM
// register.
//
// Per block, each lane's 64 bytes load into one register (Z16-Z31,
// row i = lane i) and an in-register 16x16 transpose of 32-bit words
// (two unpack stages inside 128-bit lanes, two 128-bit shuffle stages
// across registers, ping-ponging between Z0-Z15 and Z16-Z31) leaves
// message word j of every lane in Z(16+j). The state a, b, c, d lives
// in Z0-Z3 during the 64 steps and in *state between blocks, which
// frees all 32 registers for the transpose. VPTERNLOGD evaluates each
// round function in one instruction and VPROLD does the rotate.

// Message word j of every lane after the transpose (Mj = Z(16+j)).
#define M0 Z16
#define M1 Z17
#define M2 Z18
#define M3 Z19
#define M4 Z20
#define M5 Z21
#define M6 Z22
#define M7 Z23
#define M8 Z24
#define M9 Z25
#define M10 Z26
#define M11 Z27
#define M12 Z28
#define M13 Z29
#define M14 Z30
#define M15 Z31

// Round functions as VPTERNLOGD truth tables over (b, c, d).
#define FF $0xca // (b & c) | (^b & d)
#define GG $0xe4 // (b & d) | (c & ^d)
#define HH $0x96 // b ^ c ^ d
#define II $0x39 // c ^ (b | ^d)

// a = b + ((a + fn(b, c, d) + x + T[t]) <<< s); Z4 is scratch and BX
// points at the table T.
#define STEP(fn, a, b, c, d, x, t, s) \
	VPADDD x, a, a; \
	VPADDD.BCST (t*4)(BX), a, a; \
	VMOVDQA32 b, Z4; \
	VPTERNLOGD fn, d, c, Z4; \
	VPADDD Z4, a, a; \
	VPROLD $s, a, a; \
	VPADDD b, a, a

// Stage 1: interleave the 32-bit words of rows r0 and r1.
#define UNPACK32(r0, r1, lo, hi) \
	VPUNPCKLDQ r1, r0, lo; \
	VPUNPCKHDQ r1, r0, hi

// Stage 2: interleave the 64-bit words of two stage-1 outputs.
#define UNPACK64(r0, r1, lo, hi) \
	VPUNPCKLQDQ r1, r0, lo; \
	VPUNPCKHQDQ r1, r0, hi

// Stages 3 and 4: 128-bit lanes 0,1 / 2,3 (imm 0x44 / 0xee), then
// 0,2 / 1,3 (imm 0x88 / 0xdd), of two registers.
#define SHUF128(imlo, imhi, r0, r1, lo, hi) \
	VSHUFI32X4 imlo, r1, r0, lo; \
	VSHUFI32X4 imhi, r1, r0, hi

// func block16(state *[4][16]uint32, ptrs *[16]*byte, n int)
TEXT ·block16(SB), NOSPLIT, $0-24
	MOVQ state+0(FP), DI
	MOVQ ptrs+8(FP), SI
	MOVQ n+16(FP), CX
	LEAQ table<>(SB), BX
	XORQ DX, DX
	TESTQ CX, CX
	JZ done

loop:
	MOVQ 0(SI), R8
	VMOVDQU32 (R8)(DX*1), Z16
	MOVQ 8(SI), R8
	VMOVDQU32 (R8)(DX*1), Z17
	MOVQ 16(SI), R8
	VMOVDQU32 (R8)(DX*1), Z18
	MOVQ 24(SI), R8
	VMOVDQU32 (R8)(DX*1), Z19
	MOVQ 32(SI), R8
	VMOVDQU32 (R8)(DX*1), Z20
	MOVQ 40(SI), R8
	VMOVDQU32 (R8)(DX*1), Z21
	MOVQ 48(SI), R8
	VMOVDQU32 (R8)(DX*1), Z22
	MOVQ 56(SI), R8
	VMOVDQU32 (R8)(DX*1), Z23
	MOVQ 64(SI), R8
	VMOVDQU32 (R8)(DX*1), Z24
	MOVQ 72(SI), R8
	VMOVDQU32 (R8)(DX*1), Z25
	MOVQ 80(SI), R8
	VMOVDQU32 (R8)(DX*1), Z26
	MOVQ 88(SI), R8
	VMOVDQU32 (R8)(DX*1), Z27
	MOVQ 96(SI), R8
	VMOVDQU32 (R8)(DX*1), Z28
	MOVQ 104(SI), R8
	VMOVDQU32 (R8)(DX*1), Z29
	MOVQ 112(SI), R8
	VMOVDQU32 (R8)(DX*1), Z30
	MOVQ 120(SI), R8
	VMOVDQU32 (R8)(DX*1), Z31

	UNPACK32(Z16, Z17, Z0, Z1)
	UNPACK32(Z18, Z19, Z2, Z3)
	UNPACK32(Z20, Z21, Z4, Z5)
	UNPACK32(Z22, Z23, Z6, Z7)
	UNPACK32(Z24, Z25, Z8, Z9)
	UNPACK32(Z26, Z27, Z10, Z11)
	UNPACK32(Z28, Z29, Z12, Z13)
	UNPACK32(Z30, Z31, Z14, Z15)
	UNPACK64(Z0, Z2, Z16, Z17)
	UNPACK64(Z1, Z3, Z18, Z19)
	UNPACK64(Z4, Z6, Z20, Z21)
	UNPACK64(Z5, Z7, Z22, Z23)
	UNPACK64(Z8, Z10, Z24, Z25)
	UNPACK64(Z9, Z11, Z26, Z27)
	UNPACK64(Z12, Z14, Z28, Z29)
	UNPACK64(Z13, Z15, Z30, Z31)
	SHUF128($0x44, $0xee, Z16, Z20, Z0, Z1)
	SHUF128($0x44, $0xee, Z24, Z28, Z2, Z3)
	SHUF128($0x44, $0xee, Z17, Z21, Z4, Z5)
	SHUF128($0x44, $0xee, Z25, Z29, Z6, Z7)
	SHUF128($0x44, $0xee, Z18, Z22, Z8, Z9)
	SHUF128($0x44, $0xee, Z26, Z30, Z10, Z11)
	SHUF128($0x44, $0xee, Z19, Z23, Z12, Z13)
	SHUF128($0x44, $0xee, Z27, Z31, Z14, Z15)
	SHUF128($0x88, $0xdd, Z0, Z2, Z16, Z20)
	SHUF128($0x88, $0xdd, Z1, Z3, Z24, Z28)
	SHUF128($0x88, $0xdd, Z4, Z6, Z17, Z21)
	SHUF128($0x88, $0xdd, Z5, Z7, Z25, Z29)
	SHUF128($0x88, $0xdd, Z8, Z10, Z18, Z22)
	SHUF128($0x88, $0xdd, Z9, Z11, Z26, Z30)
	SHUF128($0x88, $0xdd, Z12, Z14, Z19, Z23)
	SHUF128($0x88, $0xdd, Z13, Z15, Z27, Z31)

	VMOVDQU32 (DI), Z0
	VMOVDQU32 64(DI), Z1
	VMOVDQU32 128(DI), Z2
	VMOVDQU32 192(DI), Z3

	STEP(FF, Z0, Z1, Z2, Z3, M0, 0, 7)
	STEP(FF, Z3, Z0, Z1, Z2, M1, 1, 12)
	STEP(FF, Z2, Z3, Z0, Z1, M2, 2, 17)
	STEP(FF, Z1, Z2, Z3, Z0, M3, 3, 22)
	STEP(FF, Z0, Z1, Z2, Z3, M4, 4, 7)
	STEP(FF, Z3, Z0, Z1, Z2, M5, 5, 12)
	STEP(FF, Z2, Z3, Z0, Z1, M6, 6, 17)
	STEP(FF, Z1, Z2, Z3, Z0, M7, 7, 22)
	STEP(FF, Z0, Z1, Z2, Z3, M8, 8, 7)
	STEP(FF, Z3, Z0, Z1, Z2, M9, 9, 12)
	STEP(FF, Z2, Z3, Z0, Z1, M10, 10, 17)
	STEP(FF, Z1, Z2, Z3, Z0, M11, 11, 22)
	STEP(FF, Z0, Z1, Z2, Z3, M12, 12, 7)
	STEP(FF, Z3, Z0, Z1, Z2, M13, 13, 12)
	STEP(FF, Z2, Z3, Z0, Z1, M14, 14, 17)
	STEP(FF, Z1, Z2, Z3, Z0, M15, 15, 22)

	STEP(GG, Z0, Z1, Z2, Z3, M1, 16, 5)
	STEP(GG, Z3, Z0, Z1, Z2, M6, 17, 9)
	STEP(GG, Z2, Z3, Z0, Z1, M11, 18, 14)
	STEP(GG, Z1, Z2, Z3, Z0, M0, 19, 20)
	STEP(GG, Z0, Z1, Z2, Z3, M5, 20, 5)
	STEP(GG, Z3, Z0, Z1, Z2, M10, 21, 9)
	STEP(GG, Z2, Z3, Z0, Z1, M15, 22, 14)
	STEP(GG, Z1, Z2, Z3, Z0, M4, 23, 20)
	STEP(GG, Z0, Z1, Z2, Z3, M9, 24, 5)
	STEP(GG, Z3, Z0, Z1, Z2, M14, 25, 9)
	STEP(GG, Z2, Z3, Z0, Z1, M3, 26, 14)
	STEP(GG, Z1, Z2, Z3, Z0, M8, 27, 20)
	STEP(GG, Z0, Z1, Z2, Z3, M13, 28, 5)
	STEP(GG, Z3, Z0, Z1, Z2, M2, 29, 9)
	STEP(GG, Z2, Z3, Z0, Z1, M7, 30, 14)
	STEP(GG, Z1, Z2, Z3, Z0, M12, 31, 20)

	STEP(HH, Z0, Z1, Z2, Z3, M5, 32, 4)
	STEP(HH, Z3, Z0, Z1, Z2, M8, 33, 11)
	STEP(HH, Z2, Z3, Z0, Z1, M11, 34, 16)
	STEP(HH, Z1, Z2, Z3, Z0, M14, 35, 23)
	STEP(HH, Z0, Z1, Z2, Z3, M1, 36, 4)
	STEP(HH, Z3, Z0, Z1, Z2, M4, 37, 11)
	STEP(HH, Z2, Z3, Z0, Z1, M7, 38, 16)
	STEP(HH, Z1, Z2, Z3, Z0, M10, 39, 23)
	STEP(HH, Z0, Z1, Z2, Z3, M13, 40, 4)
	STEP(HH, Z3, Z0, Z1, Z2, M0, 41, 11)
	STEP(HH, Z2, Z3, Z0, Z1, M3, 42, 16)
	STEP(HH, Z1, Z2, Z3, Z0, M6, 43, 23)
	STEP(HH, Z0, Z1, Z2, Z3, M9, 44, 4)
	STEP(HH, Z3, Z0, Z1, Z2, M12, 45, 11)
	STEP(HH, Z2, Z3, Z0, Z1, M15, 46, 16)
	STEP(HH, Z1, Z2, Z3, Z0, M2, 47, 23)

	STEP(II, Z0, Z1, Z2, Z3, M0, 48, 6)
	STEP(II, Z3, Z0, Z1, Z2, M7, 49, 10)
	STEP(II, Z2, Z3, Z0, Z1, M14, 50, 15)
	STEP(II, Z1, Z2, Z3, Z0, M5, 51, 21)
	STEP(II, Z0, Z1, Z2, Z3, M12, 52, 6)
	STEP(II, Z3, Z0, Z1, Z2, M3, 53, 10)
	STEP(II, Z2, Z3, Z0, Z1, M10, 54, 15)
	STEP(II, Z1, Z2, Z3, Z0, M1, 55, 21)
	STEP(II, Z0, Z1, Z2, Z3, M8, 56, 6)
	STEP(II, Z3, Z0, Z1, Z2, M15, 57, 10)
	STEP(II, Z2, Z3, Z0, Z1, M6, 58, 15)
	STEP(II, Z1, Z2, Z3, Z0, M13, 59, 21)
	STEP(II, Z0, Z1, Z2, Z3, M4, 60, 6)
	STEP(II, Z3, Z0, Z1, Z2, M11, 61, 10)
	STEP(II, Z2, Z3, Z0, Z1, M2, 62, 15)
	STEP(II, Z1, Z2, Z3, Z0, M9, 63, 21)

	VPADDD (DI), Z0, Z0
	VPADDD 64(DI), Z1, Z1
	VPADDD 128(DI), Z2, Z2
	VPADDD 192(DI), Z3, Z3
	VMOVDQU32 Z0, (DI)
	VMOVDQU32 Z1, 64(DI)
	VMOVDQU32 Z2, 128(DI)
	VMOVDQU32 Z3, 192(DI)

	ADDQ $64, DX
	DECQ CX
	JNZ loop

done:
	VZEROUPPER
	RET

// func hasAVX512F() bool reports whether the CPU has AVX-512F and the
// OS saves the opmask and ZMM state (XCR0 bits 1, 2, 5, 6, 7).
TEXT ·hasAVX512F(SB), NOSPLIT, $0-1
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JB no
	MOVL $1, AX
	XORL CX, CX
	CPUID
	BTL $27, CX // OSXSAVE
	JCC no
	XORL CX, CX
	XGETBV
	ANDL $0xe6, AX
	CMPL AX, $0xe6
	JNE no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	BTL $16, BX // AVX512F
	JCC no
	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// MD5's additive constants T[i] = floor(abs(sin(i+1)) * 2^32).
DATA table<>+0(SB)/4, $0xd76aa478
DATA table<>+4(SB)/4, $0xe8c7b756
DATA table<>+8(SB)/4, $0x242070db
DATA table<>+12(SB)/4, $0xc1bdceee
DATA table<>+16(SB)/4, $0xf57c0faf
DATA table<>+20(SB)/4, $0x4787c62a
DATA table<>+24(SB)/4, $0xa8304613
DATA table<>+28(SB)/4, $0xfd469501
DATA table<>+32(SB)/4, $0x698098d8
DATA table<>+36(SB)/4, $0x8b44f7af
DATA table<>+40(SB)/4, $0xffff5bb1
DATA table<>+44(SB)/4, $0x895cd7be
DATA table<>+48(SB)/4, $0x6b901122
DATA table<>+52(SB)/4, $0xfd987193
DATA table<>+56(SB)/4, $0xa679438e
DATA table<>+60(SB)/4, $0x49b40821
DATA table<>+64(SB)/4, $0xf61e2562
DATA table<>+68(SB)/4, $0xc040b340
DATA table<>+72(SB)/4, $0x265e5a51
DATA table<>+76(SB)/4, $0xe9b6c7aa
DATA table<>+80(SB)/4, $0xd62f105d
DATA table<>+84(SB)/4, $0x02441453
DATA table<>+88(SB)/4, $0xd8a1e681
DATA table<>+92(SB)/4, $0xe7d3fbc8
DATA table<>+96(SB)/4, $0x21e1cde6
DATA table<>+100(SB)/4, $0xc33707d6
DATA table<>+104(SB)/4, $0xf4d50d87
DATA table<>+108(SB)/4, $0x455a14ed
DATA table<>+112(SB)/4, $0xa9e3e905
DATA table<>+116(SB)/4, $0xfcefa3f8
DATA table<>+120(SB)/4, $0x676f02d9
DATA table<>+124(SB)/4, $0x8d2a4c8a
DATA table<>+128(SB)/4, $0xfffa3942
DATA table<>+132(SB)/4, $0x8771f681
DATA table<>+136(SB)/4, $0x6d9d6122
DATA table<>+140(SB)/4, $0xfde5380c
DATA table<>+144(SB)/4, $0xa4beea44
DATA table<>+148(SB)/4, $0x4bdecfa9
DATA table<>+152(SB)/4, $0xf6bb4b60
DATA table<>+156(SB)/4, $0xbebfbc70
DATA table<>+160(SB)/4, $0x289b7ec6
DATA table<>+164(SB)/4, $0xeaa127fa
DATA table<>+168(SB)/4, $0xd4ef3085
DATA table<>+172(SB)/4, $0x04881d05
DATA table<>+176(SB)/4, $0xd9d4d039
DATA table<>+180(SB)/4, $0xe6db99e5
DATA table<>+184(SB)/4, $0x1fa27cf8
DATA table<>+188(SB)/4, $0xc4ac5665
DATA table<>+192(SB)/4, $0xf4292244
DATA table<>+196(SB)/4, $0x432aff97
DATA table<>+200(SB)/4, $0xab9423a7
DATA table<>+204(SB)/4, $0xfc93a039
DATA table<>+208(SB)/4, $0x655b59c3
DATA table<>+212(SB)/4, $0x8f0ccc92
DATA table<>+216(SB)/4, $0xffeff47d
DATA table<>+220(SB)/4, $0x85845dd1
DATA table<>+224(SB)/4, $0x6fa87e4f
DATA table<>+228(SB)/4, $0xfe2ce6e0
DATA table<>+232(SB)/4, $0xa3014314
DATA table<>+236(SB)/4, $0x4e0811a1
DATA table<>+240(SB)/4, $0xf7537e82
DATA table<>+244(SB)/4, $0xbd3af235
DATA table<>+248(SB)/4, $0x2ad7d2bb
DATA table<>+252(SB)/4, $0xeb86d391
GLOBL table<>(SB), RODATA|NOPTR, $256

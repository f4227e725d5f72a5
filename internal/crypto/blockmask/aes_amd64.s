#include "textflag.h"

// Only X0–X8 are used: X0–X7 hold eight blocks, X8 the round key.

// func cpuidAES() bool
TEXT ·cpuidAES(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	SHRL $25, CX
	ANDL $1, CX
	MOVB CX, ret+0(FP)
	RET

// func subWord(w uint32) uint32
// With w in all four columns, ShiftRows leaves the state as it is, so
// AESENCLAST with a zero round key is SubBytes alone.
TEXT ·subWord(SB), NOSPLIT, $0-12
	MOVL       w+0(FP), AX
	MOVL       AX, X0
	PSHUFD     $0, X0, X0
	PXOR       X1, X1
	AESENCLAST X1, X0
	MOVL       X0, AX
	MOVL       AX, ret+8(FP)
	RET

// func invMixColumns(dst, src *uint32)
TEXT ·invMixColumns(SB), NOSPLIT, $0-16
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVOU  (SI), X0
	AESIMC X0, X0
	MOVOU  X0, (DI)
	RET

#define LOAD8(R) \
	MOVOU 0(R), X0;   \
	MOVOU 16(R), X1;  \
	MOVOU 32(R), X2;  \
	MOVOU 48(R), X3;  \
	MOVOU 64(R), X4;  \
	MOVOU 80(R), X5;  \
	MOVOU 96(R), X6;  \
	MOVOU 112(R), X7

#define STORE8(R) \
	MOVOU X0, 0(R);   \
	MOVOU X1, 16(R);  \
	MOVOU X2, 32(R);  \
	MOVOU X3, 48(R);  \
	MOVOU X4, 64(R);  \
	MOVOU X5, 80(R);  \
	MOVOU X6, 96(R);  \
	MOVOU X7, 112(R)

// OP8 applies one round instruction, keyed by X8, to all eight blocks.
#define OP8(op) \
	op X8, X0; \
	op X8, X1; \
	op X8, X2; \
	op X8, X3; \
	op X8, X4; \
	op X8, X5; \
	op X8, X6; \
	op X8, X7

// func encryptBlocks(rounds int, xk *uint32, dst, src *byte, n int)
TEXT ·encryptBlocks(SB), NOSPLIT, $0-40
	MOVQ rounds+0(FP), R8
	MOVQ xk+8(FP), AX
	MOVQ dst+16(FP), DI
	MOVQ src+24(FP), SI
	MOVQ n+32(FP), CX
	DECQ R8 // the rounds before the last one

eight:
	CMPQ  CX, $8
	JB    one
	LOAD8(SI)
	MOVOU (AX), X8
	OP8(PXOR)
	LEAQ  16(AX), BX
	MOVQ  R8, DX

eightRound:
	MOVOU (BX), X8
	OP8(AESENC)
	ADDQ  $16, BX
	DECQ  DX
	JNZ   eightRound
	MOVOU (BX), X8
	OP8(AESENCLAST)
	STORE8(DI)
	ADDQ  $128, SI
	ADDQ  $128, DI
	SUBQ  $8, CX
	JMP   eight

one:
	TESTQ CX, CX
	JZ    done
	MOVOU (SI), X0
	MOVOU (AX), X8
	PXOR  X8, X0
	LEAQ  16(AX), BX
	MOVQ  R8, DX

oneRound:
	MOVOU  (BX), X8
	AESENC X8, X0
	ADDQ   $16, BX
	DECQ   DX
	JNZ    oneRound
	MOVOU      (BX), X8
	AESENCLAST X8, X0
	MOVOU      X0, (DI)
	ADDQ       $16, SI
	ADDQ       $16, DI
	DECQ       CX
	JMP        one

done:
	RET

// func decryptBlocks(rounds int, xk *uint32, dst, src *byte, n int)
TEXT ·decryptBlocks(SB), NOSPLIT, $0-40
	MOVQ rounds+0(FP), R8
	MOVQ xk+8(FP), AX
	MOVQ dst+16(FP), DI
	MOVQ src+24(FP), SI
	MOVQ n+32(FP), CX
	DECQ R8

eight:
	CMPQ  CX, $8
	JB    one
	LOAD8(SI)
	MOVOU (AX), X8
	OP8(PXOR)
	LEAQ  16(AX), BX
	MOVQ  R8, DX

eightRound:
	MOVOU (BX), X8
	OP8(AESDEC)
	ADDQ  $16, BX
	DECQ  DX
	JNZ   eightRound
	MOVOU (BX), X8
	OP8(AESDECLAST)
	STORE8(DI)
	ADDQ  $128, SI
	ADDQ  $128, DI
	SUBQ  $8, CX
	JMP   eight

one:
	TESTQ CX, CX
	JZ    done
	MOVOU (SI), X0
	MOVOU (AX), X8
	PXOR  X8, X0
	LEAQ  16(AX), BX
	MOVQ  R8, DX

oneRound:
	MOVOU  (BX), X8
	AESDEC X8, X0
	ADDQ   $16, BX
	DECQ   DX
	JNZ    oneRound
	MOVOU      (BX), X8
	AESDECLAST X8, X0
	MOVOU      X0, (DI)
	ADDQ       $16, SI
	ADDQ       $16, DI
	DECQ       CX
	JMP        one

done:
	RET

#include "textflag.h"

// X0–X7 hold eight blocks and X8 the round key. The XTS passes also
// use X9 (the running tweak), X10 (the doubling polynomial), X11
// (doubling scratch) and X12 (the tail's saved tweak). X15, the
// register ABI's zero, is never touched.

// xtsPoly is the mask the tweak doubling ANDs its carries with: 0x87
// folds bit 127 back into the low dword (x^128 = x^7+x^2+x+1), and the
// 1 in dword 2 carries bit 63 into the high quadword.
DATA  xtsPoly<>+0(SB)/8, $0x87
DATA  xtsPoly<>+8(SB)/8, $1
GLOBL xtsPoly<>(SB), RODATA|NOPTR, $16

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

// DOUBLE multiplies the tweak in X9 by x in GF(2^128). PADDQ shifts
// each quadword left by one and drops its top bit; PSHUFD $0x13 moves
// the dword holding each dropped bit under the dword it carries into
// (bit 127 under dword 0, bit 63 under dword 2), PSRAL $31 spreads it
// to a whole-dword mask, and PAND with xtsPoly turns the masks into
// the carries.
#define DOUBLE \
	PSHUFD $0x13, X9, X11; \
	PSRAL  $31, X11;       \
	PADDQ  X9, X9;         \
	PAND   X10, X11;       \
	PXOR   X11, X9

// WHITEN loads the block at off(SI) into X, masks it with the running
// tweak, keeps that tweak at off(SP) for UNWHITEN and advances it.
#define WHITEN(off, X) \
	MOVOU off(SI), X;  \
	PXOR  X9, X;       \
	MOVOU X9, off(SP); \
	DOUBLE

// UNWHITEN masks X again with the tweak WHITEN kept and stores it at
// off(DI).
#define UNWHITEN(off, X) \
	MOVOU off(SP), X8; \
	PXOR  X8, X;       \
	MOVOU X, off(DI)

#define WHITEN8 \
	WHITEN(0, X0);   \
	WHITEN(16, X1);  \
	WHITEN(32, X2);  \
	WHITEN(48, X3);  \
	WHITEN(64, X4);  \
	WHITEN(80, X5);  \
	WHITEN(96, X6);  \
	WHITEN(112, X7)

#define UNWHITEN8 \
	UNWHITEN(0, X0);   \
	UNWHITEN(16, X1);  \
	UNWHITEN(32, X2);  \
	UNWHITEN(48, X3);  \
	UNWHITEN(64, X4);  \
	UNWHITEN(80, X5);  \
	UNWHITEN(96, X6);  \
	UNWHITEN(112, X7)

// func encryptXTS(rounds int, xk *uint32, dst, src *byte, n int, t *[16]byte)
// The 128-byte frame holds the eight tweaks of a pass between the two
// masks.
TEXT ·encryptXTS(SB), NOSPLIT, $128-48
	MOVQ  rounds+0(FP), R8
	MOVQ  xk+8(FP), AX
	MOVQ  dst+16(FP), DI
	MOVQ  src+24(FP), SI
	MOVQ  n+32(FP), CX
	MOVQ  t+40(FP), R9
	MOVOU (R9), X9
	MOVOU xtsPoly<>(SB), X10
	DECQ  R8

eight:
	CMPQ  CX, $8
	JB    one
	WHITEN8
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
	UNWHITEN8
	ADDQ  $128, SI
	ADDQ  $128, DI
	SUBQ  $8, CX
	JMP   eight

one:
	TESTQ CX, CX
	JZ    done
	MOVOU (SI), X0
	PXOR  X9, X0
	MOVOU X9, X12
	DOUBLE
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
	PXOR       X12, X0
	MOVOU      X0, (DI)
	ADDQ       $16, SI
	ADDQ       $16, DI
	DECQ       CX
	JMP        one

done:
	MOVOU X9, (R9)
	RET

// func decryptXTS(rounds int, xk *uint32, dst, src *byte, n int, t *[16]byte)
TEXT ·decryptXTS(SB), NOSPLIT, $128-48
	MOVQ  rounds+0(FP), R8
	MOVQ  xk+8(FP), AX
	MOVQ  dst+16(FP), DI
	MOVQ  src+24(FP), SI
	MOVQ  n+32(FP), CX
	MOVQ  t+40(FP), R9
	MOVOU (R9), X9
	MOVOU xtsPoly<>(SB), X10
	DECQ  R8

eight:
	CMPQ  CX, $8
	JB    one
	WHITEN8
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
	UNWHITEN8
	ADDQ  $128, SI
	ADDQ  $128, DI
	SUBQ  $8, CX
	JMP   eight

one:
	TESTQ CX, CX
	JZ    done
	MOVOU (SI), X0
	PXOR  X9, X0
	MOVOU X9, X12
	DOUBLE
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
	PXOR       X12, X0
	MOVOU      X0, (DI)
	ADDQ       $16, SI
	ADDQ       $16, DI
	DECQ       CX
	JMP        one

done:
	MOVOU X9, (R9)
	RET

#include "textflag.h"

// SHA-1 block function on the SHA extensions (SHA1RNDS4, SHA1NEXTE,
// SHA1MSG1, SHA1MSG2). Each group of four rounds g = 0..19 takes its message
// words from M(g mod 4) and its E from the register the previous group saved
// A into: E0 for even g, E1 for odd g. Group g also advances the schedule:
// MSG2 finishes M(g+1) for g = 3..18, MSG1 starts M(g-1) for g = 1..16, and
// PXOR folds M(g) into M(g-2) for g = 2..17.
//
// Registers: X0 = ABCD (A in the top lane), X1 = E0, X2 = E1,
// X3..X6 = M0..M3, X7 = byte-flip mask, X8/X9 = E and ABCD at block entry.

#define ROUNDS(f, e, esave, m) \
	SHA1NEXTE m, e; \
	MOVO      X0, esave; \
	SHA1RNDS4 $f, e, X0

// One group that also advances the schedule; mnext = M(g+1),
// mprev = M(g-1), mprev2 = M(g-2).
#define STEADY(f, e, esave, m, mnext, mprev, mprev2) \
	SHA1NEXTE m, e; \
	MOVO      X0, esave; \
	SHA1MSG2  m, mnext; \
	SHA1RNDS4 $f, e, X0; \
	SHA1MSG1  m, mprev; \
	PXOR      m, mprev2

// func blockSHANI(h *[5]uint32, p []byte)
// Hashes len(p)/64 whole blocks into h.
TEXT ·blockSHANI(SB), NOSPLIT, $0-32
	MOVQ h+0(FP), DI
	MOVQ p_base+8(FP), SI
	MOVQ p_len+16(FP), DX
	SHRQ $6, DX
	JZ   done

	MOVOU  (DI), X0
	PSHUFD $0x1b, X0, X0
	PXOR   X1, X1
	PINSRD $3, 16(DI), X1
	MOVOU  flipmask<>(SB), X7

loop:
	MOVO X1, X8
	MOVO X0, X9

	// g = 0: E is the state's E, not a rotated A.
	MOVOU     (SI), X3
	PSHUFB    X7, X3
	PADDL     X3, X1
	MOVO      X0, X2
	SHA1RNDS4 $0, X1, X0

	// g = 1
	MOVOU    16(SI), X4
	PSHUFB   X7, X4
	ROUNDS(0, X2, X1, X4)
	SHA1MSG1 X4, X3

	// g = 2
	MOVOU    32(SI), X5
	PSHUFB   X7, X5
	ROUNDS(0, X1, X2, X5)
	SHA1MSG1 X5, X4
	PXOR     X5, X3

	// g = 3
	MOVOU     48(SI), X6
	PSHUFB    X7, X6
	SHA1NEXTE X6, X2
	MOVO      X0, X1
	SHA1MSG2  X6, X3
	SHA1RNDS4 $0, X2, X0
	SHA1MSG1  X6, X5
	PXOR      X6, X4

	// g = 4..16: the steady state, M(g mod 4) rotating through X3..X6.
	STEADY(0, X1, X2, X3, X4, X6, X5)
	STEADY(1, X2, X1, X4, X5, X3, X6)
	STEADY(1, X1, X2, X5, X6, X4, X3)
	STEADY(1, X2, X1, X6, X3, X5, X4)
	STEADY(1, X1, X2, X3, X4, X6, X5)
	STEADY(1, X2, X1, X4, X5, X3, X6)
	STEADY(2, X1, X2, X5, X6, X4, X3)
	STEADY(2, X2, X1, X6, X3, X5, X4)
	STEADY(2, X1, X2, X3, X4, X6, X5)
	STEADY(2, X2, X1, X4, X5, X3, X6)
	STEADY(2, X1, X2, X5, X6, X4, X3)
	STEADY(3, X2, X1, X6, X3, X5, X4)
	STEADY(3, X1, X2, X3, X4, X6, X5)

	// g = 17
	SHA1NEXTE X4, X2
	MOVO      X0, X1
	SHA1MSG2  X4, X5
	SHA1RNDS4 $3, X2, X0
	PXOR      X4, X6

	// g = 18
	SHA1NEXTE X5, X1
	MOVO      X0, X2
	SHA1MSG2  X5, X6
	SHA1RNDS4 $3, X1, X0

	// g = 19
	ROUNDS(3, X2, X1, X6)

	// E = rol30(A before g = 19) + E at entry; ABCD += ABCD at entry.
	SHA1NEXTE X8, X1
	PADDL     X9, X0

	ADDQ $64, SI
	DECQ DX
	JNZ  loop

	PSHUFD $0x1b, X0, X0
	MOVOU  X0, (DI)
	PEXTRD $3, X1, 16(DI)

done:
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// PSHUFB mask reversing the bytes of each 32-bit lane and the lane order:
// message words are big-endian and W0 belongs in the top lane.
DATA flipmask<>+0(SB)/8, $0x08090a0b0c0d0e0f
DATA flipmask<>+8(SB)/8, $0x0001020304050607
GLOBL flipmask<>(SB), RODATA|NOPTR, $16

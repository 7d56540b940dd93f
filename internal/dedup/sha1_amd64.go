package dedup

import (
	"crypto/sha1"
	"encoding/binary"
)

// useSHANI selects sumSHANI in Sum: the CPU has the SHA extensions
// (CPUID.7.0:EBX[29]) and the SSSE3 / SSE4.1 instructions the kernel uses
// (CPUID.1:ECX[9], ECX[19]). Tests clear it to force crypto/sha1.
var useSHANI = func() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	return ecx1&(1<<9) != 0 && ecx1&(1<<19) != 0 && ebx7&(1<<29) != 0
}()

//go:noescape
func blockSHANI(h *[5]uint32, p []byte)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// sumSHANI is SHA-1 on the SHA extensions. The padded tail is built on the
// stack, so a call allocates nothing.
func sumSHANI(data []byte) Fingerprint {
	h := [5]uint32{0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0}
	whole := len(data) &^ (sha1.BlockSize - 1)
	blockSHANI(&h, data[:whole])
	var tail [2 * sha1.BlockSize]byte
	r := copy(tail[:], data[whole:])
	tail[r] = 0x80
	end := (r + 9 + sha1.BlockSize - 1) &^ (sha1.BlockSize - 1) // room for 0x80 and the 8-byte bit length
	binary.BigEndian.PutUint64(tail[end-8:end], uint64(len(data))<<3)
	blockSHANI(&h, tail[:end])
	var fp Fingerprint
	for i, v := range h {
		binary.BigEndian.PutUint32(fp[4*i:], v)
	}
	return fp
}

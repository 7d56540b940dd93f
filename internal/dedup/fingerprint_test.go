package dedup

import (
	"crypto/sha1"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// withSHANI runs fn with Sum's kernel choice set to on; on = true skips
// where CPUID lacks the SHA extensions.
func withSHANI(t testing.TB, on bool, fn func()) {
	t.Helper()
	if on && !shaniAvailable {
		t.Skip("CPU lacks SHA-NI (or SSSE3/SSE4.1): Sum is crypto/sha1 here")
	}
	saved := useSHANI
	useSHANI = on
	defer func() { useSHANI = saved }()
	fn()
}

// shaniAvailable is useSHANI before any test overrides it.
var shaniAvailable = useSHANI

func TestSumMatchesSHA1(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 64<<10)
	rng.Read(data)
	lengths := make([]int, 0, 5000+200)
	for n := 0; n < 5000; n++ {
		lengths = append(lengths, n)
	}
	for i := 0; i < 200; i++ {
		lengths = append(lengths, rng.Intn(len(data)+1))
	}
	for _, on := range []bool{true, false} {
		t.Run(fmt.Sprintf("shani=%v", on), func(t *testing.T) {
			withSHANI(t, on, func() {
				for _, n := range lengths {
					// Offset by n mod 7 so the kernel also reads unaligned input.
					off := n % 7
					if off+n > len(data) {
						off = 0
					}
					p := data[off : off+n]
					if got, want := Sum(p), Fingerprint(sha1.Sum(p)); got != want {
						t.Fatalf("len %d: Sum = %v, want %v", n, got, want)
					}
				}
				p := data[:4096]
				if a := testing.AllocsPerRun(100, func() { Sum(p) }); a != 0 {
					t.Fatalf("Sum allocates %.1f times per call, want 0", a)
				}
			})
		})
	}
}

// FuzzSumMatchesSHA1: on arbitrary input, Sum is crypto/sha1 on both paths.
func FuzzSumMatchesSHA1(f *testing.F) {
	for _, n := range []int{0, 1, 55, 56, 63, 64, 119, 120, 4096} {
		f.Add(make([]byte, n))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want := Fingerprint(sha1.Sum(data))
		if got := Sum(data); got != want {
			t.Fatalf("len %d: Sum = %v, want %v (useSHANI %v)", len(data), got, want, useSHANI)
		}
		withSHANI(t, false, func() {
			if got := Sum(data); got != want {
				t.Fatalf("len %d: stdlib Sum = %v, want %v", len(data), got, want)
			}
		})
	})
}

func TestStringIsHex(t *testing.T) {
	fp := Sum([]byte("x"))
	s := fp.String()
	if len(s) != 40 {
		t.Fatalf("hex length: got %d, want 40", len(s))
	}
}

func TestBinSelectsLeadingBits(t *testing.T) {
	var fp Fingerprint
	fp[0] = 0xAB
	fp[1] = 0xCD
	if got := fp.Bin(8); got != 0xAB {
		t.Fatalf("Bin(8): got %#x, want 0xAB", got)
	}
	if got := fp.Bin(12); got != 0xABC {
		t.Fatalf("Bin(12): got %#x, want 0xABC", got)
	}
	if got := fp.Bin(0); got != 0 {
		t.Fatalf("Bin(0): got %d, want 0", got)
	}
	if got := fp.Bin(40); got != fp.Bin(32) {
		t.Fatal("Bin should clamp at 32 bits")
	}
}

func TestSuffixTruncation(t *testing.T) {
	fp := Sum([]byte("y"))
	full := fp.Suffix(0)
	if len(full) != FingerprintSize {
		t.Fatalf("Suffix(0) length %d", len(full))
	}
	two := fp.Suffix(2)
	if len(two) != FingerprintSize-2 {
		t.Fatalf("Suffix(2) length %d", len(two))
	}
	for i := range two {
		if two[i] != fp[i+2] {
			t.Fatal("suffix bytes misaligned")
		}
	}
	if len(fp.Suffix(-1)) != FingerprintSize || len(fp.Suffix(99)) != 0 {
		t.Fatal("Suffix should clamp out-of-range prefixes")
	}
}

func TestEntryBytesMatchesPaperArithmetic(t *testing.T) {
	// §3.1: 20-byte SHA-1 + metadata = 32 bytes/entry; a 2-byte prefix
	// saves 2 bytes/entry (1 GB of the 16 GB index for 4 TB at 8 KB).
	if EntryBytes(0) != 32 {
		t.Fatalf("EntryBytes(0) = %d, want 32", EntryBytes(0))
	}
	if EntryBytes(2) != 30 {
		t.Fatalf("EntryBytes(2) = %d, want 30", EntryBytes(2))
	}
	const (
		capacity  = 4 << 40 // 4 TB
		chunkSize = 8 << 10 // 8 KB
	)
	entries := int64(capacity / chunkSize)
	full := entries * int64(EntryBytes(0))
	if full != 16<<30 {
		t.Fatalf("full index: got %d bytes, want 16 GiB", full)
	}
	saved := entries * int64(EntryBytes(0)-EntryBytes(2))
	if saved != 1<<30 {
		t.Fatalf("2-byte prefix saving: got %d bytes, want 1 GiB", saved)
	}
}

// Property: bin id equals the integer formed by the first `bits` bits, and
// truncation+bin together preserve the full fingerprint identity when
// 8*prefix <= bits.
func TestBinPlusSuffixLossless(t *testing.T) {
	f := func(a, b [20]byte) bool {
		fa, fb := Fingerprint(a), Fingerprint(b)
		const bits, prefix = 16, 2
		if fa == fb {
			return true
		}
		// Different fingerprints must differ in (bin, suffix).
		sameBin := fa.Bin(bits) == fb.Bin(bits)
		sameSuffix := string(fa.Suffix(prefix)) == string(fb.Suffix(prefix))
		return !(sameBin && sameSuffix)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

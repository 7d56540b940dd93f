package workload

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// parseMeasured runs ParseOps over in and reports what the call allocated.
func parseMeasured(in string) (ops []Op, err error, allocated uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ops, err = ParseOps(strings.NewReader(in))
	runtime.ReadMemStats(&after)
	return ops, err, after.TotalAlloc - before.TotalAlloc
}

// FuzzRead: the parser must never panic; the same input twice gives the
// same result or the same error text; an N-byte input allocates no more
// than the scanner's fixed 64 KiB buffer plus k·N; and whatever it accepts
// must serialize and re-parse to the same ops.
func FuzzRead(f *testing.F) {
	f.Add("W 1 2\nR 1\nT 4\n")
	f.Add("# comment\n\nW 0 0\n")
	f.Add("X garbage")
	f.Fuzz(func(t *testing.T, in string) {
		ops, err, alloc := parseMeasured(in)
		ops2, err2, alloc2 := parseMeasured(in)
		if (err == nil) != (err2 == nil) || (err != nil && err.Error() != err2.Error()) {
			t.Fatalf("same input, different errors: %v vs %v", err, err2)
		}
		if len(ops) != len(ops2) {
			t.Fatalf("same input, %d then %d ops", len(ops), len(ops2))
		}
		// Per line: its text, its field slice (16 B per 2 input bytes at
		// worst) and an amortised 24-byte Op per >= 4 input bytes; a long
		// line doubles the scanner buffer past it. The smaller of the two
		// runs keeps a background allocation out of the verdict.
		if limit := uint64(64<<10 + 4<<10 + 32*len(in)); min(alloc, alloc2) > limit {
			t.Fatalf("%d-byte input allocated %d bytes (limit %d)", len(in), min(alloc, alloc2), limit)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := FormatOps(&buf, ops); err != nil {
			t.Fatalf("accepted ops failed to serialize: %v", err)
		}
		again, err := ParseOps(&buf)
		if err != nil || len(again) != len(ops) {
			t.Fatalf("canonical form did not re-parse: %v", err)
		}
		for i := range ops {
			if again[i] != canonical(ops[i]) || ops2[i] != ops[i] {
				t.Fatalf("op %d drifted: %+v vs %+v vs %+v", i, again[i], ops[i], ops2[i])
			}
		}
	})
}

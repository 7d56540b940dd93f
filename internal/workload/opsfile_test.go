package workload

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	ops := []Op{
		{Kind: OpWrite, LBA: 0, Content: 42},
		{Kind: OpRead, LBA: 7},
		{Kind: OpTrim, LBA: 9},
		{Kind: OpWrite, LBA: 1 << 40, Content: -3},
	}
	var buf bytes.Buffer
	if err := FormatOps(&buf, ops); err != nil {
		t.Fatal(err)
	}
	got, err := ParseOps(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("round trip: %d ops, want %d", len(got), len(ops))
	}
	for i := range ops {
		if got[i] != ops[i] {
			t.Fatalf("op %d: %+v != %+v", i, got[i], ops[i])
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\nW 1 2\n  # indented comment\nR 1\n"
	ops, err := ParseOps(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 2 {
		t.Fatalf("ops: %d", len(ops))
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	bad := []string{
		"X 1",
		"W 1",
		"W 1 2 3",
		"R",
		"W abc 1",
		"R -5",
		"W 1 99999999999999999999",
	}
	for _, in := range bad {
		if _, err := ParseOps(strings.NewReader(in)); !errors.Is(err, ErrFormat) {
			t.Errorf("%q: want ErrFormat, got %v", in, err)
		}
	}
}

func TestWriteRejectsUnknownOp(t *testing.T) {
	if err := FormatOps(&bytes.Buffer{}, []Op{{Kind: 'Z'}}); err == nil {
		t.Fatal("unknown op should fail to serialize")
	}
}

// Property: serialize→parse is identity for arbitrary valid ops.
func TestTraceRoundTripProperty(t *testing.T) {
	f := func(kinds []uint8, lbas []int64, contents []int32) bool {
		n := min(len(kinds), len(lbas), len(contents))
		ops := make([]Op, 0, n)
		for i := 0; i < n; i++ {
			lba := lbas[i]
			if lba < 0 {
				lba = -lba
			}
			if lba < 0 { // MinInt64
				lba = 0
			}
			ops = append(ops, Op{Kind: []OpKind{OpWrite, OpRead, OpTrim}[int(kinds[i])%3], LBA: lba, Content: contents[i]})
		}
		var buf bytes.Buffer
		if err := FormatOps(&buf, ops); err != nil {
			return false
		}
		got, err := ParseOps(&buf)
		if err != nil || len(got) != len(ops) {
			return false
		}
		for i := range ops {
			if got[i] != canonical(ops[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// canonical is op as the text format carries it: only a write has a
// content id.
func canonical(op Op) Op {
	if op.Kind != OpWrite {
		op.Content = 0
	}
	return op
}

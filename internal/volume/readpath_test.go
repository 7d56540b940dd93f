package volume

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"inlinered/internal/fault"
	"inlinered/internal/lz"
)

// storedBlob returns the record of lba's stored chunk, so a test can plant
// a different blob in it.
func storedBlob(t *testing.T, v *Volume, lba int64) *chunkRef {
	t.Helper()
	fp, ok := v.lbaMap[lba]
	if !ok {
		t.Fatalf("lba %d is unmapped", lba)
	}
	return v.chunks[fp]
}

// runPattern is a block of one short repeating pattern: every lane of its
// indexed container ends on a match token.
func runPattern(bs int) []byte {
	return bytes.Repeat([]byte{0x10, 0x33, 0x52, 0x71, 0x9c, 0xbe, 0xd4, 0xf7}, bs/8)
}

// TestReadIntoWrongSizeBlob: a well-formed blob that decodes to anything but
// one block is corrupt on the serial path exactly as in a batch: same
// error, nothing cached, dst untouched.
func TestReadIntoWrongSizeBlob(t *testing.T) {
	v := newVolume(t, smallConfig())
	bs := v.cfg.BlockSize
	if _, err := v.Write(3, block(3)); err != nil {
		t.Fatal(err)
	}
	storedBlob(t, v, 3).blob = lz.StoreRaw(nil, block(3)[:bs/2])
	want := fmt.Sprintf("volume: lba 3: volume: blob decoded to %d bytes, block size is %d", bs/2, bs)

	dst := []byte("keep")
	for try := 0; try < 2; try++ { // the second read must miss and fail again
		out, lat, err := v.ReadInto(dst, 3)
		if err == nil || err.Error() != want {
			t.Fatalf("try %d: serial error %q, want %q", try, err, want)
		}
		if string(out) != "keep" || lat <= 0 {
			t.Fatalf("try %d: failed read returned dst %q, latency %v", try, out, lat)
		}
		if v.cache.len() != 0 {
			t.Fatalf("try %d: a wrong-size block was cached", try)
		}
	}
	b, err := v.ReadBatch(nil, []int64{3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Err(0) == nil || b.Err(0).Error() != want {
		t.Fatalf("batch error %q, want %q", b.Err(0), want)
	}
	if st := v.Stats(); v.cache.len() != 0 || st.CacheHits != 0 || st.CacheMisses != 3 || st.Reads != 3 {
		t.Fatalf("after three failed reads: %d cached, stats %+v", v.cache.len(), st)
	}
}

// TestReadIntoMatchesBatchOnErrors: the serial read and a one-read batch run
// the same ordered half, so on two identical volumes they agree on
// everything a failing read leaves behind — not only on healthy data.
func TestReadIntoMatchesBatchOnErrors(t *testing.T) {
	const lba = 5
	cases := []struct {
		name    string
		corrupt func(t *testing.T, v *Volume)
		want    string // substring of the error
	}{
		{"flipped-token-byte", func(t *testing.T, v *Volume) {
			// Clear the length nibble of the last lane's final match: the
			// lane comes up short of its boundary-table entry.
			blob := storedBlob(t, v, lba).blob
			if blob[0] != lz.ModeSubIdx || blob[len(blob)-1]&0x0F == 0 {
				t.Fatalf("mode %d, last token byte %#x: not the container this case needs", blob[0], blob[len(blob)-1])
			}
			blob[len(blob)-1] &^= 0x0F
		}, "boundary table says"},
		{"truncated-boundary-table", func(t *testing.T, v *Volume) {
			ref := storedBlob(t, v, lba)
			ref.blob = ref.blob[:5] // header, part count, one table byte
		}, "exceeds payload"},
		{"wrong-size-raw-blob", func(t *testing.T, v *Volume) {
			storedBlob(t, v, lba).blob = lz.StoreRaw(nil, make([]byte, v.cfg.BlockSize/2))
		}, "block size is"},
		{"drive-read-fault", func(t *testing.T, v *Volume) {
			armFaults(v, fault.Config{Seed: 11, Rates: fault.Rates{SSDReadTransient: 1}})
		}, "lba 5"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Volume {
				v := newVolume(t, subConfig())
				fillVolume(t, v, 8)
				if _, err := v.Write(lba, runPattern(v.cfg.BlockSize)); err != nil {
					t.Fatal(err)
				}
				if _, _, err := v.Read(0); err != nil { // one resident entry
					t.Fatal(err)
				}
				tc.corrupt(t, v)
				return v
			}
			vs, vb := build(), build()

			dst := []byte("keep")
			out, lat, serr := vs.ReadInto(dst, lba)
			if serr == nil || !strings.Contains(serr.Error(), tc.want) {
				t.Fatalf("serial error %q, want one containing %q", serr, tc.want)
			}
			if string(out) != "keep" {
				t.Fatalf("failed serial read changed dst: %q", out)
			}
			b, err := vb.ReadBatch(nil, []int64{lba}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if b.Err(0) == nil || b.Err(0).Error() != serr.Error() {
				t.Fatalf("error text diverged:\nserial %v\nbatch  %v", serr, b.Err(0))
			}
			if b.Latency(0) != lat {
				t.Fatalf("latency diverged: serial %v, batch %v", lat, b.Latency(0))
			}
			if vs.Now() != vb.Now() {
				t.Fatalf("clock diverged: serial %v, batch %v", vs.Now(), vb.Now())
			}
			if ss, bs := vs.Stats(), vb.Stats(); ss != bs {
				t.Fatalf("stats diverged:\nserial %+v\nbatch  %+v", ss, bs)
			}
			if vs.cache.len() != 1 || vb.cache.len() != 1 {
				t.Fatalf("cache holds %d / %d entries, want the one healthy block on both", vs.cache.len(), vb.cache.len())
			}
		})
	}
}

// TestReadIntoDuplicateInBatchDiverges pins the one divergence batching
// keeps: the second read of a corrupt block in one batch hits the entry the
// first one reserved — priced as a cache hit, failing with the decode's error
// — where two serial reads both miss.
func TestReadIntoDuplicateInBatchDiverges(t *testing.T) {
	build := func() *Volume {
		v := newVolume(t, smallConfig())
		if _, err := v.Write(2, block(2)); err != nil {
			t.Fatal(err)
		}
		storedBlob(t, v, 2).blob = lz.StoreRaw(nil, block(2)[:100])
		return v
	}
	vs, vb := build(), build()
	cost := vs.sub.CPU.Cost
	hitLat := vs.sub.CPU.Time(cost.MemcpyCycles(vs.cfg.BlockSize) + cost.StageOverheadCycles)

	var serial [2]time.Duration
	for i := range serial {
		_, lat, err := vs.ReadInto(nil, 2)
		if err == nil {
			t.Fatalf("serial read %d of a corrupt block succeeded", i)
		}
		serial[i] = lat
	}
	if st := vs.Stats(); st.CacheHits != 0 || st.CacheMisses != 2 || serial[1] <= hitLat {
		t.Fatalf("serial: both reads must miss: stats %+v, latencies %v", st, serial)
	}

	b, err := vb.ReadBatch(nil, []int64{2, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Err(0) == nil || b.Err(1) == nil || b.Err(0).Error() != b.Err(1).Error() {
		t.Fatalf("batch: both reads must report the decode error: %v / %v", b.Err(0), b.Err(1))
	}
	if b.Latency(0) != serial[0] || b.Latency(1) != hitLat {
		t.Fatalf("batch latencies %v / %v, want the miss %v then a cache hit's %v",
			b.Latency(0), b.Latency(1), serial[0], hitLat)
	}
	if st := vb.Stats(); st.CacheHits != 1 || st.CacheMisses != 1 || vb.cache.len() != 0 {
		t.Fatalf("batch: want one miss, one hit, nothing left cached: stats %+v, %d cached", st, vb.cache.len())
	}
}

// TestReadBatchBindsToReceiver: a recycled batch serves the volume it is
// passed to, not the one that made it.
func TestReadBatchBindsToReceiver(t *testing.T) {
	va, vb := newVolume(t, smallConfig()), newVolume(t, smallConfig())
	for i := 0; i < 4; i++ {
		if _, err := va.Write(int64(i), block(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := vb.Write(int64(i), block(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	lbas := []int64{0, 1, 2, 3}
	b, err := va.ReadBatch(nil, lbas, nil)
	if err != nil {
		t.Fatal(err)
	}
	nowA, nowB := va.Now(), vb.Now()
	if b, err = vb.ReadBatch(b, lbas, nil); err != nil {
		t.Fatal(err)
	}
	for i := range lbas {
		if b.Err(i) != nil || !bytes.Equal(b.Block(i), block(100+i)) {
			t.Fatalf("read %d: err %v, or not volume B's block", i, b.Err(i))
		}
	}
	if va.Now() != nowA || vb.Now() <= nowB {
		t.Fatalf("clocks: A %v -> %v (must stand), B %v -> %v (must advance)", nowA, va.Now(), nowB, vb.Now())
	}
	if ra, rb := va.Stats().Reads, vb.Stats().Reads; ra != 4 || rb != 4 {
		t.Fatalf("reads counted on A %d, B %d; want 4 and 4", ra, rb)
	}
}

package reduce_test

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"testing"

	"inlinered/internal/core"
	"inlinered/internal/parallel"
	"inlinered/internal/volume"
	"inlinered/internal/workload"
)

// TestFrontEndsAgreeOnOneStream feeds the same block stream to both
// front-ends of the substrate — the open-loop engine (CPU-only, fixed 4 KiB
// chunks) and the closed-loop volume (block i at LBA i) — with the same
// index, codec and encoder parameters. They must store the same bytes, find
// the same duplicates, and journal the same flush records in the same
// order: the volume's journal image is a byte prefix of the engine's, which
// additionally drains its bin buffers at end of stream. The volume is fed
// twice, per op and through its write front, and must not tell the two apart.
func TestFrontEndsAgreeOnOneStream(t *testing.T) {
	spec := workload.Spec{TotalBytes: 6 << 20, ChunkSize: 4096, DedupRatio: 2, CompRatio: 2, Seed: 1}

	vc := volume.DefaultConfig()
	vc.Blocks = spec.TotalBytes / int64(spec.ChunkSize)
	vc.Index.BinBits = 6
	vc.Index.BufferEntries = 4
	vol, err := volume.New(vc)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := workload.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	block := make([]byte, spec.ChunkSize)
	for lba := int64(0); lba < vc.Blocks; lba++ {
		if _, err := stream.Read(block); err != nil {
			t.Fatalf("stream block %d: %v", lba, err)
		}
		if _, err := vol.Write(lba, block); err != nil {
			t.Fatalf("volume write %d: %v", lba, err)
		}
	}
	vs := vol.Stats()

	batched, err := volume.New(vc)
	if err != nil {
		t.Fatal(err)
	}
	stream.Reset()
	all := make([]byte, spec.TotalBytes)
	if _, err := io.ReadFull(stream, all); err != nil {
		t.Fatal(err)
	}
	pool := parallel.New(1)
	wb := batched.NewWriteBatch(pool, int(vc.Blocks), func(dst []byte, i int) []byte {
		return append(dst, all[i*spec.ChunkSize:(i+1)*spec.ChunkSize]...)
	})
	_ = pool.ForEach(2, 2, func(w int) error { // index 1 returns at once and lends itself
		for lba := int64(0); w == 0 && lba < vc.Blocks; lba++ {
			if _, err := wb.Write(lba); err != nil {
				t.Errorf("batched write %d: %v", lba, err)
			}
		}
		return nil
	})
	if bs := batched.Stats(); !reflect.DeepEqual(bs, vs) || !bytes.Equal(batched.JournalImage(), vol.JournalImage()) {
		t.Fatalf("the write front changed the volume:\n%+v\n%+v", bs, vs)
	}
	if vs.DedupHits == 0 || vs.JournalRecords == 0 {
		t.Fatalf("stream exercised nothing: %d duplicates, %d journal records", vs.DedupHits, vs.JournalRecords)
	}

	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			ec := core.DefaultConfig()
			ec.Index = vc.Index
			ec.Parallelism = par
			eng, err := core.NewEngine(core.PaperPlatform(), ec)
			if err != nil {
				t.Fatal(err)
			}
			stream.Reset()
			rep, err := eng.Process(stream)
			if err != nil {
				t.Fatal(err)
			}
			if rep.StoredBytes != vs.StoredBytes {
				t.Errorf("stored bytes: engine %d, volume %d", rep.StoredBytes, vs.StoredBytes)
			}
			if rep.DupChunks != vs.DedupHits {
				t.Errorf("duplicates: engine %d, volume %d", rep.DupChunks, vs.DedupHits)
			}
			ej, vj := eng.JournalImage(), vol.JournalImage()
			if len(vj) >= len(ej) || !bytes.HasPrefix(ej, vj) {
				t.Errorf("volume journal (%d bytes) is not a proper prefix of the engine's (%d bytes)", len(vj), len(ej))
			}
		})
	}
}

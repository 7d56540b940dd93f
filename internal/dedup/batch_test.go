package dedup

import (
	"math/rand"
	"testing"

	"inlinered/internal/parallel"
)

func TestSumBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	chunks := make([][]byte, 301)
	for i := range chunks {
		chunks[i] = make([]byte, rng.Intn(4096))
		rng.Read(chunks[i])
	}
	want := make([]Fingerprint, len(chunks))
	for i, c := range chunks {
		want[i] = Sum(c)
	}
	for _, workers := range []int{1, 2, 7, 16} {
		pool := parallel.New(workers)
		got := SumBatch(pool, chunks)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d chunk %d mismatch", workers, i)
			}
		}
		pool.Close()
	}
}

package dedup

import (
	"errors"
	"fmt"

	"inlinered/internal/parallel"
)

// WorkerWork aggregates the index work one bin owner performed, for costing.
type WorkerWork struct {
	Items         int
	BufferScanned int
	TreeSteps     int
}

// IndexPartitioned indexes fps into idx without any locking, using the
// paper's partitioning argument (§3.1(1)): owner w holds the bins where
// BinOf(fp) % owners == w, one task per owner is posted on pool, and no two
// tasks ever touch the same bin — nor any other variable, since the index
// keeps no state outside its bins but the fault injector. Items that share
// a fingerprint land in the same bin and are handled in stream order by its
// owner, so every duplicate resolves to its first occurrence's entry(i)
// whatever the pool's size. The per-owner work summaries let the simulation
// cost each owner's virtual time independently.
//
// An index with a fault injector takes one owner only: its memory-pressure
// evictions draw from the injector's one stream and may reach into other
// owners' bins (see evictUnderPressure).
func IndexPartitioned(pool *parallel.Pool, idx *BinIndex, fps []Fingerprint, owners int, entry func(i int) Entry) ([]WorkerWork, error) {
	if owners < 1 {
		return nil, fmt.Errorf("dedup: need >= 1 bin owner, got %d", owners)
	}
	if idx.faults != nil && owners > 1 {
		return nil, errors.New("dedup: an index with a fault injector cannot be split across bin owners")
	}
	work := make([]WorkerWork, owners)
	pool.Map(owners, func(w int) {
		ww := &work[w]
		for i, fp := range fps {
			if int(idx.BinOf(fp))%owners != w {
				continue
			}
			pr := idx.Lookup(fp)
			ww.Items++
			ww.BufferScanned += pr.BufferScanned
			ww.TreeSteps += pr.TreeSteps
			if pr.Found {
				continue
			}
			ir := idx.Insert(fp, entry(i))
			ww.BufferScanned += ir.BufferScanned
			if ir.Flush != nil {
				ww.TreeSteps += ir.Flush.TreeSteps
			}
		}
	})
	return work, nil
}

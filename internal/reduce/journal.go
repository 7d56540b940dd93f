package reduce

import (
	"time"

	"inlinered/internal/dedup"
	"inlinered/internal/sim"
)

// Journal is the index journal: a region carved from the top 1/16 of the
// drive's logical space that bin-buffer flushes destage into as sequential
// writes ("this creates the appropriate sequential writes for the SSD",
// §3.3), wrapping at the region end, plus the serialized image a post-crash
// restart replays (dedup.RecoverJournal). It is the one place that counts
// journal records and times their flushes, for both front-ends.
type Journal struct {
	// Image is the durable form of the flushes the region still holds:
	// whole records, and the leading bytes of each torn one, in write
	// order. A record leaves from the front once a later write reaches its
	// pages (or the cursor wraps past them), so the image is at most one
	// lap of the region and recovery never replays overwritten records.
	Image []byte

	// Records and Torn count every whole and torn record written, those
	// Image has since dropped included. Bytes is what their region writes
	// carried (a torn record's write still ran in full). Failures counts
	// permanent write failures (at most one: the first degrades journaling
	// off).
	Records, Torn, Bytes, Failures int64

	// Latency holds the drive time of every flush that landed in the
	// region, whole or torn. Torn flushes count: the partial write consumed
	// real drive time, and hiding it would make the histogram lie about the
	// time spent flushing. So Latency.N() == Records + Torn. A flush lost to
	// a permanent write failure (or dropped while journaling is degraded
	// off) persists nothing and is not observed.
	Latency sim.Histogram

	s                *Substrate
	base, cur, limit int64        // region pages [base, limit), next write at cur
	lap              int64        // pages the earlier laps spanned, wrap skips included
	dead             bool         // a permanent write failure degraded journaling off
	held             []heldRecord // Image's records, oldest first
}

// heldRecord is one record in Image: its length there, and lap + the page it
// starts on. A later write rewrites that page once lap + cur passes it by
// one region.
type heldRecord struct {
	size int
	pos  int64
}

func (j *Journal) init(s *Substrate) {
	logical := s.Drive.LogicalPages()
	reserve := logical / 16
	if reserve < 1 {
		reserve = 1
	}
	j.s = s
	j.base, j.cur, j.limit = logical-reserve, logical-reserve, logical
}

// Writes returns the region writes that landed: each lands exactly one
// whole or torn record.
func (j *Journal) Writes() int64 { return j.Records + j.Torn }

// FirstPage returns the first page of the journal region: everything below
// it is the front-end's data region.
func (j *Journal) FirstPage() int64 { return j.base }

// Flush persists one bin-buffer flush record and returns the completion
// time of its drive write (at itself when the region is already dead); the
// counters say what became of the record, and the records whose pages the
// write reached again leave the front of the image. An injected torn record
// simulates a crash mid-write: only the leading bytes reach the image (at
// least one, never all), though the write still occupied the drive. A
// permanent write failure, torn record or not, degrades gracefully —
// journaling stops, the front-end keeps running on its in-memory index
// (§3.3's documented tradeoff, minus crash recoverability), the failure is
// counted, the image is left as it was, and later flushes are dropped
// without touching the drive. The clock never loses time: a failed write
// returns the time its retries and backoff reached, for the caller to
// commit.
func (j *Journal) Flush(at time.Duration, f *dedup.Flush) time.Duration {
	if j.dead {
		return at
	}
	frac, torn := j.s.Faults.TornFraction() // drawn before the write's faults
	pages := max(int64(j.s.Drive.Pages(f.Bytes)), 1)
	if j.cur+pages > j.limit { // wrap to the region start
		j.lap += j.limit - j.base
		j.cur = j.base
	}
	end, err := j.s.WriteDrive(at, j.cur, int(pages))
	if err != nil {
		j.dead = true
		j.Failures++
		return end
	}
	j.Latency.Observe(end - at)
	j.Bytes += int64(f.Bytes)
	rec := heldRecord{pos: j.lap + j.cur}
	j.cur += pages
	n, cut := 0, 0
	for ; n < len(j.held) && j.held[n].pos+j.limit-j.base < j.lap+j.cur; n++ {
		cut += j.held[n].size // its first page was just rewritten
	}
	start := len(j.Image) - cut
	j.Image = dedup.AppendJournalRecord(j.Image[cut:], f)
	if torn {
		size := len(j.Image) - start
		j.Image = j.Image[:start+min(max(int(frac*float64(size)), 1), size-1)]
		j.Torn++
	} else {
		j.Records++
	}
	rec.size = len(j.Image) - start
	j.held = append(j.held[n:], rec)
	return end
}

package reduce

import (
	"time"

	"inlinered/internal/dedup"
)

// Journal is the index journal: a region carved from the top 1/16 of the
// drive's logical space that bin-buffer flushes destage into as sequential
// writes ("this creates the appropriate sequential writes for the SSD",
// §3.3), wrapping at the region end, plus the serialized image a post-crash
// restart replays.
type Journal struct {
	// Image is the durable form of every flush that reached the region.
	Image *dedup.JournalWriter

	// Bytes and Writes count the records landed in the region; Failures
	// counts permanent write failures (at most one: the first degrades
	// journaling off).
	Bytes, Writes, Failures int64

	s                *Substrate
	base, cur, limit int64 // region pages [base, limit), next write at cur
	dead             bool  // a permanent write failure degraded journaling off
}

func (j *Journal) init(s *Substrate, prefixBytes int) {
	logical := s.Drive.LogicalPages()
	reserve := logical / 16
	if reserve < 1 {
		reserve = 1
	}
	j.s = s
	j.base, j.cur, j.limit = logical-reserve, logical-reserve, logical
	j.Image = dedup.NewJournalWriter(prefixBytes)
}

// FirstPage returns the first page of the journal region: everything below
// it is the front-end's data region.
func (j *Journal) FirstPage() int64 { return j.base }

// Dead reports whether a permanent write failure has degraded journaling
// off for the rest of the run.
func (j *Journal) Dead() bool { return j.dead }

// FlushStatus says what became of one flush record.
type FlushStatus int

const (
	// FlushLost: nothing reached the image — the region was already dead
	// (no drive time consumed), or this write failed permanently and killed
	// it (the failed attempt's time is returned).
	FlushLost FlushStatus = iota
	// FlushTorn: an injected crash mid-write persisted only a prefix of the
	// record; recovery truncates the journal there.
	FlushTorn
	// FlushWritten: the whole record is durable.
	FlushWritten
)

// Flush persists one bin-buffer flush record and returns the completion
// time of its drive write. An injected torn record simulates a crash
// mid-write: only the leading bytes reach the image, though the write still
// occupied the drive. A permanent write failure degrades gracefully —
// journaling stops, the front-end keeps running on its in-memory index
// (§3.3's documented tradeoff, minus crash recoverability), the failure is
// counted, and later flushes are dropped without touching the drive. The
// clock never loses time: a failed write returns the time its retries and
// backoff reached, for the caller to commit.
func (j *Journal) Flush(at time.Duration, f *dedup.Flush) (time.Duration, FlushStatus) {
	if j.dead {
		return at, FlushLost
	}
	if frac, torn := j.s.Faults.TornFraction(); torn {
		j.Image.AppendTorn(f, frac)
		end, _ := j.write(at, f.Bytes) // the partial write still happened
		return end, FlushTorn
	}
	end, err := j.write(at, f.Bytes)
	if err != nil {
		j.dead = true
		j.Failures++
		return end, FlushLost
	}
	j.Image.Append(f)
	return end, FlushWritten
}

// write lands one record's pages at the region cursor, wrapping at the
// region end, under the substrate's bounded-retry policy.
func (j *Journal) write(at time.Duration, bytes int) (time.Duration, error) {
	pages := int64(j.s.Drive.Pages(bytes))
	if pages == 0 {
		pages = 1
	}
	if j.cur+pages > j.limit {
		j.cur = j.base
	}
	end, err := j.s.WriteDrive(at, j.cur, int(pages))
	if err != nil {
		return end, err
	}
	j.cur += pages
	j.Bytes += int64(bytes)
	j.Writes++
	return end, nil
}

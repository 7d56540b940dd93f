// Package ssd simulates the SSD that the data reduction pipeline destages
// to, and that every figure in the paper uses as its baseline comparator
// ("the throughput of the SSD", a Samsung SSD 830 in the paper's testbed).
//
// The model is a multi-channel NAND device behind a page-mapped FTL:
//
//   - Each channel is an independent sim.Pool(1); page reads, programs, and
//     erases occupy the channel for their configured latency, so aggregate
//     random-write IOPS ≈ channels / program latency. The defaults give the
//     ~80 K 4 KB-write IOPS the paper quotes for its SSD.
//   - Host writes are striped across channels round-robin.
//   - Overwrites invalidate the old physical page; when a channel runs low
//     on free blocks, greedy garbage collection migrates the valid pages of
//     the emptiest block and erases it, charging the channel for every
//     migration read/program and the erase. Write amplification and wear
//     (per-block erase counts) fall out of this for real, which is what the
//     endurance experiment (E7) measures.
//
// The drive tracks timing and accounting only; chunk payloads stay in host
// memory (the pipeline verifies data integrity itself).
package ssd

import (
	"fmt"
	"time"

	"inlinered/internal/fault"
	"inlinered/internal/obs"
	"inlinered/internal/sim"
)

// Config describes a simulated SSD.
type Config struct {
	Name             string
	Channels         int           // independent NAND channels
	PageSize         int           // bytes per page
	PagesPerBlock    int           // pages per erase block
	BlocksPerChannel int           // physical blocks per channel
	ReadLatency      time.Duration // page read (load + transfer)
	ProgramLatency   time.Duration // page program
	EraseLatency     time.Duration // block erase
	OverProvision    float64       // fraction of physical space hidden from the host
	GCFreeBlocks     int           // per-channel free-block low watermark that triggers GC
}

// DefaultConfig returns a drive calibrated to the paper's SSD 830-class
// baseline: 8 channels at 100 µs page program = 80 K 4 KB-write IOPS and
// 320 MB/s of write bandwidth.
func DefaultConfig() Config {
	return Config{
		Name:             "SSD-830-class (8ch, 80K IOPS)",
		Channels:         8,
		PageSize:         4096,
		PagesPerBlock:    128,
		BlocksPerChannel: 1024,
		ReadLatency:      60 * time.Microsecond,
		ProgramLatency:   100 * time.Microsecond,
		EraseLatency:     2 * time.Millisecond,
		OverProvision:    0.07,
		GCFreeBlocks:     4,
	}
}

// Stats holds cumulative drive accounting.
type Stats struct {
	HostWritePages int64 `json:"host_write_pages"` // pages written on behalf of the host
	HostReadPages  int64 `json:"host_read_pages"`  // pages read on behalf of the host
	NANDWritePages int64 `json:"nand_write_pages"` // pages programmed, including GC migration
	NANDReadPages  int64 `json:"nand_read_pages"`  // pages read, including GC migration
	Erases         int64 `json:"erases"`           // blocks erased
	GCRuns         int64 `json:"gc_runs"`          // garbage collection invocations
	TrimmedPages   int64 `json:"trimmed_pages"`    // pages invalidated via Trim

	// Injected-fault accounting (zero unless a fault injector is set).
	WriteFaults   int64 `json:"write_faults"`   // host writes rejected by an injected error
	ReadFaults    int64 `json:"read_faults"`    // host reads rejected by an injected error
	LatencySpikes int64 `json:"latency_spikes"` // host requests delayed by an injected spike
}

// WriteAmplification reports NAND programs per host program, or 0 before
// any host write.
func (s Stats) WriteAmplification() float64 {
	if s.HostWritePages == 0 {
		return 0
	}
	return float64(s.NANDWritePages) / float64(s.HostWritePages)
}

type ppn struct {
	ch, blk, page int32
}

type block struct {
	state    []pageState // nil until the block is first programmed
	valid    int
	erases   int
	nextFree int
}

type pageState struct {
	lpn   int64 // logical page mapped here, -1 if none
	valid bool
}

type channel struct {
	pool       *sim.Pool
	blocks     []block
	free       []int // erased block ids
	active     int   // currently open block, -1 if none
	gcInFlight bool
}

// Drive is a simulated SSD. It is not safe for concurrent use.
type Drive struct {
	Config
	chans       []*channel
	next        int           // round-robin write channel
	l2p         map[int64]ppn // logical page -> physical page
	stats       Stats
	faults      *fault.Injector
	rec         *obs.Recorder
	chLanes     []obs.Lane // one trace lane per NAND channel
	journalBase int64      // first journal-region page, -1 when unset
}

// New returns a Drive for cfg. It panics on nonsensical configurations.
func New(cfg Config) *Drive {
	switch {
	case cfg.Channels < 1:
		panic(fmt.Sprintf("ssd: need >=1 channel, got %d", cfg.Channels))
	case cfg.PageSize < 1:
		panic(fmt.Sprintf("ssd: need positive page size, got %d", cfg.PageSize))
	case cfg.PagesPerBlock < 1 || cfg.BlocksPerChannel < 2:
		panic("ssd: need >=1 page/block and >=2 blocks/channel")
	case cfg.OverProvision < 0 || cfg.OverProvision >= 1:
		panic(fmt.Sprintf("ssd: over-provision must be in [0,1), got %g", cfg.OverProvision))
	}
	if cfg.GCFreeBlocks < 1 {
		cfg.GCFreeBlocks = 1
	}
	d := &Drive{Config: cfg, chans: make([]*channel, 0, cfg.Channels), l2p: make(map[int64]ppn), journalBase: -1}
	for c := 0; c < cfg.Channels; c++ {
		// Page state is allocated when a block is first opened (allocPage),
		// so construction costs O(channels + blocks) whatever the block size.
		ch := &channel{
			pool:   sim.NewPool(fmt.Sprintf("ssd:%s:ch%d", cfg.Name, c), 1),
			blocks: make([]block, cfg.BlocksPerChannel),
			free:   make([]int, cfg.BlocksPerChannel),
			active: -1,
		}
		for b := range ch.free {
			ch.free[b] = b
		}
		d.chans = append(d.chans, ch)
	}
	return d
}

// SetFaultInjector threads a deterministic fault injector through the
// drive's host-facing requests: writes may fail with transient or
// permanent errors, reads may fail transiently, and either may be
// delayed by a latency spike on the virtual clock. Internal FTL traffic
// (GC migration) is not subject to injection — the request-level fault
// is the unit callers retry. A nil injector disables injection.
func (d *Drive) SetFaultInjector(fi *fault.Injector) { d.faults = fi }

// SetRecorder attaches an observability recorder and registers one trace
// lane per NAND channel. Recording stamps every page program, read, GC
// migration, and erase in virtual time; a nil recorder leaves the drive
// exactly as fast and exactly as deterministic as before.
func (d *Drive) SetRecorder(r *obs.Recorder) {
	d.rec = r
	if r == nil {
		d.chLanes = nil
		return
	}
	d.chLanes = make([]obs.Lane, len(d.chans))
	for c := range d.chans {
		d.chLanes[c] = r.Lane("ssd", fmt.Sprintf("ch%d", c))
	}
}

// MarkJournalRegion tells the drive that logical pages >= firstPage belong
// to the dedup journal, so journal programs get their own span name in the
// trace ("journal" vs "program") and the §4 host-I/O-vs-journal competition
// on the channels is visible. A negative firstPage clears the region.
func (d *Drive) MarkJournalRegion(firstPage int64) { d.journalBase = firstPage }

// lane returns the trace lane for channel ci, or the inert zero Lane when
// no recorder is attached.
func (d *Drive) lane(ci int) obs.Lane {
	if ci < len(d.chLanes) {
		return d.chLanes[ci]
	}
	return obs.Lane{}
}

// PhysicalPages returns the drive's raw page count.
func (d *Drive) PhysicalPages() int64 {
	return int64(d.Channels) * int64(d.BlocksPerChannel) * int64(d.PagesPerBlock)
}

// LogicalPages returns the host-visible page count (after over-provisioning).
func (d *Drive) LogicalPages() int64 {
	return int64(float64(d.PhysicalPages()) * (1 - d.OverProvision))
}

// Pages converts a byte count into the number of pages it occupies.
func (d *Drive) Pages(bytes int) int {
	if bytes <= 0 {
		return 0
	}
	return (bytes + d.PageSize - 1) / d.PageSize
}

// NominalWriteIOPS returns the drive's small-write throughput ceiling
// (channels / program latency). This is the "SSD throughput" line the
// paper's evaluation compares every scheme against.
func (d *Drive) NominalWriteIOPS() float64 {
	return float64(d.Channels) / d.ProgramLatency.Seconds()
}

// Write programs n consecutive logical pages starting at lpn, with the
// request arriving at virtual time at. It returns the completion time of
// the last page. Pages stripe across channels; overwrites invalidate the
// previous mapping.
func (d *Drive) Write(at time.Duration, lpn int64, n int) (time.Duration, error) {
	if lpn < 0 || lpn+int64(n) > d.LogicalPages() {
		return at, fmt.Errorf("ssd: write [%d,%d) outside logical space of %d pages", lpn, lpn+int64(n), d.LogicalPages())
	}
	// Fault injection is per host request: a failed request programs
	// nothing (the controller rejected it), so a retry re-issues it whole.
	if err := d.faults.WriteError(); err != nil {
		d.stats.WriteFaults++
		d.rec.Instant(d.lane(d.next), "write-error", at)
		return at, fmt.Errorf("ssd: write [%d,%d): %w", lpn, lpn+int64(n), err)
	}
	if spike := d.faults.Latency(); spike > 0 {
		d.stats.LatencySpikes++
		at += spike
	}
	end := at
	for i := 0; i < n; i++ {
		e, err := d.writePage(at, lpn+int64(i))
		if err != nil {
			return end, err
		}
		end = max(end, e)
	}
	return end, nil
}

// WriteBytes programs enough pages at lpn to hold n bytes.
func (d *Drive) WriteBytes(at time.Duration, lpn int64, n int) (time.Duration, error) {
	return d.Write(at, lpn, d.Pages(n))
}

// Read fetches n consecutive logical pages starting at lpn. Unmapped pages
// cost a read anyway (the host interface returns zeros). Injected read
// faults fail the whole request before any page is fetched.
func (d *Drive) Read(at time.Duration, lpn int64, n int) (time.Duration, error) {
	if lpn < 0 || lpn+int64(n) > d.LogicalPages() {
		return at, fmt.Errorf("ssd: read [%d,%d) outside logical space of %d pages", lpn, lpn+int64(n), d.LogicalPages())
	}
	if err := d.faults.ReadError(); err != nil {
		d.stats.ReadFaults++
		d.rec.Instant(d.lane(d.chanFor(lpn)), "read-error", at)
		return at, fmt.Errorf("ssd: read [%d,%d): %w", lpn, lpn+int64(n), err)
	}
	if spike := d.faults.Latency(); spike > 0 {
		d.stats.LatencySpikes++
		at += spike
	}
	end := at
	for i := 0; i < n; i++ {
		ci := d.chanFor(lpn + int64(i))
		ch := d.chans[ci]
		s, e := ch.pool.Acquire(at, d.ReadLatency)
		d.rec.Span(d.lane(ci), "read", s, e)
		d.stats.NANDReadPages++
		d.stats.HostReadPages++
		end = max(end, e)
	}
	return end, nil
}

// Trim invalidates n logical pages starting at lpn (no NAND time; FTL
// metadata only).
func (d *Drive) Trim(lpn int64, n int) {
	for i := 0; i < n; i++ {
		if p, ok := d.l2p[lpn+int64(i)]; ok {
			d.invalidate(p)
			delete(d.l2p, lpn+int64(i))
			d.stats.TrimmedPages++
		}
	}
}

// Stats returns cumulative accounting.
func (d *Drive) Stats() Stats { return d.stats }

// MaxErase returns the highest per-block erase count (wear hot spot).
func (d *Drive) MaxErase() int {
	max := 0
	for _, ch := range d.chans {
		for b := range ch.blocks {
			if ch.blocks[b].erases > max {
				max = ch.blocks[b].erases
			}
		}
	}
	return max
}

// Utilization reports mean channel occupancy over [0, until].
func (d *Drive) Utilization(until time.Duration) float64 {
	if until <= 0 {
		return 0
	}
	var u float64
	for _, ch := range d.chans {
		u += ch.pool.Utilization(until)
	}
	return u / float64(len(d.chans))
}

// Horizon returns the latest scheduled completion across all channels.
func (d *Drive) Horizon() time.Duration {
	var h time.Duration
	for _, ch := range d.chans {
		h = max(h, ch.pool.Horizon())
	}
	return h
}

func (d *Drive) chanFor(lpn int64) int {
	if p, ok := d.l2p[lpn]; ok {
		return int(p.ch)
	}
	return int(lpn % int64(d.Channels))
}

func (d *Drive) writePage(at time.Duration, lpn int64) (time.Duration, error) {
	if old, ok := d.l2p[lpn]; ok {
		d.invalidate(old)
	}
	ci := d.next
	d.next = (d.next + 1) % d.Channels
	ch := d.chans[ci]

	end, err := d.program(at, ci, ch, lpn, true)
	if err != nil {
		return at, err
	}
	return end, nil
}

// program writes lpn (or a GC migration when host=false) into channel ci's
// active block, opening a new block and running GC as needed.
func (d *Drive) program(at time.Duration, ci int, ch *channel, lpn int64, host bool) (time.Duration, error) {
	blk, page, err := d.allocPage(at, ci, ch)
	if err != nil {
		return at, err
	}
	start, end := ch.pool.Acquire(at, d.ProgramLatency)
	if d.rec != nil {
		name := "gc-program"
		if host {
			name = "program"
			if d.journalBase >= 0 && lpn >= d.journalBase {
				name = "journal"
			}
		}
		d.rec.Span(d.lane(ci), name, start, end)
	}
	b := &ch.blocks[blk]
	b.state[page] = pageState{lpn: lpn, valid: true}
	b.valid++
	d.l2p[lpn] = ppn{ch: int32(ci), blk: int32(blk), page: int32(page)}
	d.stats.NANDWritePages++
	if host {
		d.stats.HostWritePages++
	}
	return end, nil
}

func (d *Drive) allocPage(at time.Duration, ci int, ch *channel) (blk, page int, err error) {
	if ch.active >= 0 && ch.blocks[ch.active].nextFree < d.PagesPerBlock {
		b := ch.active
		p := ch.blocks[b].nextFree
		ch.blocks[b].nextFree++
		return b, p, nil
	}
	// Need a fresh block; reclaim space first if we are at the watermark.
	if len(ch.free) <= d.GCFreeBlocks && !ch.gcInFlight {
		d.collect(at, ci, ch)
	}
	if len(ch.free) == 0 {
		return 0, 0, fmt.Errorf("ssd: channel %d out of free blocks (drive full)", ci)
	}
	b := ch.free[len(ch.free)-1]
	ch.free = ch.free[:len(ch.free)-1]
	ch.active = b
	ch.blocks[b].nextFree = 1
	if ch.blocks[b].state == nil {
		ch.blocks[b].state = make([]pageState, d.PagesPerBlock)
	}
	return b, 0, nil
}

// collect runs greedy GC on one channel until it is above the watermark or
// no reclaimable block exists.
func (d *Drive) collect(at time.Duration, ci int, ch *channel) {
	ch.gcInFlight = true
	defer func() { ch.gcInFlight = false }()
	d.stats.GCRuns++
	for len(ch.free) <= d.GCFreeBlocks {
		victim := d.pickVictim(ch)
		if victim < 0 {
			return
		}
		vb := &ch.blocks[victim]
		// Migrate valid pages: read + program each into the active block.
		for p := 0; p < vb.nextFree; p++ {
			st := vb.state[p]
			if !st.valid {
				continue
			}
			rs, re := ch.pool.Acquire(at, d.ReadLatency)
			d.rec.Span(d.lane(ci), "gc-read", rs, re)
			d.stats.NANDReadPages++
			vb.state[p].valid = false
			vb.valid--
			if _, err := d.program(at, ci, ch, st.lpn, false); err != nil {
				return
			}
		}
		es, ee := ch.pool.Acquire(at, d.EraseLatency)
		d.rec.Span(d.lane(ci), "erase", es, ee)
		d.stats.Erases++
		vb.erases++
		vb.nextFree = 0
		vb.valid = 0
		clear(vb.state)
		ch.free = append(ch.free, victim)
	}
}

// pickVictim returns the fullest-written, least-valid block that is neither
// free nor active, or -1 if none would free space.
func (d *Drive) pickVictim(ch *channel) int {
	best, bestValid := -1, d.PagesPerBlock+1
	for b := range ch.blocks {
		if b == ch.active {
			continue
		}
		blk := &ch.blocks[b]
		if blk.nextFree == 0 {
			continue // free: never written, or erased and not yet reopened
		}
		// Erasing a fully valid block frees nothing; skip.
		if blk.valid >= blk.nextFree && blk.nextFree == d.PagesPerBlock {
			continue
		}
		if blk.valid < bestValid {
			best, bestValid = b, blk.valid
		}
	}
	return best
}

func (d *Drive) invalidate(p ppn) {
	b := &d.chans[p.ch].blocks[p.blk]
	if b.state[p.page].valid {
		b.state[p.page].valid = false
		b.valid--
	}
}

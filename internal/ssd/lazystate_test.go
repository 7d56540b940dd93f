package ssd

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"
)

var updateTrace = flag.Bool("update", false, "rewrite testdata/small_drive_trace.txt from the current drive")

const traceGolden = "testdata/small_drive_trace.txt"

// newDriveCost reports allocations and allocated bytes of one New(cfg). The
// collector is off while it measures and the bytes are the least of several
// runs: a GC cycle allocates on the runtime's own behalf, and that must not
// count against the constructor.
func newDriveCost(cfg Config) (allocs float64, bytes uint64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs = testing.AllocsPerRun(5, func() { New(cfg) })
	bytes = math.MaxUint64
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := New(cfg)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(d)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return allocs, bytes
}

// TestNewDriveCostIndependentOfPageCount: constructing a drive costs
// O(channels + blocks) — page state is allocated when a block is first
// programmed — so growing the block count adds only the per-block header and
// free-list entry, and growing the block size adds nothing.
func TestNewDriveCostIndependentOfPageCount(t *testing.T) {
	// The runtime (and the race detector) allocate a little on their own;
	// an eager drive would miss these bounds by thousands of allocations
	// and megabytes.
	const allocNoise, byteNoise = 8, 4096
	base := DefaultConfig()
	baseAllocs, baseBytes := newDriveCost(base)

	bigBlocks := base
	bigBlocks.PagesPerBlock = 32 * base.PagesPerBlock
	a, b := newDriveCost(bigBlocks)
	if math.Abs(a-baseAllocs) > allocNoise || b > baseBytes+byteNoise {
		t.Errorf("PagesPerBlock x32: %v allocs / %d B, want %v / %d (no term in pages per block)", a, b, baseAllocs, baseBytes)
	}

	moreBlocks := base
	moreBlocks.BlocksPerChannel = 16 * base.BlocksPerChannel
	a, b = newDriveCost(moreBlocks)
	if math.Abs(a-baseAllocs) > allocNoise {
		t.Errorf("BlocksPerChannel x16: %v allocs, want %v", a, baseAllocs)
	}
	perBlock := uint64(unsafe.Sizeof(block{}) + unsafe.Sizeof(int(0)))
	extra := uint64(base.Channels*(moreBlocks.BlocksPerChannel-base.BlocksPerChannel)) * perBlock
	// Size classes round each slice up; allow one page per slice of slack.
	if slack := uint64(2*base.Channels*8192 + byteNoise); b+byteNoise < baseBytes+extra || b > baseBytes+extra+slack {
		t.Errorf("BlocksPerChannel x16: %d B, want %d + %d per-block header bytes (+<=%d rounding)", b, baseBytes, extra, slack)
	}
}

// smallDriveTrace drives a 2 x 8 x 4 drive through fill, overwrite (GC),
// trim, read and refill, logging every completion time, then the final
// Stats, wear and logical-to-physical map.
func smallDriveTrace(t *testing.T) string {
	cfg := DefaultConfig()
	cfg.Name = "small"
	cfg.Channels = 2
	cfg.BlocksPerChannel = 8
	cfg.PagesPerBlock = 4
	cfg.OverProvision = 0.25
	cfg.GCFreeBlocks = 2
	d := New(cfg)
	logical := d.LogicalPages()
	rng := rand.New(rand.NewSource(15))
	var sb strings.Builder
	var at time.Duration
	write := func(lpn int64, n int) {
		end, err := d.Write(at, lpn, n)
		fmt.Fprintf(&sb, "write %d+%d at=%d end=%d err=%v\n", lpn, n, at, end, err)
		at += 25 * time.Microsecond
	}
	for lpn := int64(0); lpn < logical; lpn += 3 {
		write(lpn, int(min(3, logical-lpn)))
	}
	for i := 0; i < 160; i++ {
		write(rng.Int63n(logical), 1)
	}
	// Trim and read pages that live in blocks GC has erased and reopened:
	// their state slices have been cleared and reused.
	reopened := 0
	for lpn := int64(0); lpn < logical; lpn += 2 {
		if p, ok := d.l2p[lpn]; ok && d.chans[p.ch].blocks[p.blk].erases > 0 {
			reopened++
		}
		d.Trim(lpn, 1)
		end, err := d.Read(at, lpn, 2)
		fmt.Fprintf(&sb, "trim %d; read %d+2 at=%d end=%d err=%v\n", lpn, lpn, at, end, err)
		at += 25 * time.Microsecond
	}
	if reopened == 0 {
		t.Fatal("script never trimmed a page of an erased-and-reopened block")
	}
	for i := 0; i < 80; i++ {
		write(rng.Int63n(logical), 1+rng.Intn(2))
	}
	fmt.Fprintf(&sb, "stats %+v\nmax_erase %d horizon %d\n", d.Stats(), d.MaxErase(), d.Horizon())
	lpns := make([]int64, 0, len(d.l2p))
	for lpn := range d.l2p {
		lpns = append(lpns, lpn)
	}
	sort.Slice(lpns, func(i, j int) bool { return lpns[i] < lpns[j] })
	for _, lpn := range lpns {
		p := d.l2p[lpn]
		fmt.Fprintf(&sb, "l2p %d -> ch%d blk%d page%d\n", lpn, p.ch, p.blk, p.page)
	}
	if st := d.Stats(); st.GCRuns == 0 || st.Erases == 0 {
		t.Fatalf("script produced no GC: %+v", st)
	}
	return sb.String()
}

// TestSmallDriveTraceUnchanged holds FTL behaviour — completion times, GC
// order, wear, Stats and the final mapping — to the trace recorded when
// page state was still allocated eagerly in New.
func TestSmallDriveTraceUnchanged(t *testing.T) {
	got := smallDriveTrace(t)
	if *updateTrace {
		if err := os.WriteFile(traceGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(traceGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	wl := strings.Split(string(want), "\n")
	for i, g := range strings.Split(got, "\n") {
		if i >= len(wl) || g != wl[i] {
			w := "<missing>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("line %d differs from %s:\n got  %s\n want %s", i+1, traceGolden, g, w)
		}
	}
	if got != string(want) {
		t.Fatalf("%s has more lines than the drive produced", traceGolden)
	}
}

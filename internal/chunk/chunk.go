// Package chunk implements the chunking stage of the deduplication pipeline:
// breaking a write stream into the fixed-size chunks primary storage systems
// deduplicate at (4 KB in the paper's evaluation, 8 KB in its index-sizing
// analysis), plus a content-defined chunker (Gear rolling hash) for
// workloads where shifted content would defeat fixed boundaries.
package chunk

import (
	"fmt"
	"io"
)

// Chunk is one unit of deduplication: a byte range of the input stream.
type Chunk struct {
	Data   []byte // chunk payload; owned by the caller after Next returns
	Offset int64  // byte offset of the chunk in the stream
}

// Chunker splits a stream into chunks. Next returns io.EOF after the final
// chunk has been returned.
type Chunker interface {
	// Next returns the next chunk. The returned Data is a fresh slice the
	// caller may retain: a capacity-clipped view into the chunker's current
	// read slab, which is never written again (a full slab is replaced, not
	// compacted, and slabs are plain GC-managed memory), so no copy is made
	// and a retained chunk keeps its whole slab alive. With a Buffers pool
	// attached Data is instead a copy in a pool buffer, which the caller
	// owns until it returns it to the pool.
	Next() (Chunk, error)
}

// Buffers supplies reusable chunk payload buffers so a steady-state run
// allocates nothing per chunk. Get returns a zero-length slice with at
// least the requested capacity; Put gives a buffer back once the caller is
// done with the chunk's Data. Implementations must be safe for concurrent
// use (the engine recycles buffers from worker goroutines).
//
// Ownership rule: with a pool attached, chunk Data is on loan — a caller
// that retains chunk bytes past Put (e.g. Verify-mode blob retention) must
// copy them first or simply never Put that buffer.
type Buffers interface {
	Get(capacity int) []byte
	Put(buf []byte)
}

// Fixed is a fixed-size chunker. The final chunk of a stream may be
// shorter than the chunk size.
type Fixed struct {
	r      io.Reader
	size   int
	offset int64
	done   bool
	bufs   Buffers
	slab   []byte // view mode: the part of the current slab no chunk has been cut from
}

// NewFixed returns a fixed-size chunker over r. It panics if size < 1.
func NewFixed(r io.Reader, size int) *Fixed {
	if size < 1 {
		panic(fmt.Sprintf("chunk: fixed chunk size must be >= 1, got %d", size))
	}
	return &Fixed{r: r, size: size}
}

// SetBuffers attaches a buffer pool; subsequent chunks' Data slices are
// drawn from it and the caller must Put them back when done.
func (f *Fixed) SetBuffers(b Buffers) { f.bufs = b }

// Reset re-targets the chunker at a new stream, keeping its configuration
// and buffer pool, so long-lived pipelines chunk many streams without
// reconstructing state.
func (f *Fixed) Reset(r io.Reader) {
	f.r = r
	f.offset = 0
	f.done = false
}

// Next returns the next fixed-size chunk.
func (f *Fixed) Next() (Chunk, error) {
	if f.done {
		return Chunk{}, io.EOF
	}
	var buf []byte
	if f.bufs != nil {
		buf = f.bufs.Get(f.size)[:f.size]
	} else {
		if len(f.slab) < f.size {
			f.slab = make([]byte, max(slabBytes/f.size, 1)*f.size)
		}
		buf = f.slab[:f.size]
	}
	n, err := io.ReadFull(f.r, buf)
	switch err {
	case nil:
	case io.ErrUnexpectedEOF:
		f.done = true
	case io.EOF:
		f.done = true
		release(f.bufs, buf)
		return Chunk{}, io.EOF
	default:
		release(f.bufs, buf)
		return Chunk{}, err
	}
	c := Chunk{Data: buf[:n], Offset: f.offset}
	if f.bufs == nil {
		c.Data, f.slab = buf[:n:n], f.slab[n:]
	}
	f.offset += int64(n)
	return c, nil
}

// GearConfig parameterizes the content-defined chunker.
type GearConfig struct {
	Min  int // minimum chunk size; boundaries are suppressed before this
	Avg  int // target average chunk size; must be a power of two
	Max  int // hard maximum chunk size
	Seed uint64
}

// DefaultGearConfig targets 4 KB average chunks with 2 KB/16 KB bounds.
func DefaultGearConfig() GearConfig {
	return GearConfig{Min: 2 << 10, Avg: 4 << 10, Max: 16 << 10, Seed: 0x9E3779B97F4A7C15}
}

// Gear is a content-defined chunker using the Gear rolling hash: at each
// byte, hash = hash<<1 + table[b]; a boundary is declared when the top bits
// selected by the average-size mask are all zero. Identical content
// therefore produces identical boundaries regardless of its position in the
// stream.
type Gear struct {
	cfg   GearConfig
	table [256]uint64
	mask  uint64
	ref   bool // force the scalar reference scan (differential tests/benches)
	r     io.Reader
	// read[start:end] is the unconsumed read-ahead, in a slab several Max
	// lengths long so tail room runs out once per readSlack consumed Max
	// windows, not once per chunk. What happens then depends on who owns
	// chunk bytes (see fill): with a Buffers pool the one slab is compacted
	// in place and steady-state chunking allocates nothing; without one the
	// chunks handed out are views into it, so a new slab takes over and
	// only the unconsumed tail (< Max bytes) is carried across.
	read   []byte
	start  int
	end    int
	offset int64
	eof    bool
	bufs   Buffers
}

// NewGear returns a content-defined chunker over r. It panics if the
// configuration is inconsistent (Min > Avg, Avg > Max, or Avg not a power
// of two).
func NewGear(r io.Reader, cfg GearConfig) *Gear {
	if cfg.Min < 1 || cfg.Min > cfg.Avg || cfg.Avg > cfg.Max {
		panic(fmt.Sprintf("chunk: need 1 <= Min <= Avg <= Max, got %+v", cfg))
	}
	if cfg.Avg&(cfg.Avg-1) != 0 {
		panic(fmt.Sprintf("chunk: Avg must be a power of two, got %d", cfg.Avg))
	}
	g := &Gear{cfg: cfg, r: r}
	// The mask selects log2(Avg) bits in the high half of the hash so the
	// expected distance between boundaries is Avg.
	bits := 0
	for v := cfg.Avg; v > 1; v >>= 1 {
		bits++
	}
	g.mask = ((1 << bits) - 1) << (64 - bits)
	// Deterministic pseudo-random gear table (splitmix64).
	s := cfg.Seed
	for i := range g.table {
		s += 0x9E3779B97F4A7C15
		z := s
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		g.table[i] = z ^ (z >> 31)
	}
	return g
}

// SetBuffers attaches a buffer pool; subsequent chunks' Data slices are
// drawn from it and the caller must Put them back when done.
func (g *Gear) SetBuffers(b Buffers) { g.bufs = b }

// Reset re-targets the chunker at a new stream, keeping its gear table,
// buffer pool and, with a pool attached, its read slab: a steady-state
// pooled pipeline chunks any number of streams with zero construction
// allocations. Without a pool the slab is dropped — views into it are out.
func (g *Gear) Reset(r io.Reader) {
	if g.bufs == nil {
		g.read = nil
	}
	g.r = r
	g.start, g.end = 0, 0
	g.offset = 0
	g.eof = false
}

// Next returns the next content-defined chunk.
func (g *Gear) Next() (Chunk, error) {
	if err := g.fill(g.cfg.Max); err != nil {
		return Chunk{}, err
	}
	window := g.read[g.start:g.end]
	if len(window) == 0 {
		return Chunk{}, io.EOF
	}
	cut := g.findBoundary(window)
	data := window[:cut:cut]
	if g.bufs != nil {
		data = append(g.bufs.Get(cut)[:0], data...)
	}
	g.start += cut
	c := Chunk{Data: data, Offset: g.offset}
	g.offset += int64(cut)
	return c, nil
}

// readSlack is how many Max-length windows the read slab holds beyond the
// one fill must guarantee: making tail room moves at most Max bytes once
// per readSlack*Max consumed, so the amortized cost is 1/readSlack of a
// memmove per byte instead of a full one.
const readSlack = 7

// slabBytes is the fixed chunker's view-mode slab size (whole chunks, at
// least one): the same 128 KiB the Gear slab has at the default Max.
const slabBytes = 128 << 10

// gearWindow is how many trailing bytes the 64-bit Gear state can depend
// on: every step shifts the hash left one bit, so a byte's table
// contribution has been shifted out entirely (mod 2^64, not just in the
// masked bits) after 64 steps. Seeding the rolling state from the
// gearWindow bytes before the first testable position therefore reproduces
// the full-prefix hash value exactly at every position from Min onward.
const gearWindow = 64

// findBoundary returns the cut point for the front of buf.
//
// This is the multi-byte fast path (the chunker's matchLen moment): cut
// points before Min are suppressed, and the hash at any position depends
// only on the last gearWindow bytes, so the scan skips the pre-Min prefix
// outright — it seeds the state from buf[Min-1-gearWindow : Min-1] instead
// of hashing bytes that can never be declared a cut. Because Next calls
// findBoundary afresh on each chunk, this is also the skip-ahead after a
// cut: the scan of the next chunk restarts at offset+Min-gearWindow rather
// than re-walking the new chunk's head. The hot loop then folds eight
// table lookups per unrolled iteration, written as h*2+t so the update
// compiles to a single fused lea: the rolling state's loop-carried
// dependency drops from two cycles per byte (shl+add) to one. Each
// position's mask test is a compare the branch predictor retires as
// never-taken (a cut fires once per Avg bytes); folding the eight tests
// into one branchless combine per step is possible — the algebra allows
// it — but measured slower, because the flag arithmetic occupies the
// issue ports the hash chain needs, while predicted-untaken branches are
// effectively free (see DESIGN.md "Chunker hot loop"). Boundaries are
// bit-identical to the retained scalar scan (findBoundaryRef); the
// differential, fuzz, and golden tests in gearref_test.go hold the two
// together.
func (g *Gear) findBoundary(buf []byte) int {
	n := len(buf)
	if n <= g.cfg.Min {
		return n
	}
	if g.ref {
		return g.findBoundaryRef(buf)
	}
	limit := n
	if limit > g.cfg.Max {
		limit = g.cfg.Max
	}
	table := &g.table
	mask := g.mask
	// first is the first byte index whose hash may declare a cut (cut
	// position i+1 >= Min). Seed the rolling state from the window-length
	// bytes before it; older bytes cannot influence the hash there.
	first := g.cfg.Min - 1
	seed := first - gearWindow
	if seed < 0 {
		seed = 0
	}
	var h uint64
	for _, b := range buf[seed:first] {
		h = h*2 + table[b]
	}
	i := first
	// runGate suppresses run probing until a position where a full
	// gearWindow-length run could exist again: when a backward probe finds
	// a mismatch at index j, no all-identical window can end before
	// j+gearWindow, so probing again earlier is wasted work (striped
	// half-compressible data would otherwise pay a failed probe per word).
	runGate := 0
	for i+8 <= limit {
		s := buf[i : i+8 : i+8]
		// Constant-run fast path: h ← 2h + t has fixed point h = -t
		// (mod 2^64), so after gearWindow identical bytes b the hash is
		// pinned at -table[b] no matter how long the run continues. If
		// that pinned value fails the mask test, no position deeper in
		// the run can be a cut — skip the run a word at a time instead
		// of re-hashing it. Zero-filled and sparse regions (VM images,
		// preallocated files) are exactly this shape.
		if v := le64(s); v == v>>8|v<<56 && i >= runGate && i >= gearWindow {
			b := v & 0xff
			if (-table[b])&mask != 0 {
				j := i - 1
				for lo := i - gearWindow; j >= lo && buf[j] == byte(b); j-- {
				}
				if j < i-gearWindow {
					// The gearWindow bytes before i are all b, so h is
					// already -table[b] and every position covered by
					// an all-b window is cut-free; advance while whole
					// words keep matching. h needs no update: -t is
					// the fixed point the skipped steps would
					// reproduce.
					i += 8
					for i+8 <= limit && le64(buf[i:i+8:i+8]) == v {
						i += 8
					}
					continue
				}
				runGate = j + gearWindow
			}
		}
		h = h*2 + table[s[0]]
		if h&mask == 0 {
			return i + 1
		}
		h = h*2 + table[s[1]]
		if h&mask == 0 {
			return i + 2
		}
		h = h*2 + table[s[2]]
		if h&mask == 0 {
			return i + 3
		}
		h = h*2 + table[s[3]]
		if h&mask == 0 {
			return i + 4
		}
		h = h*2 + table[s[4]]
		if h&mask == 0 {
			return i + 5
		}
		h = h*2 + table[s[5]]
		if h&mask == 0 {
			return i + 6
		}
		h = h*2 + table[s[6]]
		if h&mask == 0 {
			return i + 7
		}
		h = h*2 + table[s[7]]
		if h&mask == 0 {
			return i + 8
		}
		i += 8
	}
	for ; i < limit; i++ {
		h = h*2 + table[buf[i]]
		if h&mask == 0 {
			return i + 1
		}
	}
	return limit
}

// le64 is binary.LittleEndian.Uint64 spelled so the compiler keeps it a
// single load in the hot loop.
func le64(s []byte) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// findBoundaryRef is the original byte-at-a-time scan, retained as the
// reference findBoundary must agree with exactly — the same differential
// pattern that guards the word-wise lz.matchLen. The hash rolls over the
// whole pre-Min prefix (so the boundary decision depends only on content)
// but no cut is declared before Min.
func (g *Gear) findBoundaryRef(buf []byte) int {
	n := len(buf)
	if n <= g.cfg.Min {
		return n
	}
	limit := n
	if limit > g.cfg.Max {
		limit = g.cfg.Max
	}
	var h uint64
	for i := 0; i < limit; i++ {
		h = h<<1 + g.table[buf[i]]
		if i+1 >= g.cfg.Min && h&g.mask == 0 {
			return i + 1
		}
	}
	return limit
}

// fill tops the read-ahead window up to want bytes (or EOF), reading
// directly into the slab. When the slab's tail room runs out the window
// moves to the front: of the same slab when chunks are copied into a pool,
// of a new one when they are views (which must never be overwritten).
func (g *Gear) fill(want int) error {
	for g.end-g.start < want && !g.eof {
		if len(g.read)-g.start < want {
			dst := g.read
			if dst == nil || g.bufs == nil {
				dst = make([]byte, (readSlack+1)*g.cfg.Max)
			}
			g.end = copy(dst, g.read[g.start:g.end])
			g.read, g.start = dst, 0
		}
		n, err := g.r.Read(g.read[g.end:])
		g.end += n
		if err == io.EOF {
			g.eof = true
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// release returns an unused buffer to the pool, if any.
func release(b Buffers, buf []byte) {
	if b != nil {
		b.Put(buf)
	}
}

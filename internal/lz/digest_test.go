package lz

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/encode_digests.txt from the current encoder")

const digestGolden = "testdata/encode_digests.txt"

// digestCorpora is the shared test corpus, the three Compress4K bench
// chunks, and one buffer past 64 Ki positions (the wide-link regime).
func digestCorpora() (names []string, data map[string][]byte) {
	data = corpus()
	data["bench-incompressible"] = benchChunk(1.0)
	data["bench-half"] = benchChunk(0.5)
	data["bench-zeros"] = make([]byte, 4096)
	rng := rand.New(rand.NewSource(15))
	wide := bytes.Repeat([]byte("inline data reduction on primary storage "), 1800)[:70000]
	for i := 0; i+96 < len(wide); i += 700 {
		rng.Read(wide[i : i+96])
	}
	data["wide"] = wide
	for name := range data {
		names = append(names, name)
	}
	sort.Strings(names)
	return names, data
}

// encodeDigests renders one line per corpus × params: the SHA-256 of the
// blob and the six Stats fields. It uses only exported entry points, so the
// same file generates the golden at any commit.
func encodeDigests() string {
	single := []struct {
		name string
		p    Params
	}{
		{"default", DefaultParams()},
		{"chain0", Params{}},
		{"chain1", Params{MaxChain: 1}},
		{"chain64", Params{MaxChain: 64}},
	}
	lanes := []struct {
		name string
		p    SubBlockParams
	}{
		{"sub-default", DefaultSubBlockParams()},
		{"sub2x0", SubBlockParams{Params: DefaultParams(), SubBlocks: 2}},
		{"sub3x5000", SubBlockParams{Params: DefaultParams(), SubBlocks: 3, Overlap: 5000}},
	}
	var sb strings.Builder
	line := func(corpus, params string, blob []byte, st Stats) {
		fmt.Fprintf(&sb, "%s %s %x src=%d dst=%d lit=%d match=%d pos=%d steps=%d\n",
			corpus, params, sha256.Sum256(blob),
			st.SrcBytes, st.DstBytes, st.Literals, st.Matches, st.Positions, st.SearchSteps)
	}
	names, data := digestCorpora()
	for _, name := range names {
		for _, c := range single {
			blob, st := Compress(nil, data[name], c.p)
			line(name, c.name, blob, st)
		}
		for _, c := range lanes {
			res := CompressSubBlocks(data[name], c.p)
			blob, _ := PostProcess(nil, res)
			var sum Stats
			for _, l := range res.Lanes {
				sum.SrcBytes += l.Stats.SrcBytes
				sum.DstBytes += l.Stats.DstBytes
				sum.Literals += l.Stats.Literals
				sum.Matches += l.Stats.Matches
				sum.Positions += l.Stats.Positions
				sum.SearchSteps += l.Stats.SearchSteps
			}
			line(name, c.name, blob, sum)
		}
	}
	return sb.String()
}

// TestEncodeDigests pins blob bytes and every Stats field per corpus ×
// params. SearchSteps feeds the virtual-time cost model, so a matcher edit
// that moves it must fail here, not in a report golden three packages away.
func TestEncodeDigests(t *testing.T) {
	got := encodeDigests()
	if *updateDigests {
		if err := os.WriteFile(digestGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to record)", err)
	}
	if got == string(want) {
		return
	}
	wl := strings.Split(string(want), "\n")
	for i, g := range strings.Split(got, "\n") {
		if i >= len(wl) || g != wl[i] {
			w := "<missing>"
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("line %d differs from %s:\n got  %s\n want %s", i+1, digestGolden, g, w)
		}
	}
	t.Fatalf("%s has %d lines, encoder produced fewer", digestGolden, len(wl))
}

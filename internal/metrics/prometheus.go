package metrics

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// formatValue renders a float the way Prometheus clients do: shortest
// round-trip representation.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines in HELP text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// bucketUpper is bucket b's inclusive upper bound in raw (pre-scale)
// units, mirroring sim.Histogram's layout.
func bucketUpper(b int) int64 {
	if b <= 0 {
		return 0
	}
	if b >= 63 {
		return 1<<63 - 1
	}
	return int64(1)<<b - 1
}

// withLabel splices one more label into a pre-rendered label block.
func withLabel(labels, key, value string) string {
	extra := key + `="` + value + `"`
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// writeHistogram emits one histogram series in exposition format:
// cumulative buckets up to the highest occupied one, then +Inf, _sum, and
// _count.
func writeHistogram(w io.Writer, name, labels string, counts [histBuckets]int64, n, sum int64, scale float64) error {
	top := 0
	for b := histBuckets - 1; b >= 0; b-- {
		if counts[b] != 0 {
			top = b
			break
		}
	}
	var cum int64
	for b := 0; b <= top; b++ {
		cum += counts[b]
		le := formatValue(float64(bucketUpper(b)) * scale)
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLabel(labels, "le", le), cum); err != nil {
			return err
		}
	}
	if n < cum {
		// A snapshot racing an Observe can see the bucket increment before
		// the n increment; keep the exposition internally consistent.
		n = cum
	}
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLabel(labels, "le", "+Inf"), n); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatValue(float64(sum)*scale)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, n)
	return err
}

// WriteTo writes the full Prometheus text exposition (version 0.0.4) of
// every registered metric, in registration order, plus the Go runtime GC
// pause histogram when a runtime sample has been taken. The output is
// deterministic given fixed metric values.
func WriteTo(w io.Writer) error {
	for _, f := range familiesSnapshot() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.series {
			switch {
			case s.c != nil:
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatValue(float64(s.c.Value())*f.scale)); err != nil {
					return err
				}
			case s.g != nil:
				if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatValue(float64(s.g.Value())*f.scale)); err != nil {
					return err
				}
			case s.h != nil:
				counts, n, sum := s.h.snapshot()
				if err := writeHistogram(w, f.name, s.labels, counts, n, sum, f.scale); err != nil {
					return err
				}
			}
		}
	}
	return writeRuntimePauses(w)
}

// WriteFile writes the exposition atomically: a temp file in the target's
// directory, then a rename, so a scraper (or the CI validator) never
// observes a half-written snapshot.
func WriteFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := WriteTo(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

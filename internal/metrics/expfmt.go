package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// A real Prometheus text-format (version 0.0.4) parser, used by the
// exposition tests and cmd/metricscheck so "the output is valid expfmt"
// is checked by a grammar, not an eyeball. It is strict where the spec
// is: metric-name and label-name character sets, label-value escaping,
// float sample values, TYPE declarations, and histogram invariants
// (cumulative buckets, mandatory +Inf, _count agreement).

// Sample is one parsed sample line.
type Sample struct {
	Name   string // full sample name, including _bucket/_sum/_count suffixes
	Labels map[string]string
	Value  float64
}

// Exposition is a parsed text exposition.
type Exposition struct {
	Types   map[string]string // family name -> counter|gauge|histogram|summary|untyped
	Help    map[string]string
	Samples []Sample
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.ContainsRune(s, ':') {
		return false
	}
	return validMetricName(s)
}

// parseLabels parses `key="value",...}` starting just after the '{'.
// Returns the labels and the rest of the line after the closing brace.
func parseLabels(s string) (map[string]string, string, error) {
	labels := make(map[string]string)
	for {
		s = strings.TrimLeft(s, " \t")
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		eq := strings.IndexByte(s, '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("label without '='")
		}
		name := strings.TrimSpace(s[:eq])
		if !validLabelName(name) {
			return nil, "", fmt.Errorf("invalid label name %q", name)
		}
		s = strings.TrimLeft(s[eq+1:], " \t")
		if !strings.HasPrefix(s, `"`) {
			return nil, "", fmt.Errorf("label %s: value not quoted", name)
		}
		s = s[1:]
		var val strings.Builder
		for {
			if s == "" {
				return nil, "", fmt.Errorf("label %s: unterminated value", name)
			}
			c := s[0]
			s = s[1:]
			if c == '"' {
				break
			}
			if c == '\\' {
				if s == "" {
					return nil, "", fmt.Errorf("label %s: dangling escape", name)
				}
				esc := s[0]
				s = s[1:]
				switch esc {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("label %s: bad escape \\%c", name, esc)
				}
				continue
			}
			val.WriteByte(c)
		}
		if _, dup := labels[name]; dup {
			return nil, "", fmt.Errorf("duplicate label %s", name)
		}
		labels[name] = val.String()
		s = strings.TrimLeft(s, " \t")
		if strings.HasPrefix(s, ",") {
			s = s[1:]
		}
	}
}

func parseSampleValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// familyOf strips a histogram/summary sample suffix when the exposition
// declared the base name with that type.
func familyOf(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name {
			if t := types[base]; t == "histogram" || t == "summary" {
				return base
			}
		}
	}
	return name
}

// ParseExposition parses and validates a Prometheus text exposition.
// Beyond the line grammar it requires: a trailing newline, a TYPE
// declaration before any sample of a family, and for every histogram
// series a +Inf bucket with cumulative (non-decreasing) bucket counts
// that agree with _count.
func ParseExposition(data []byte) (*Exposition, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("expfmt: empty exposition")
	}
	if data[len(data)-1] != '\n' {
		return nil, fmt.Errorf("expfmt: missing trailing newline")
	}
	exp := &Exposition{Types: make(map[string]string), Help: make(map[string]string)}
	lines := strings.Split(string(data), "\n")
	for no, line := range lines {
		if line == "" {
			continue
		}
		fail := func(format string, args ...any) (*Exposition, error) {
			return nil, fmt.Errorf("expfmt: line %d: %s", no+1, fmt.Sprintf(format, args...))
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 2 {
				continue // bare comment
			}
			switch fields[1] {
			case "HELP":
				if len(fields) < 3 || !validMetricName(fields[2]) {
					return fail("malformed HELP")
				}
				help := ""
				if len(fields) == 4 {
					help = fields[3]
				}
				exp.Help[fields[2]] = help
			case "TYPE":
				if len(fields) != 4 || !validMetricName(fields[2]) {
					return fail("malformed TYPE")
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fail("unknown type %q", fields[3])
				}
				if _, dup := exp.Types[fields[2]]; dup {
					return fail("duplicate TYPE for %s", fields[2])
				}
				exp.Types[fields[2]] = fields[3]
			}
			continue
		}
		// Sample line: name[{labels}] value [timestamp]
		i := 0
		for i < len(line) && line[i] != '{' && line[i] != ' ' && line[i] != '\t' {
			i++
		}
		name := line[:i]
		if !validMetricName(name) {
			return fail("invalid metric name %q", name)
		}
		rest := line[i:]
		labels := map[string]string{}
		if strings.HasPrefix(rest, "{") {
			var err error
			labels, rest, err = parseLabels(rest[1:])
			if err != nil {
				return fail("%v", err)
			}
		}
		fields := strings.Fields(rest)
		if len(fields) < 1 || len(fields) > 2 {
			return fail("want 'value [timestamp]', got %q", strings.TrimSpace(rest))
		}
		v, err := parseSampleValue(fields[0])
		if err != nil {
			return fail("bad value %q", fields[0])
		}
		if len(fields) == 2 {
			if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
				return fail("bad timestamp %q", fields[1])
			}
		}
		fam := familyOf(name, exp.Types)
		if _, ok := exp.Types[fam]; !ok {
			return fail("sample %s has no TYPE declaration", name)
		}
		exp.Samples = append(exp.Samples, Sample{Name: name, Labels: labels, Value: v})
	}
	if err := exp.checkHistograms(); err != nil {
		return nil, err
	}
	return exp, nil
}

// seriesKey identifies one histogram series: its labels minus "le",
// rendered in sorted order.
func seriesKey(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, labels[k])
	}
	return b.String()
}

// checkHistograms enforces per-series histogram invariants.
func (e *Exposition) checkHistograms() error {
	type hist struct {
		les    []float64
		counts []float64
		count  float64
		hasCnt bool
	}
	series := make(map[string]*hist)
	for _, s := range e.Samples {
		var fam, part string
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if base := strings.TrimSuffix(s.Name, suf); base != s.Name && e.Types[base] == "histogram" {
				fam, part = base, suf
				break
			}
		}
		if fam == "" {
			continue
		}
		key := fam + "|" + seriesKey(s.Labels)
		h := series[key]
		if h == nil {
			h = &hist{}
			series[key] = h
		}
		switch part {
		case "_bucket":
			leStr, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("expfmt: %s bucket without le label", fam)
			}
			le, err := parseSampleValue(leStr)
			if err != nil {
				return fmt.Errorf("expfmt: %s: bad le %q", fam, leStr)
			}
			h.les = append(h.les, le)
			h.counts = append(h.counts, s.Value)
		case "_count":
			h.count = s.Value
			h.hasCnt = true
		}
	}
	for key, h := range series {
		if len(h.les) == 0 {
			return fmt.Errorf("expfmt: histogram series %s has no buckets", key)
		}
		hasInf := false
		for i := range h.les {
			if i > 0 {
				if h.les[i] <= h.les[i-1] {
					return fmt.Errorf("expfmt: histogram %s: le not increasing", key)
				}
				if h.counts[i] < h.counts[i-1] {
					return fmt.Errorf("expfmt: histogram %s: bucket counts not cumulative", key)
				}
			}
			if math.IsInf(h.les[i], 1) {
				hasInf = true
			}
		}
		if !hasInf {
			return fmt.Errorf("expfmt: histogram %s missing +Inf bucket", key)
		}
		if h.hasCnt && h.count != h.counts[len(h.counts)-1] {
			return fmt.Errorf("expfmt: histogram %s: _count %g != +Inf bucket %g", key, h.count, h.counts[len(h.counts)-1])
		}
	}
	return nil
}

// Validate parses data and additionally requires every named family to be
// present with at least one sample. A name may carry a label selector —
// `family{stage="front_wait"}` — to require one series of the family rather
// than any. Used by cmd/metricscheck and CI.
func Validate(data []byte, requiredFamilies ...string) error {
	exp, err := ParseExposition(data)
	if err != nil {
		return err
	}
	for _, name := range requiredFamilies {
		fam, sel, _ := strings.Cut(name, "{")
		var want map[string]string
		if sel != "" {
			if want, _, err = parseLabels(sel); err != nil {
				return fmt.Errorf("expfmt: required family %s: %v", name, err)
			}
		}
		matches := func(s Sample) bool {
			for k, v := range want {
				if s.Labels[k] != v {
					return false
				}
			}
			return familyOf(s.Name, exp.Types) == fam
		}
		if !slices.ContainsFunc(exp.Samples, matches) {
			return fmt.Errorf("expfmt: required family %s absent from exposition", name)
		}
	}
	return nil
}

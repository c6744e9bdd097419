package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Sample is one parsed exposition sample.
type Sample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// Exposition is a parsed Prometheus text exposition.
type Exposition struct {
	Samples []Sample
	// Types maps family name to its # TYPE (counter, gauge, histogram).
	Types map[string]string
	// Help maps family name to its # HELP text.
	Help map[string]string
}

// Value returns the sample value for name with exactly the given
// labels (nil means no labels).
func (e *Exposition) Value(name string, labels map[string]string) (float64, bool) {
	for _, s := range e.Samples {
		if s.Name != name || len(s.Labels) != len(labels) {
			continue
		}
		match := true
		for k, v := range labels {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return s.Value, true
		}
	}
	return 0, false
}

// ParseExposition parses the Prometheus text format. It is strict
// enough for round-trip tests but tolerates arbitrary sample ordering.
func ParseExposition(r io.Reader) (*Exposition, error) {
	e := &Exposition{Types: map[string]string{}, Help: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.SplitN(line[len("# HELP "):], " ", 2)
			if len(rest) == 2 {
				e.Help[rest[0]] = rest[1]
			} else if len(rest) == 1 {
				e.Help[rest[0]] = ""
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.Fields(line[len("# TYPE "):])
			if len(rest) != 2 {
				return nil, fmt.Errorf("line %d: malformed TYPE line %q", lineNo, line)
			}
			e.Types[rest[0]] = rest[1]
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // comment
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		e.Samples = append(e.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return e, nil
}

// parseSample parses `name{k="v",...} value`.
func parseSample(line string) (Sample, error) {
	s := Sample{}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return s, fmt.Errorf("no value in %q", line)
	} else {
		s.Name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		end := -1
		inQuote := false
		for i := 1; i < len(rest); i++ {
			switch {
			case inQuote && rest[i] == '\\':
				i++ // skip escaped char
			case rest[i] == '"':
				inQuote = !inQuote
			case !inQuote && rest[i] == '}':
				end = i
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return s, fmt.Errorf("unterminated label set in %q", line)
		}
		labels, err := parseLabels(rest[1:end])
		if err != nil {
			return s, fmt.Errorf("%v in %q", err, line)
		}
		s.Labels = labels
		rest = rest[end+1:]
	}
	rest = strings.TrimSpace(rest)
	// Drop an optional timestamp.
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		rest = rest[:i]
	}
	v, err := parseValue(rest)
	if err != nil {
		return s, fmt.Errorf("bad value %q in %q", rest, line)
	}
	s.Value = v
	return s, nil
}

func parseValue(s string) (float64, error) {
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

func parseLabels(s string) (map[string]string, error) {
	labels := map[string]string{}
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return nil, fmt.Errorf("malformed label %q", s)
		}
		key := s[:eq]
		rest := s[eq+2:]
		var val strings.Builder
		i := 0
		for ; i < len(rest); i++ {
			if rest[i] == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				case '\\', '"':
					val.WriteByte(rest[i])
				default:
					val.WriteByte('\\')
					val.WriteByte(rest[i])
				}
				continue
			}
			if rest[i] == '"' {
				break
			}
			val.WriteByte(rest[i])
		}
		if i >= len(rest) {
			return nil, fmt.Errorf("unterminated label value for %q", key)
		}
		labels[key] = val.String()
		s = rest[i+1:]
		s = strings.TrimPrefix(s, ",")
	}
	return labels, nil
}

// isValidName reports whether s is a legal metric name.
func isValidName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// isValidLabelName reports whether s is a legal label name.
func isValidLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// baseName strips a histogram sample suffix so the sample can be
// matched to its family.
func baseName(name string, types map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && types[base] == typeHistogram {
			return base
		}
	}
	return name
}

// Lint validates a text exposition: metric and label names, TYPE/HELP
// coverage, duplicate series, counter non-negativity, and histogram
// shape (le labels, bucket monotonicity, +Inf bucket matching _count).
// It returns a list of problems; an empty list means a clean scrape.
func Lint(r io.Reader) []string {
	var problems []string
	bad := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	e, err := ParseExposition(r)
	if err != nil {
		return []string{fmt.Sprintf("unparsable exposition: %v", err)}
	}
	for name, typ := range e.Types {
		switch typ {
		case typeCounter, typeGauge, typeHistogram, "summary", "untyped":
		default:
			bad("metric %s: unknown type %q", name, typ)
		}
		if !isValidName(name) {
			bad("metric %s: invalid name", name)
		}
		if _, ok := e.Help[name]; !ok {
			bad("metric %s: no HELP line", name)
		}
	}
	seen := map[string]bool{}
	hists := map[string]map[string][]bucket{} // family -> series key -> buckets
	counts := map[string]map[string]float64{} // family_count values per series
	for _, s := range e.Samples {
		fam := baseName(s.Name, e.Types)
		typ, typed := e.Types[fam]
		if !typed {
			bad("sample %s: no TYPE line for family", s.Name)
		}
		for k := range s.Labels {
			if !isValidLabelName(k) && k != "le" {
				bad("sample %s: invalid label name %q", s.Name, k)
			}
		}
		key := s.Name + labelKey(s.Labels)
		if seen[key] {
			bad("duplicate series %s", key)
		}
		seen[key] = true
		if typ == typeCounter && s.Value < 0 {
			bad("counter %s: negative value %v", s.Name, s.Value)
		}
		if typ == typeHistogram {
			skey := labelKey(without(s.Labels, "le"))
			switch {
			case strings.HasSuffix(s.Name, "_bucket"):
				le, ok := s.Labels["le"]
				if !ok {
					bad("histogram bucket %s: missing le label", s.Name)
					continue
				}
				ub, err := parseValue(le)
				if err != nil {
					bad("histogram bucket %s: bad le %q", s.Name, le)
					continue
				}
				if hists[fam] == nil {
					hists[fam] = map[string][]bucket{}
				}
				hists[fam][skey] = append(hists[fam][skey], bucket{ub, s.Value})
			case strings.HasSuffix(s.Name, "_count"):
				if counts[fam] == nil {
					counts[fam] = map[string]float64{}
				}
				counts[fam][skey] = s.Value
			}
		}
	}
	for fam, perSeries := range hists {
		for skey, buckets := range perSeries {
			sort.Slice(buckets, func(i, j int) bool { return buckets[i].le < buckets[j].le })
			last := buckets[len(buckets)-1]
			if !math.IsInf(last.le, 1) {
				bad("histogram %s%s: no +Inf bucket", fam, skey)
			}
			for i := 1; i < len(buckets); i++ {
				if buckets[i].cum < buckets[i-1].cum {
					bad("histogram %s%s: bucket counts not monotone at le=%v", fam, skey, buckets[i].le)
				}
			}
			if c, ok := counts[fam][skey]; ok && c != last.cum {
				bad("histogram %s%s: _count %v != +Inf bucket %v", fam, skey, c, last.cum)
			}
		}
	}
	return problems
}

type bucket struct{ le, cum float64 }

// labelKey renders labels deterministically for series identity.
func labelKey(labels map[string]string) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, labels[k])
	}
	b.WriteByte('}')
	return b.String()
}

func without(labels map[string]string, drop string) map[string]string {
	if _, ok := labels[drop]; !ok {
		return labels
	}
	out := make(map[string]string, len(labels)-1)
	for k, v := range labels {
		if k != drop {
			out[k] = v
		}
	}
	return out
}

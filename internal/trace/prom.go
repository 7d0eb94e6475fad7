package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Hand-rolled Prometheus text exposition (format version 0.0.4) — the
// /metrics route's writer and, for CI lint, a validating parser that
// round-trips the output without needing promtool in the container.

// PromContentType is the Content-Type a 0.0.4 text exposition declares.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one name="value" pair.
type Label struct {
	Name  string
	Value string
}

// PromWriter accumulates a text exposition. Metrics must be written
// family by family: Header then every sample of that family.
type PromWriter struct {
	b strings.Builder
}

// Header writes the # HELP and # TYPE lines for a metric family. typ
// must be one of counter, gauge, histogram, summary, untyped.
func (w *PromWriter) Header(name, help, typ string) {
	w.b.WriteString("# HELP ")
	w.b.WriteString(name)
	w.b.WriteByte(' ')
	w.b.WriteString(escapeHelp(help))
	w.b.WriteByte('\n')
	w.b.WriteString("# TYPE ")
	w.b.WriteString(name)
	w.b.WriteByte(' ')
	w.b.WriteString(typ)
	w.b.WriteByte('\n')
}

// Sample writes one sample line: name{labels} value.
func (w *PromWriter) Sample(name string, labels []Label, value float64) {
	w.b.WriteString(name)
	if len(labels) > 0 {
		w.b.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				w.b.WriteByte(',')
			}
			w.b.WriteString(l.Name)
			w.b.WriteString(`="`)
			w.b.WriteString(escapeLabel(l.Value))
			w.b.WriteByte('"')
		}
		w.b.WriteByte('}')
	}
	w.b.WriteByte(' ')
	w.b.WriteString(formatValue(value))
	w.b.WriteByte('\n')
}

// String returns the exposition accumulated so far.
func (w *PromWriter) String() string { return w.b.String() }

// WriteTo writes the exposition to w.
func (w *PromWriter) WriteTo(dst io.Writer) (int64, error) {
	n, err := io.WriteString(dst, w.b.String())
	return int64(n), err
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// unescapeHelp reverses escapeHelp: \\ and \n are the only escapes a
// HELP line may carry.
func unescapeHelp(s string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			b.WriteByte(s[i])
			continue
		}
		i++
		switch {
		case i == len(s):
			return "", fmt.Errorf("dangling escape in HELP %q", s)
		case s[i] == '\\':
			b.WriteByte('\\')
		case s[i] == 'n':
			b.WriteByte('\n')
		default:
			return "", fmt.Errorf("bad escape \\%c in HELP %q", s[i], s)
		}
	}
	return b.String(), nil
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a float the exposition format accepts: shortest
// round-trippable representation, with +Inf/-Inf/NaN spelled the
// Prometheus way.
func formatValue(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// PromSample is one parsed sample line.
type PromSample struct {
	Name   string
	Labels []Label
	Value  float64
}

// PromFamily is one parsed metric family: HELP/TYPE header plus samples.
type PromFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []PromSample
}

// validPromType reports whether typ is a legal TYPE value in the text
// exposition format.
func validPromType(typ string) bool {
	switch typ {
	case "counter", "gauge", "histogram", "summary", "untyped":
		return true
	}
	return false
}

// ParseExposition parses and validates a text exposition: metric and
// label name charsets, TYPE values, HELP and label-value escaping (both
// returned unescaped), float syntax,
// samples preceded by their family header, histogram families carrying
// _bucket/_sum/_count with a cumulative le sequence ending at +Inf.
// It is deliberately strict — it lints our own writer, not arbitrary
// input.
func ParseExposition(r io.Reader) ([]PromFamily, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var fams []PromFamily
	var cur *PromFamily
	pendingHelp := ""
	pendingHelpName := ""
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || !validMetricName(name) {
				return nil, fmt.Errorf("line %d: malformed HELP: %q", lineNo, line)
			}
			help, err := unescapeHelp(help)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			pendingHelpName, pendingHelp = name, help
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || !validMetricName(name) || !validPromType(typ) {
				return nil, fmt.Errorf("line %d: malformed TYPE: %q", lineNo, line)
			}
			if pendingHelpName != "" && pendingHelpName != name {
				return nil, fmt.Errorf("line %d: TYPE for %q follows HELP for %q", lineNo, name, pendingHelpName)
			}
			fams = append(fams, PromFamily{Name: name, Help: pendingHelp, Type: typ})
			cur = &fams[len(fams)-1]
			pendingHelp, pendingHelpName = "", ""
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // free-form comment
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if cur == nil || !sampleBelongs(cur, s.Name) {
			return nil, fmt.Errorf("line %d: sample %q not preceded by its family header", lineNo, s.Name)
		}
		cur.Samples = append(cur.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for i := range fams {
		if fams[i].Type == "histogram" {
			if err := validateHistogram(&fams[i]); err != nil {
				return nil, err
			}
		}
	}
	return fams, nil
}

// sampleBelongs reports whether a sample name belongs to family f —
// exact match, or the histogram/summary suffixed series.
func sampleBelongs(f *PromFamily, name string) bool {
	if name == f.Name {
		return true
	}
	if f.Type == "histogram" || f.Type == "summary" {
		return name == f.Name+"_bucket" || name == f.Name+"_sum" || name == f.Name+"_count"
	}
	return false
}

func parseSample(line string) (PromSample, error) {
	var s PromSample
	i := 0
	for i < len(line) && isNameChar(line[i], i == 0) {
		i++
	}
	if i == 0 {
		return s, fmt.Errorf("malformed sample: %q", line)
	}
	s.Name = line[:i]
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		end := -1
		inQuote := false
		for j := 1; j < len(rest); j++ {
			switch {
			case inQuote && rest[j] == '\\':
				j++ // skip escaped char
			case rest[j] == '"':
				inQuote = !inQuote
			case !inQuote && rest[j] == '}':
				end = j
			}
			if end >= 0 {
				break
			}
		}
		if end < 0 {
			return s, fmt.Errorf("unterminated label set: %q", line)
		}
		labels, err := parseLabels(rest[1:end])
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = rest[end+1:]
	}
	rest = strings.TrimPrefix(rest, " ")
	// An optional timestamp may follow the value; our writer never emits
	// one, so reject extra fields outright.
	val := rest
	switch val {
	case "+Inf":
		s.Value = math.Inf(1)
		return s, nil
	case "-Inf":
		s.Value = math.Inf(-1)
		return s, nil
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return s, fmt.Errorf("bad value %q: %v", val, err)
	}
	s.Value = v
	return s, nil
}

func parseLabels(s string) ([]Label, error) {
	var out []Label
	i := 0
	for i < len(s) {
		start := i
		for i < len(s) && isLabelNameChar(s[i], i == start) {
			i++
		}
		if i == start {
			return nil, fmt.Errorf("bad label name in %q", s)
		}
		name := s[start:i]
		if !strings.HasPrefix(s[i:], `="`) {
			return nil, fmt.Errorf("label %q missing =\"", name)
		}
		i += 2
		var val strings.Builder
		closed := false
		for i < len(s) {
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, fmt.Errorf("dangling escape in label %q", name)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, fmt.Errorf("bad escape \\%c in label %q", s[i+1], name)
				}
				i += 2
				continue
			}
			if c == '"' {
				closed = true
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		if !closed {
			return nil, fmt.Errorf("unterminated value for label %q", name)
		}
		out = append(out, Label{Name: name, Value: val.String()})
		if i < len(s) {
			if s[i] != ',' {
				return nil, fmt.Errorf("expected ',' after label %q", name)
			}
			i++
		}
	}
	return out, nil
}

// validateHistogram checks the conventional series of a histogram
// family: cumulative non-decreasing buckets per label set, a final
// le="+Inf" bucket agreeing with _count.
func validateHistogram(f *PromFamily) error {
	type key string
	buckets := make(map[key][]PromSample)
	counts := make(map[key]float64)
	for _, s := range f.Samples {
		k := key(labelKeyExcept(s.Labels, "le"))
		switch s.Name {
		case f.Name + "_bucket":
			buckets[k] = append(buckets[k], s)
		case f.Name + "_count":
			counts[k] = s.Value
		}
	}
	for k, bs := range buckets {
		prevLe := math.Inf(-1)
		prev := -1.0
		sawInf := false
		for _, b := range bs {
			leStr := labelValue(b.Labels, "le")
			if leStr == "" {
				return fmt.Errorf("%s: bucket missing le label", f.Name)
			}
			var le float64
			if leStr == "+Inf" {
				le = math.Inf(1)
				sawInf = true
			} else {
				v, err := strconv.ParseFloat(leStr, 64)
				if err != nil {
					return fmt.Errorf("%s: bad le %q", f.Name, leStr)
				}
				le = v
			}
			if le < prevLe {
				return fmt.Errorf("%s: le values not ascending", f.Name)
			}
			if b.Value < prev {
				return fmt.Errorf("%s: bucket counts not cumulative", f.Name)
			}
			prevLe, prev = le, b.Value
		}
		if !sawInf {
			return fmt.Errorf("%s: histogram missing le=\"+Inf\" bucket", f.Name)
		}
		if c, ok := counts[k]; ok && c != prev {
			return fmt.Errorf("%s: _count %v != +Inf bucket %v", f.Name, c, prev)
		}
	}
	return nil
}

func labelValue(labels []Label, name string) string {
	for _, l := range labels {
		if l.Name == name {
			return l.Value
		}
	}
	return ""
}

// labelKeyExcept renders a label set minus one label as a canonical
// string key.
func labelKeyExcept(labels []Label, except string) string {
	parts := make([]string, 0, len(labels))
	for _, l := range labels {
		if l.Name != except {
			parts = append(parts, l.Name+"="+l.Value)
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isNameChar(s[i], i == 0) {
			return false
		}
	}
	return true
}

func isNameChar(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' {
		return true
	}
	return !first && c >= '0' && c <= '9'
}

func isLabelNameChar(c byte, first bool) bool {
	if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' {
		return true
	}
	return !first && c >= '0' && c <= '9'
}

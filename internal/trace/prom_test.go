package trace

import (
	"math"
	"strings"
	"testing"
	"time"
)

func buildExposition() string {
	var w PromWriter
	w.Header("rstorm_tuples_total", "Tuples processed per task.", "counter")
	w.Sample("rstorm_tuples_total", []Label{{"topology", "chain"}, {"task", "0"}}, 12345)
	w.Sample("rstorm_tuples_total", []Label{{"topology", "chain"}, {"task", "1"}}, 678)
	w.Header("rstorm_queue_depth", "Instantaneous queue depth.", "gauge")
	w.Sample("rstorm_queue_depth", nil, 42)
	w.Header("rstorm_latency_seconds", "Complete-tree tuple latency.", "histogram")
	labels := []Label{{"topology", "chain"}}
	cum := int64(0)
	h := NewHistogram()
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	h.EachBucket(func(upper time.Duration, count int64) {
		cum += count
		w.Sample("rstorm_latency_seconds_bucket",
			append(labels[:1:1], Label{"le", formatValue(upper.Seconds())}), float64(cum))
	})
	w.Sample("rstorm_latency_seconds_bucket", append(labels[:1:1], Label{"le", "+Inf"}), float64(cum))
	w.Sample("rstorm_latency_seconds_sum", labels, 500.5)
	w.Sample("rstorm_latency_seconds_count", labels, float64(cum))
	return w.String()
}

// TestExpositionRoundTrip is the promtool-free lint: everything the
// writer emits must parse under the strict parser with families,
// samples, and histogram invariants intact.
func TestExpositionRoundTrip(t *testing.T) {
	text := buildExposition()
	fams, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("exposition does not lint: %v\n%s", err, text)
	}
	if len(fams) != 3 {
		t.Fatalf("families = %d", len(fams))
	}
	if fams[0].Name != "rstorm_tuples_total" || fams[0].Type != "counter" || len(fams[0].Samples) != 2 {
		t.Fatalf("counter family: %+v", fams[0])
	}
	if fams[0].Samples[0].Value != 12345 {
		t.Fatalf("value: %v", fams[0].Samples[0].Value)
	}
	if got := labelValue(fams[0].Samples[1].Labels, "task"); got != "1" {
		t.Fatalf("label: %q", got)
	}
	if fams[1].Type != "gauge" || fams[1].Samples[0].Value != 42 {
		t.Fatalf("gauge family: %+v", fams[1])
	}
	if fams[2].Type != "histogram" {
		t.Fatalf("histogram family: %+v", fams[2])
	}
}

func TestEscapingRoundTrip(t *testing.T) {
	var w PromWriter
	w.Header("m", `help with \ backslash and
newline`, "gauge")
	w.Sample("m", []Label{{"l", "quote\" back\\ nl\n end"}}, 1)
	fams, err := ParseExposition(strings.NewReader(w.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got := labelValue(fams[0].Samples[0].Labels, "l"); got != "quote\" back\\ nl\n end" {
		t.Fatalf("label escape round-trip: %q", got)
	}
	if got := fams[0].Help; got != "help with \\ backslash and\nnewline" {
		t.Fatalf("HELP escape round-trip: %q", got)
	}
}

func TestFormatValueSpecials(t *testing.T) {
	if formatValue(math.NaN()) != "NaN" ||
		formatValue(math.Inf(1)) != "+Inf" ||
		formatValue(math.Inf(-1)) != "-Inf" {
		t.Fatal("special float spellings")
	}
	if formatValue(0.5) != "0.5" || formatValue(3) != "3" {
		t.Fatal("plain float spellings")
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"bad TYPE value":      "# HELP m h\n# TYPE m widget\nm 1\n",
		"sample before TYPE":  "m 1\n",
		"foreign sample":      "# HELP m h\n# TYPE m gauge\nother 1\n",
		"bad metric name":     "# HELP 9m h\n# TYPE 9m gauge\n9m 1\n",
		"bad value":           "# HELP m h\n# TYPE m gauge\nm pancake\n",
		"unterminated labels": "# HELP m h\n# TYPE m gauge\nm{l=\"x\" 1\n",
		"bad escape":          "# HELP m h\n# TYPE m gauge\nm{l=\"\\x\"} 1\n",
		"help/type mismatch":  "# HELP m h\n# TYPE other gauge\nother 1\n",
		"label missing quote": "# HELP m h\n# TYPE m gauge\nm{l=x} 1\n",
		"bad help escape":     "# HELP m a\\tb\n# TYPE m gauge\nm 1\n",
		"help ends in escape": "# HELP m a\\\n# TYPE m gauge\nm 1\n",
	}
	for name, text := range cases {
		if _, err := ParseExposition(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parsed without error:\n%s", name, text)
		}
	}
}

func TestParseRejectsBadHistogram(t *testing.T) {
	cases := map[string]string{
		"missing +Inf": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_count 5\nh_sum 2\n",
		"non-cumulative": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\n",
		"le not ascending": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\n",
		"count mismatch": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 5\nh_count 7\n",
		"bucket missing le": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{x=\"1\"} 5\n",
	}
	for name, text := range cases {
		if _, err := ParseExposition(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parsed without error", name)
		}
	}
}

func TestParseAcceptsCommentsAndBlanks(t *testing.T) {
	text := "# a free comment\n\n# HELP m h\n# TYPE m gauge\n\nm{a=\"1\",b=\"2\"} 3.5\n# trailing\n"
	fams, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 1 || len(fams[0].Samples) != 1 {
		t.Fatalf("parsed: %+v", fams)
	}
	s := fams[0].Samples[0]
	if len(s.Labels) != 2 || s.Labels[1].Value != "2" || s.Value != 3.5 {
		t.Fatalf("sample: %+v", s)
	}
}

func TestParseInfValues(t *testing.T) {
	text := "# HELP m h\n# TYPE m gauge\nm{s=\"p\"} +Inf\nm{s=\"n\"} -Inf\nm{s=\"nan\"} NaN\n"
	fams, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	ss := fams[0].Samples
	if !math.IsInf(ss[0].Value, 1) || !math.IsInf(ss[1].Value, -1) || !math.IsNaN(ss[2].Value) {
		t.Fatalf("special values: %+v", ss)
	}
}

func TestWriteTo(t *testing.T) {
	var w PromWriter
	w.Header("m", "h", "gauge")
	w.Sample("m", nil, 1)
	var sb strings.Builder
	n, err := w.WriteTo(&sb)
	if err != nil || n != int64(len(w.String())) || sb.String() != w.String() {
		t.Fatalf("WriteTo: n=%d err=%v", n, err)
	}
}

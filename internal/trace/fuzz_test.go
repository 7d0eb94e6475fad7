package trace

import (
	"slices"
	"strings"
	"testing"
)

// FuzzParseExposition checks that the strict exposition parser never
// panics and that every accepted input survives a trip through the
// writer: rendering the parsed families with PromWriter and parsing
// again yields the same family names, types and sample counts. The seed
// corpus lives in testdata/fuzz/FuzzParseExposition.
func FuzzParseExposition(f *testing.F) {
	f.Fuzz(func(t *testing.T, text string) {
		fams, err := ParseExposition(strings.NewReader(text))
		if err != nil {
			return
		}
		var w PromWriter
		for _, fam := range fams {
			w.Header(fam.Name, fam.Help, fam.Type)
			for _, s := range fam.Samples {
				w.Sample(s.Name, s.Labels, s.Value)
			}
		}
		again, err := ParseExposition(strings.NewReader(w.String()))
		if err != nil {
			t.Fatalf("accepted %q, but its rendering %q does not parse: %v", text, w.String(), err)
		}
		if len(again) != len(fams) {
			t.Fatalf("%d families re-parse as %d:\n%s", len(fams), len(again), w.String())
		}
		for i, fam := range fams {
			got := again[i]
			if got.Name != fam.Name || got.Type != fam.Type || len(got.Samples) != len(fam.Samples) {
				t.Fatalf("family %d: %s %s with %d samples re-parses as %s %s with %d",
					i, fam.Name, fam.Type, len(fam.Samples), got.Name, got.Type, len(got.Samples))
			}
			for j, s := range fam.Samples {
				if g := got.Samples[j]; g.Name != s.Name || !slices.Equal(g.Labels, s.Labels) {
					t.Fatalf("family %s sample %d: %s%v re-parses as %s%v", fam.Name, j, s.Name, s.Labels, g.Name, g.Labels)
				}
			}
		}
	})
}

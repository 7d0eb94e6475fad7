package orchestra

import "testing"

// FuzzParseSpec: ParseSpec never panics, and an accepted spec expands to
// exactly the product of its term sizes, an omitted term counting once.
// The seed corpus is testdata/fuzz/FuzzParseSpec.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := ParseSpec(in)
		if err != nil {
			return
		}
		want := len(spec.IDs) * max(1, len(spec.Seeds)) * max(1, len(spec.Durations)) * max(1, len(spec.Windows))
		if got := len(spec.Cells()); got != want {
			t.Fatalf("ParseSpec(%q) = %+v expands to %d cells, want %d", in, spec, got, want)
		}
	})
}

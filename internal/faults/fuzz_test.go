package faults

import (
	"reflect"
	"testing"
)

// FuzzParseSchedule checks that the schedule grammar never panics and that
// every accepted schedule round-trips: String() renders parseable syntax
// that parses back to the same events. The seed corpus lives in
// testdata/fuzz/FuzzParseSchedule.
func FuzzParseSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		sched, err := ParseSchedule(spec)
		if err != nil {
			return
		}
		rendered := sched.String()
		again, err := ParseSchedule(rendered)
		if err != nil {
			t.Fatalf("ParseSchedule(%q) rendered %q, which does not parse: %v", spec, rendered, err)
		}
		if len(sched) == 0 && len(again) == 0 {
			return
		}
		if !reflect.DeepEqual(again, sched) {
			t.Fatalf("ParseSchedule(%q) = %+v, rendered %q re-parses as %+v", spec, sched, rendered, again)
		}
		if got := again.String(); got != rendered {
			t.Fatalf("String() not stable: %q then %q", rendered, got)
		}
	})
}

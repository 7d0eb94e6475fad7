package nimbus

import (
	"reflect"
	"testing"
	"unicode/utf8"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
)

// FuzzAssignmentRoundTrip checks the assignment codec both ways. Any input
// DecodeAssignment accepts must survive encode → decode unchanged, and
// encode → decode must be the identity on a valid assignment built from
// the fuzzed fields. The seed corpus is testdata/fuzz/FuzzAssignmentRoundTrip.
func FuzzAssignmentRoundTrip(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, topo, node string, id, slot int) {
		if a, err := DecodeAssignment(data); err == nil {
			roundTrip(t, a)
		}
		// JSON carries strings as UTF-8, so only valid UTF-8 names are
		// representable exactly.
		if id < 0 || slot < 0 || !utf8.ValidString(topo) || !utf8.ValidString(node) {
			return
		}
		a := core.NewAssignment(topo, "r-storm")
		a.Place(id, core.Placement{Node: cluster.NodeID(node), Slot: slot})
		a.Place(id/2, core.Placement{Node: "n0", Slot: slot / 2})
		roundTrip(t, a)
	})
}

// roundTrip fails t unless a encodes and decodes back to itself.
func roundTrip(t *testing.T, a *core.Assignment) {
	t.Helper()
	data, err := EncodeAssignment(a)
	if err != nil {
		t.Fatalf("EncodeAssignment(%+v): %v", a, err)
	}
	got, err := DecodeAssignment(data)
	if err != nil {
		t.Fatalf("DecodeAssignment(%s) of an encoded assignment: %v", data, err)
	}
	if !reflect.DeepEqual(got, a) {
		t.Fatalf("round trip changed the assignment: %+v, then %+v (via %s)", a, got, data)
	}
}

// TestDecodeAssignmentRejectsNonCanonicalIDs: every spelling of a task ID
// other than the canonical decimal would make the decoded placement depend
// on map order, so each is an error, as are negative IDs and slots.
func TestDecodeAssignmentRejectsNonCanonicalIDs(t *testing.T) {
	for _, in := range []string{
		`{"placements":{"1":{"node":"a","slot":0},"01":{"node":"b","slot":0}}}`,
		`{"placements":{"+1":{"node":"a","slot":0}}}`,
		`{"placements":{"-0":{"node":"a","slot":0}}}`,
		`{"placements":{" 1":{"node":"a","slot":0}}}`,
		`{"placements":{"-1":{"node":"a","slot":0}}}`,
		`{"placements":{"1":{"node":"a","slot":-1}}}`,
	} {
		if a, err := DecodeAssignment([]byte(in)); err == nil {
			t.Errorf("DecodeAssignment(%s) = %+v, want an error", in, a.Placements)
		}
	}
	first := ""
	for i := 0; i < 20; i++ {
		_, err := DecodeAssignment([]byte(`{"placements":{"01":{},"+1":{},"x":{}}}`))
		if err == nil {
			t.Fatal("non-canonical keys accepted")
		}
		if i == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Fatalf("error changed between decodes of one input: %q, then %q", first, err)
		}
	}
}

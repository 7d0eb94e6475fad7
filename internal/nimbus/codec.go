package nimbus

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strconv"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
)

// wireAssignment is the JSON shape stored under /assignments/<topology>.
type wireAssignment struct {
	Topology   string                   `json:"topology"`
	Scheduler  string                   `json:"scheduler"`
	Placements map[string]wirePlacement `json:"placements"`
}

type wirePlacement struct {
	Node string `json:"node"`
	Slot int    `json:"slot"`
}

// EncodeAssignment serializes an assignment for the state store.
func EncodeAssignment(a *core.Assignment) ([]byte, error) {
	w := wireAssignment{
		Topology:   a.Topology,
		Scheduler:  a.Scheduler,
		Placements: make(map[string]wirePlacement, len(a.Placements)),
	}
	for id, p := range a.Placements {
		w.Placements[strconv.Itoa(id)] = wirePlacement{Node: string(p.Node), Slot: p.Slot}
	}
	return json.Marshal(w)
}

// DecodeAssignment parses what EncodeAssignment produced. A task ID key
// must be the canonical decimal EncodeAssignment writes: "01" and "+1"
// would otherwise decode to the same task as "1", with the winner picked
// by map order. Negative task IDs and slots are rejected. Keys are checked
// in sorted order, so a malformed input always reports the same error.
func DecodeAssignment(data []byte) (*core.Assignment, error) {
	var w wireAssignment
	if err := json.Unmarshal(data, &w); err != nil {
		return nil, fmt.Errorf("decode assignment: %w", err)
	}
	a := core.NewAssignment(w.Topology, w.Scheduler)
	for _, idStr := range slices.Sorted(maps.Keys(w.Placements)) {
		id, err := strconv.Atoi(idStr)
		if err != nil || id < 0 || strconv.Itoa(id) != idStr {
			return nil, fmt.Errorf("decode assignment: bad task id %q", idStr)
		}
		p := w.Placements[idStr]
		if p.Slot < 0 {
			return nil, fmt.Errorf("decode assignment: task %d has negative slot %d", id, p.Slot)
		}
		a.Place(id, core.Placement{Node: cluster.NodeID(p.Node), Slot: p.Slot})
	}
	return a, nil
}

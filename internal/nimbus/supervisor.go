package nimbus

import (
	"encoding/json"
	"fmt"

	"rstorm/internal/cluster"
	"rstorm/internal/statestore"
)

// HeartbeatPayload is what a supervisor publishes to the state store —
// R-Storm modifies Storm so machines "send their resource availability to
// Nimbus" (§5).
type HeartbeatPayload struct {
	Node     string  `json:"node"`
	CPU      float64 `json:"cpu"`
	MemoryMB float64 `json:"memoryMb"`
	Slots    int     `json:"slots"`
	Seq      int64   `json:"seq"`
}

// Supervisor is a worker node's daemon: it registers an ephemeral presence
// node bound to its session and heartbeats through it. Expiring the
// session models a machine failure.
type Supervisor struct {
	id      cluster.NodeID
	nimbus  *Nimbus
	session statestore.SessionID
	seq     int64
	failed  bool
}

// StartSupervisor registers a supervisor for a cluster node. Registration
// and the presence node appear together under the Nimbus lock, so a
// concurrent HeartbeatTick never sees one without the other.
func (n *Nimbus) StartSupervisor(id cluster.NodeID) (*Supervisor, error) {
	node := n.cluster.Node(id)
	if node == nil {
		return nil, fmt.Errorf("unknown node %q", id)
	}
	payload, err := json.Marshal(HeartbeatPayload{
		Node:     string(id),
		CPU:      node.Spec.Capacity.CPU,
		MemoryMB: node.Spec.Capacity.MemoryMB,
		Slots:    node.Spec.Slots,
	})
	if err != nil {
		return nil, fmt.Errorf("encode heartbeat: %w", err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if err := n.registerSupervisorLocked(id); err != nil {
		return nil, err
	}
	session := n.store.NewSession()
	if err := n.store.Create(supervisorsPath+"/"+string(id), payload, session); err != nil {
		return nil, fmt.Errorf("register presence: %w", err)
	}
	return &Supervisor{id: id, nimbus: n, session: session}, nil
}

// ID returns the supervisor's node ID.
func (sv *Supervisor) ID() cluster.NodeID { return sv.id }

// Heartbeat publishes a fresh sequence number.
func (sv *Supervisor) Heartbeat() error {
	if sv.failed {
		return fmt.Errorf("supervisor %s has failed", sv.id)
	}
	sv.seq++
	node := sv.nimbus.cluster.Node(sv.id)
	payload, err := json.Marshal(HeartbeatPayload{
		Node:     string(sv.id),
		CPU:      node.Spec.Capacity.CPU,
		MemoryMB: node.Spec.Capacity.MemoryMB,
		Slots:    node.Spec.Slots,
		Seq:      sv.seq,
	})
	if err != nil {
		return fmt.Errorf("encode heartbeat: %w", err)
	}
	return sv.nimbus.store.Set(supervisorsPath+"/"+string(sv.id), payload)
}

// Fail simulates the machine dying: the session expires and the ephemeral
// presence node disappears. Nimbus's failure detector declares the node
// dead at its next HeartbeatTick.
func (sv *Supervisor) Fail() error {
	if sv.failed {
		return fmt.Errorf("supervisor %s already failed", sv.id)
	}
	sv.failed = true
	return sv.nimbus.store.ExpireSession(sv.session)
}

package nimbus

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"rstorm/internal/cluster"
	"rstorm/internal/core"
	"rstorm/internal/topology"
	"rstorm/internal/trace"
)

// Regenerate the pinned transcript after a deliberate behaviour change
// with:
//
//	go test ./internal/nimbus -run TestDetectorTranscript -update
//
//rstorm:global-ok test flag: set by flag parsing before any test runs, read-only afterwards
var updateTranscript = flag.Bool("update", false, "rewrite testdata/detector_transcript.txt")

// TestDetectorTranscript pins everything the heartbeat failure detector
// shows from outside — the /faults body after every step (each node's
// state, counters and lastSeq), the failover history, the decision
// journal and the master's event log — across one scripted life of a
// cluster: registration, steady beats, a wedged supervisor walking
// suspect → dead, a session expiry, a rejoin held through flap damping,
// a stall mid-recovery, and a failover that requeues.
func TestDetectorTranscript(t *testing.T) {
	c := testCluster(t)
	n, err := New(c, core.NewResourceAwareScheduler())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	journal := trace.NewJournal(1024)
	n.SetJournal(journal)
	n.EnableFailureDetector(DetectorConfig{SuspectAfter: 2, DeadAfter: 3, FlapDamping: 3})
	srv := httptest.NewServer(NewStatisticServer(n))
	defer srv.Close()

	var out bytes.Buffer
	snapshot := func(step string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/faults")
		if err != nil {
			t.Fatalf("GET /faults: %v", err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("read /faults: %v", err)
		}
		fmt.Fprintf(&out, "== %s\n%s", step, body)
	}
	ids := c.NodeIDs()
	sups := make(map[cluster.NodeID]*Supervisor, len(ids))
	// beat heartbeats every live supervisor except the wedged ones, in
	// declaration order.
	beat := func(wedged ...cluster.NodeID) {
		t.Helper()
		for _, id := range ids {
			sv := sups[id]
			if sv == nil || sv.failed || slices.Contains(wedged, id) {
				continue
			}
			if err := sv.Heartbeat(); err != nil {
				t.Fatalf("Heartbeat(%s): %v", id, err)
			}
		}
	}
	ticks := 0
	tick := func(step string) {
		t.Helper()
		ticks++
		dead := n.HeartbeatTick()
		snapshot(fmt.Sprintf("tick %d (%s) dead=%v", ticks, step, dead))
	}
	start := func(id cluster.NodeID) {
		t.Helper()
		sv, err := n.StartSupervisor(id)
		if err != nil {
			t.Fatalf("StartSupervisor(%s): %v", id, err)
		}
		sups[id] = sv
	}
	submit := func(topo *topology.Topology) {
		t.Helper()
		if err := n.SubmitTopology(topo); err != nil {
			t.Fatalf("Submit(%s): %v", topo.Name(), err)
		}
		fmt.Fprintf(&out, "== schedule %s: %v\n", topo.Name(), n.RunSchedulingRound())
	}

	// Registration: every supervisor joins; nothing has been observed yet.
	for _, id := range ids {
		start(id)
	}
	snapshot("registered")
	submit(testTopo(t, "wordcount", 4))
	submit(testTopo(t, "stream", 6))
	tick("first sight")
	for i := 0; i < 2; i++ {
		beat()
		tick("all beat")
	}

	// A supervisor wedges with its session alive: suspect, then dead.
	wedged := victimNode(t, n, "wordcount")
	fmt.Fprintf(&out, "== wedge %s\n", wedged)
	for i := 0; i < 3; i++ {
		beat(wedged)
		tick("wedged")
	}

	// Another supervisor's session expires: dead at the next tick.
	var expired cluster.NodeID
	for _, id := range n.Assignment("stream").NodesUsed() {
		if id != wedged {
			expired = id
			break
		}
	}
	fmt.Fprintf(&out, "== expire %s\n", expired)
	if err := sups[expired].Fail(); err != nil {
		t.Fatalf("Fail: %v", err)
	}
	beat(wedged)
	tick("expired")

	// It rejoins and is held down until FlapDamping fresh beats; the
	// registration payload counts as the first.
	start(expired)
	snapshot("rejoined " + string(expired))
	submit(testTopo(t, "held", 2))
	tick("rejoin beat 1")
	for i := 2; i <= 3; i++ {
		beat(wedged)
		tick(fmt.Sprintf("rejoin beat %d", i))
	}

	// The wedged supervisor resumes, then stalls mid-recovery.
	for i := 1; i <= 2; i++ {
		beat()
		tick(fmt.Sprintf("wedged resumes %d", i))
	}
	beat(wedged)
	tick("stall mid-recovery")

	// Memory fills up; the next death has nowhere to restart its tasks,
	// so the topology is torn down and requeued.
	heavyB := topology.NewBuilder("heavy")
	heavyB.SetSpout("s", 8).SetCPULoad(10).SetMemoryLoad(1024)
	heavyB.SetBolt("b", 7).ShuffleGrouping("s").SetCPULoad(10).SetMemoryLoad(1024)
	heavy, err := heavyB.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	submit(heavy)
	victim := victimNode(t, n, "heavy")
	fmt.Fprintf(&out, "== expire %s\n", victim)
	if err := sups[victim].Fail(); err != nil {
		t.Fatalf("Fail: %v", err)
	}
	beat(wedged)
	ticks++
	fmt.Fprintf(&out, "== tick %d (Tick) %v\n", ticks, n.Tick())
	snapshot(fmt.Sprintf("after tick %d pending=%v", ticks, n.Pending()))

	failovers, err := json.MarshalIndent(n.Failovers(), "", "  ")
	if err != nil {
		t.Fatalf("marshal failovers: %v", err)
	}
	fmt.Fprintf(&out, "== Failovers()\n%s\n== journal\n", failovers)
	if err := journal.WriteJSONL(&out); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	out.WriteString("== Events()\n")
	for _, e := range n.Events() {
		fmt.Fprintln(&out, e)
	}

	path := filepath.Join("testdata", "detector_transcript.txt")
	if *updateTranscript {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("detector transcript differs from %s:\n%s", path, out.String())
	}
}

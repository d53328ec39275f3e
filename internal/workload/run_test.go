package workload

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"pciesim/internal/fault"
	"pciesim/internal/sim"
	"pciesim/internal/topo"
)

// buildSys assembles a fresh platform for a canned name or topology
// spec, configured the way the workload CLI path configures it.
func buildSys(t *testing.T, spec string) *topo.System {
	t.Helper()
	ts := topo.Canned(spec)
	if ts == nil {
		var err error
		ts, err = topo.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
	}
	cfg := topo.DefaultConfig()
	cfg.EnableMSI = true
	sys, err := topo.Build(ts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// execute runs a trace to completion and returns the result plus the
// drained stats dump.
func execute(t *testing.T, spec string, tr *Trace) (Result, []byte) {
	t.Helper()
	sys := buildSys(t, spec)
	res, err := Run(sys, tr, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sys.Eng.Run()
	var buf bytes.Buffer
	if err := sys.Eng.Stats().WriteJSON(&buf, uint64(sys.Eng.Now())); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestReplayStatsIdentity is the lockdown property end to end: encode
// a synthetic trace, parse it back (the round trip a capture file
// takes), execute both on fresh platforms, and demand byte-identical
// stats dumps — the replayed run is indistinguishable from the
// original.
func TestReplayStatsIdentity(t *testing.T) {
	tr, err := Synthesize([]FlowSpec{{
		Endpoint: "nic", Op: OpRx, Arrival: ArrivalBursty,
		Ops: 120, Len: 1500, MeanGap: 12 * sim.Microsecond,
		BurstLen: 16, BurstGap: sim.Microsecond, Seed: 5,
	}})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := ParseString(tr.EncodeString())
	if err != nil {
		t.Fatal(err)
	}
	_, orig := execute(t, "validation", tr)
	_, replay := execute(t, "validation", replayed)
	if !bytes.Equal(orig, replay) {
		t.Fatal("replayed trace produced a different stats dump than the original run")
	}
}

// TestContentionFairness pins the contention matrix's shape: four
// identical random-read flows behind one switch share the fabric
// within tight fairness bounds, and every flow finishes every op.
func TestContentionFairness(t *testing.T) {
	const n = 4
	flows := make([]FlowSpec, n)
	for i := range flows {
		flows[i] = FlowSpec{
			Endpoint: fmt.Sprintf("disk%d", i),
			Op:       OpRead, Arrival: ArrivalPoisson,
			Ops: 80, Len: 4096, MeanGap: 25 * sim.Microsecond,
			Seed: uint64(21 + i),
		}
	}
	tr, err := Synthesize(flows)
	if err != nil {
		t.Fatal(err)
	}
	res, _ := execute(t, fmt.Sprintf("switch:x4(disk*%d)", n), tr)
	if len(res.Flows) != n {
		t.Fatalf("got %d flows, want %d", len(res.Flows), n)
	}
	for _, f := range res.Flows {
		if f.Ops != 80 || f.Dropped != 0 {
			t.Errorf("%s: %d ops, %d dropped; want 80/0", f.Endpoint, f.Ops, f.Dropped)
		}
	}
	if spread := res.FairnessSpread(); spread > 1.3 {
		t.Errorf("fairness spread %.3f exceeds 1.3 — identical flows are not sharing fairly", spread)
	}
}

// TestRxOverloadDrops: offering frames faster than the x1 receive path
// drains them must overflow the NIC's RX FIFO and surface as Dropped,
// not as a hang or a silent loss.
func TestRxOverloadDrops(t *testing.T) {
	tr, err := Synthesize([]FlowSpec{{
		Endpoint: "nic", Op: OpRx, Arrival: ArrivalPoisson,
		Ops: 200, Len: 1500, MeanGap: sim.Microsecond, Seed: 2,
	}})
	if err != nil {
		t.Fatal(err)
	}
	res, _ := execute(t, "validation", tr)
	f := res.Flows[0]
	if f.Ops+f.Dropped != 200 {
		t.Fatalf("accounting leak: %d delivered + %d dropped != 200 offered", f.Ops, f.Dropped)
	}
	if f.Dropped == 0 {
		t.Fatal("3x overload shed nothing; RX backpressure is not modeled")
	}
	if f.Ops == 0 {
		t.Fatal("overload delivered nothing; the pump wedged instead of shedding")
	}
}

// TestRunRejectsUnknownEndpoint: a trace naming an endpoint the
// topology lacks must error up front with the available names.
func TestRunRejectsUnknownEndpoint(t *testing.T) {
	tr, err := Synthesize([]FlowSpec{{
		Endpoint: "ghost", Op: OpRead, Arrival: ArrivalPoisson,
		Ops: 1, Len: 4096, MeanGap: sim.Microsecond, Seed: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	sys := buildSys(t, "validation")
	if _, err := Run(sys, tr, RunConfig{}); err == nil {
		t.Fatal("unknown endpoint accepted")
	}
}

// TestRunReportsWedgedFlow: a flow that can never finish — its disk's
// link dies for good after boot and nothing times out — must surface
// as a wedged-flow error once the queue drains, not as a hang or a
// silent success.
func TestRunReportsWedgedFlow(t *testing.T) {
	tr, err := Synthesize([]FlowSpec{{
		Endpoint: "disk", Op: OpRead, Arrival: ArrivalPoisson,
		Ops: 2, Len: 4096, MeanGap: sim.Microsecond, Seed: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	probe := buildSys(t, "validation")
	if _, err := probe.Boot(); err != nil {
		t.Fatal(err)
	}
	cfg := topo.DefaultConfig()
	cfg.EnableMSI = true
	cfg.Faults = map[string]*fault.Plan{
		"disklink": {Windows: []fault.Window{{At: probe.Eng.Now() + sim.Microsecond}}},
	}
	sys, err := topo.Build(topo.Validation(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(sys, tr, RunConfig{})
	if err == nil || !strings.Contains(err.Error(), `flow "disk" wedged`) {
		t.Fatalf("Run = %v, want a wedged-flow error", err)
	}
}

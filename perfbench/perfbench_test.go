package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"pciesim/internal/sim"
)

func TestModuleOf(t *testing.T) {
	for name, want := range map[string]string{
		"uplink.down.tx":                   "pcie.link",
		"disklink.up.fcRefreshTimer":       "pcie.link",
		"niclink.down.ackTimer":            "pcie.link",
		"sw0.link.up.deliver":              "pcie.link",
		"disk11.link.down.replayTimer":     "pcie.link",
		"nic1.link.up.respretry":           "pcie.link",
		"rc.upstream.reqq.send":            "pcie.router",
		"rc.rootport2.reqretry":            "pcie.router",
		"rc.ctoTimer":                      "pcie.router",
		"switch.downport0.respq.send":      "pcie.router",
		"sw2.upstream.respretry":           "pcie.router",
		"membus.master[dram].reqq.send":    "xbar",
		"membus.slave[iocache].respq.send": "xbar",
		"iobus.slave[iobridge].respq.send": "xbar",
		"iobridge.reqq.send":               "xbar",
		"pcihost.respq.send":               "xbar",
		"iocache.reqretry":                 "cache",
		"dram.respq.send":                  "memctrl",
		"disk.media":                       "devices",
		"disk7.respq.send":                 "devices",
		"nic0.txdone":                      "devices",
		"msiframe.deliver":                 "devices",
		"cpu0.irq3":                        "kernel",
		"membus.slave[cpu0].respq.send":    "kernel",
		"dd.delay":                         "kernel",
		"dd.disk4.start":                   "kernel",
		"wl.nic0.arrival":                  "kernel",
		"boot.start":                       "kernel",
		"testdev0.respq.send":              "other",
	} {
		if got := moduleOf(name); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", name, got, want)
		}
	}
}

// profiledEngine runs a few named events under the profiler.
func profiledEngine() *sim.Engine {
	eng := sim.NewEngine()
	eng.Profile()
	for i := 0; i < 3; i++ {
		eng.Schedule("dram.respq.send", sim.Tick(i), func() {
			eng.Schedule("iocache.reqretry", 0, func() {})
		})
	}
	eng.Schedule("rc.upstream.reqq.send", 5, func() {})
	eng.Run()
	return eng
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := profiledEngine().Prof().WriteTable(&buf, 0, true); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.events != 7 || p.sameTick != 3 || len(p.rows) != 3 {
		t.Fatalf("parsed %d events, %d same-tick, %d rows; want 7, 3, 3", p.events, p.sameTick, len(p.rows))
	}
	counts := map[string]uint64{}
	for _, r := range p.rows {
		counts[r.name] = r.count
	}
	if counts["dram.respq.send"] != 3 || counts["iocache.reqretry"] != 3 || counts["rc.upstream.reqq.send"] != 1 {
		t.Errorf("row counts %v", counts)
	}
}

// TestParseProfileRejectsPartialTable makes sure a table cut to its
// top rows, or one without wall-clock columns, is an error rather than
// a silent undercount.
func TestParseProfileRejectsPartialTable(t *testing.T) {
	eng := profiledEngine()
	for _, tc := range []struct {
		topN int
		wall bool
	}{{1, true}, {0, false}} {
		var buf bytes.Buffer
		if err := eng.Prof().WriteTable(&buf, tc.topN, tc.wall); err != nil {
			t.Fatal(err)
		}
		if _, err := parseProfile(buf.Bytes()); err == nil {
			t.Errorf("topN=%d wall=%v: parsed without error", tc.topN, tc.wall)
		}
	}
}

// TestTracedBatchAccountsForWallTime runs one profiled batch of every
// workload. Every fired event name must belong to a module, and the
// module self times plus sim.self_s must add up to the run call's wall
// time.
func TestTracedBatchAccountsForWallTime(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := runBatch(w, 1, true)
			if res.Err != "" {
				t.Fatal(res.Err)
			}
			if len(res.Unmapped) > 0 {
				t.Errorf("event names owned by no module: %s", strings.Join(res.Unmapped, ", "))
			}
			if res.SelfS["other"] != 0 {
				t.Errorf("other.self_s = %v, want 0", res.SelfS["other"])
			}
			if res.SelfS["sim"] <= 0 {
				t.Errorf("sim.self_s = %v: callbacks exceed the run call's wall time", res.SelfS["sim"])
			}
			var total float64
			for _, m := range append(modules, "sim") {
				if m != "other" && m != "sim" && res.SelfS[m] < 0 {
					t.Errorf("%s.self_s = %v", m, res.SelfS[m])
				}
				total += res.SelfS[m]
			}
			if math.Abs(total-res.RunS) > 1e-6*res.RunS {
				t.Errorf("self times add up to %v s, run call took %v s", total, res.RunS)
			}
			if res.Det["sim.same_tick"] <= 0 || res.Det["sim.same_tick"] >= float64(res.Events) {
				t.Errorf("same-tick re-schedules %v of %d events", res.Det["sim.same_tick"], res.Events)
			}
		})
	}
}

// TestBatchesRepeat checks that untraced and traced batches of one seed
// leave the same stats digest and the same deterministic metrics, and
// that a different seed changes the seeded workloads.
func TestBatchesRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, b := runBatch(w, 7, false), runBatch(w, 7, true)
			for _, r := range []batchResult{a, b} {
				if r.Err != "" {
					t.Fatal(r.Err)
				}
			}
			if n, why := consistency([]sample{{batchResult: a}, {batchResult: b}}); n != 0 {
				t.Errorf("traced batch differs: %v", why)
			}
			if w.name == "wl-mixed" || w.name == "dd-faulted" {
				if c := runBatch(w, 8, false); c.Digest == a.Digest {
					t.Errorf("seeds 7 and 8 left the same stats digest")
				}
			}
		})
	}
}

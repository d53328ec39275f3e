package pciesim

import (
	"fmt"
	"strings"

	"pciesim/internal/campaign"
	"pciesim/internal/sim"
	"pciesim/internal/topo"
)

// ScenarioRow is one measured metric of a topology scenario.
type ScenarioRow struct {
	Scenario string
	Metric   string
	Value    float64
	Unit     string
}

// ScenarioReport is the result of RunScenarios.
type ScenarioReport struct {
	Rows []ScenarioRow
}

// Format renders the report as an aligned table.
func (r ScenarioReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %-28s %12s %s\n", "scenario", "metric", "value", "unit")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-12s %-28s %12.3f %s\n", row.Scenario, row.Metric, row.Value, row.Unit)
	}
	return b.String()
}

// CSV renders the report as CSV.
func (r ScenarioReport) CSV() string {
	var b strings.Builder
	b.WriteString("scenario,metric,value,unit\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%s,%s,%g,%s\n", row.Scenario, row.Metric, row.Value, row.Unit)
	}
	return b.String()
}

// scenarioRun is one independent simulation of the scenario campaign.
// run returns the measured rows plus the run's root engine so the
// campaign loop can invoke the ObserveDone hook on it; Observe itself
// fires inside run, right after the platform is built.
type scenarioRun struct {
	label string
	run   func() ([]ScenarioRow, *sim.Engine, error)
}

// scaledTopoConfig mirrors Options.scaledConfig for the topology-build
// config.
func (o Options) scaledTopoConfig() topo.Config {
	cfg := topo.DefaultConfig()
	cfg.DD.StartupOverhead /= sim.Tick(o.Scale)
	return cfg
}

// RunTopoSweep sweeps the block sizes of Options over an arbitrary
// topology (a canned scenario name or a spec string), running dd on
// every disk concurrently at each size. The result is a one-series
// Figure whose throughput is the aggregate across disks, so it drops
// into ddbench's existing table/CSV printers.
func RunTopoSweep(spec string, opt Options) (Figure, error) {
	opt = opt.normalize()
	ts := CannedTopo(spec)
	if ts == nil {
		var err error
		ts, err = ParseTopo(spec)
		if err != nil {
			return Figure{}, err
		}
	}
	// Normalize once up front: afterwards the spec is read-only, so the
	// concurrent campaign runs below can share it.
	if err := ts.Normalize(); err != nil {
		return Figure{}, err
	}
	cfg := opt.scaledTopoConfig()
	nb := len(opt.BlockMB)
	points := make([]Point, nb)
	type outcome struct {
		p     Point
		eng   *sim.Engine
		label string
	}
	err := campaign.RunCollect(opt.jobs(), nb,
		func(k int) (outcome, error) {
			sys, err := topo.Build(ts, cfg)
			if err != nil {
				return outcome{}, err
			}
			label := fmt.Sprintf("%s@%dMB", ts.Name, opt.BlockMB[k])
			if opt.Observe != nil {
				if err := opt.Observe(sys.Eng, label); err != nil {
					return outcome{}, err
				}
			}
			res, err := sys.RunDDAll(opt.blockBytes(opt.BlockMB[k]))
			if err != nil {
				return outcome{}, fmt.Errorf("%s @%dMB: %w", ts.Name, opt.BlockMB[k], err)
			}
			p := Point{X: opt.BlockMB[k], Gbps: res.AggregateThroughputGbps()}
			return outcome{p: p, eng: sys.Eng, label: label}, nil
		},
		func(k int, o outcome) error {
			if opt.ObserveDone != nil {
				if err := opt.ObserveDone(o.eng, o.label); err != nil {
					return err
				}
			}
			points[k] = o.p
			return nil
		})
	if err != nil {
		return Figure{}, err
	}
	label := ts.Name
	if label == "" {
		label = spec
	}
	return Figure{
		ID:     "topo",
		Title:  fmt.Sprintf("aggregate dd throughput over topology %q", spec),
		Series: []Series{{Label: label, Points: points}},
	}, nil
}

// RunScenarios runs the canned arbitrary-topology scenarios as one
// flat campaign (every build/workload pair is an independent
// single-threaded simulation, fanned across Options.Jobs workers):
//
//   - validation: the §VI-A platform built from the generic topology
//     builder, running the 64 MiB dd read — its throughput must match
//     the hardwired platform's (they are the same simulation).
//   - fanout8: eight x1 disks contending for one x4 switch uplink,
//     plus a single-disk control build for the aggregate comparison.
//   - p2p: disk-to-NIC DMA under a shared switch, once with
//     switch-level turnaround and once forced to reflect off the root
//     complex.
//
// names selects a subset (nil or empty = all).
func RunScenarios(names []string, opt Options) (ScenarioReport, error) {
	opt = opt.normalize()
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	selected := func(n string) bool { return len(want) == 0 || want[n] }

	blockBytes := opt.blockBytes(64)
	cfg := opt.scaledTopoConfig()
	// observe fires the Options.Observe hook for a freshly built
	// scenario platform; label matches the scenarioRun's.
	observe := func(sys *topo.System, label string) error {
		if opt.Observe == nil {
			return nil
		}
		return opt.Observe(sys.Eng, label)
	}

	var runs []scenarioRun
	if selected("validation") {
		runs = append(runs, scenarioRun{label: "validation", run: func() ([]ScenarioRow, *sim.Engine, error) {
			sys, err := topo.Build(topo.Validation(), cfg)
			if err != nil {
				return nil, nil, err
			}
			if err := observe(sys, "validation"); err != nil {
				return nil, nil, err
			}
			res, err := sys.RunDD(blockBytes)
			if err != nil {
				return nil, nil, err
			}
			return []ScenarioRow{
				{"validation", "dd_throughput", res.ThroughputGbps(), "Gb/s"},
				{"validation", "dd_p50_latency", res.ReqLat.P50.Seconds() * 1e6, "us"},
			}, sys.Eng, nil
		}})
	}
	if selected("fanout8") {
		runs = append(runs,
			scenarioRun{label: "fanout8", run: func() ([]ScenarioRow, *sim.Engine, error) {
				sys, err := topo.Build(topo.Fanout8(), cfg)
				if err != nil {
					return nil, nil, err
				}
				if err := observe(sys, "fanout8"); err != nil {
					return nil, nil, err
				}
				res, err := sys.RunDDAll(blockBytes)
				if err != nil {
					return nil, nil, err
				}
				return []ScenarioRow{
					{"fanout8", "aggregate_throughput", res.AggregateThroughputGbps(), "Gb/s"},
					{"fanout8", "fairness_spread", res.FairnessSpread(), "max/min"},
					{"fanout8", "disks", float64(len(res.PerDisk)), "count"},
				}, sys.Eng, nil
			}},
			scenarioRun{label: "fanout1", run: func() ([]ScenarioRow, *sim.Engine, error) {
				spec, err := topo.Parse("switch:x4(disk)")
				if err != nil {
					return nil, nil, err
				}
				sys, err := topo.Build(spec, cfg)
				if err != nil {
					return nil, nil, err
				}
				if err := observe(sys, "fanout1"); err != nil {
					return nil, nil, err
				}
				res, err := sys.RunDD(blockBytes)
				if err != nil {
					return nil, nil, err
				}
				return []ScenarioRow{
					{"fanout8", "single_disk_baseline", res.ThroughputGbps(), "Gb/s"},
				}, sys.Eng, nil
			}},
		)
	}
	if selected("p2p") {
		p2pRun := func(scenario string, noP2P bool) func() ([]ScenarioRow, *sim.Engine, error) {
			return func() ([]ScenarioRow, *sim.Engine, error) {
				c := cfg
				c.NoP2P = noP2P
				sys, err := topo.Build(topo.P2P(), c)
				if err != nil {
					return nil, nil, err
				}
				if err := observe(sys, scenario); err != nil {
					return nil, nil, err
				}
				res, err := sys.RunP2P(64, 4)
				if err != nil {
					return nil, nil, err
				}
				return []ScenarioRow{
					{scenario, "p50_cmd_latency", res.CmdLat.P50.Seconds() * 1e6, "us"},
					{scenario, "throughput", res.ThroughputGbps(), "Gb/s"},
					{scenario, "switch_turnarounds", float64(sys.Turnarounds()), "count"},
					{scenario, "rc_reflections", float64(sys.Reflections()), "count"},
				}, sys.Eng, nil
			}
		}
		runs = append(runs,
			scenarioRun{label: "p2p", run: p2pRun("p2p", false)},
			scenarioRun{label: "p2p-reflect", run: p2pRun("p2p-reflect", true)},
		)
	}
	if len(runs) == 0 {
		return ScenarioReport{}, fmt.Errorf("no known scenario in %v (have %v)", names, topo.CannedNames())
	}

	type outcome struct {
		rows []ScenarioRow
		eng  *sim.Engine
	}
	results := make([][]ScenarioRow, len(runs))
	err := campaign.RunCollect(opt.jobs(), len(runs),
		func(k int) (outcome, error) {
			rows, eng, err := runs[k].run()
			if err != nil {
				return outcome{}, fmt.Errorf("scenario %s: %w", runs[k].label, err)
			}
			return outcome{rows: rows, eng: eng}, nil
		},
		func(k int, o outcome) error {
			if opt.ObserveDone != nil {
				if err := opt.ObserveDone(o.eng, runs[k].label); err != nil {
					return err
				}
			}
			results[k] = o.rows
			return nil
		})
	if err != nil {
		return ScenarioReport{}, err
	}
	var report ScenarioReport
	for _, rows := range results {
		report.Rows = append(report.Rows, rows...)
	}
	return report, nil
}

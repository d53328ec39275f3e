package main

import (
	"fmt"
	"time"

	"pciesim/internal/fault"
	"pciesim/internal/kernel"
	"pciesim/internal/pcie"
	"pciesim/internal/phys"
	"pciesim/internal/sim"
	"pciesim/internal/system"
	"pciesim/internal/topo"
	"pciesim/internal/workload"
)

// Batch sizes. Each is one simulation of a few seconds of host time at
// most, so a run of the benchmark measures several batches and reports
// their medians.
const (
	// ddValidationBytes is the dd-validation block; phys_gap_pct is
	// taken at this size.
	ddValidationBytes = 16 << 20
	// fabric18Spec is three x4 switches of six x1 disks each, under
	// three root ports.
	fabric18Spec  = "switch:x4(disk*6),switch:x4(disk*6),switch:x4(disk*6)"
	fabric18Bytes = 512 << 10 // per disk
	// wlMixedSpec hangs four disks and two NICs off one x4 switch.
	wlMixedSpec = "switch:x4(disk*4,nic,nic)"
	wlDiskOps   = 400
	wlRxOps     = 600
	wlTxOps     = 300
	// ddFaultedRuns validation dd runs of ddFaultedBytes each make one
	// dd-faulted batch; every run has its own fault seed.
	ddFaultedRuns  = 3
	ddFaultedBytes = 4 << 20
	ddFaultedRate  = 0.002
	ddFaultedCreds = 2
)

// workloadDef is one named reference run of the benchmark.
type workloadDef struct {
	name string
	// setup builds and boots every platform of one batch and
	// synthesizes its inputs from the seed.
	setup func(seed uint64) (*batch, error)
}

// workloads lists the reference runs in BENCHMARK.json order.
var workloads = []workloadDef{
	{"dd-validation", setupDDValidation},
	{"fabric18", setupFabric18},
	{"wl-mixed", setupWLMixed},
	{"dd-faulted", setupDDFaulted},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (valid: %v)", name, names)
}

// batch is one set-up workload: the simulations it runs back to back
// and the host time each set-up layer took.
type batch struct {
	sims []*simRun
	// buildS, bootS and synthS are host seconds in topo.Build (or
	// system.New), Boot and workload.Synthesize.
	buildS, bootS, synthS float64
	// det holds deterministic figures the run call reports beside the
	// stats registry: dd-validation's phys_gap_pct and wl-mixed's
	// simulated flow results.
	det map[string]float64
}

// simRun is one simulation of a batch.
type simRun struct {
	sys *topo.System
	// run is the timed call into the run layer (RunDD, RunDDAll or
	// workload.Run). It returns an error for a failed run or for
	// outputs that differ from what was asked for.
	run func() error
}

// timed runs fn and adds its host time to *acc.
func timed(acc *float64, fn func() error) error {
	t0 := time.Now()
	err := fn()
	*acc += time.Since(t0).Seconds()
	return err
}

// bootTimed boots sys, charging the time to b.bootS.
func (b *batch) bootTimed(sys *topo.System) error {
	return timed(&b.bootS, func() error {
		_, err := sys.Boot()
		return err
	})
}

// checkDD verifies one dd result against the block it was asked for.
func checkDD(who string, r kernel.DDResult, want uint64) error {
	if r.Bytes != want || r.Errors != 0 {
		return fmt.Errorf("%s: dd moved %d of %d bytes with %d errored requests", who, r.Bytes, want, r.Errors)
	}
	return nil
}

func setupDDValidation(uint64) (*batch, error) {
	b := &batch{}
	var s *system.System
	_ = timed(&b.buildS, func() error {
		s = system.New(system.DefaultConfig())
		return nil
	})
	if err := b.bootTimed(s.System); err != nil {
		return nil, err
	}
	b.sims = []*simRun{{sys: s.System, run: func() error {
		r, err := s.RunDD(ddValidationBytes)
		if err != nil {
			return err
		}
		if err := checkDD("dd", r, ddValidationBytes); err != nil {
			return err
		}
		ref := phys.DefaultConfig().DDThroughputGbps(ddValidationBytes)
		b.det = map[string]float64{"phys_gap_pct": 100 * (ref - r.ThroughputGbps()) / ref}
		return nil
	}}}
	return b, nil
}

func setupFabric18(uint64) (*batch, error) {
	b := &batch{}
	var s *topo.System
	err := timed(&b.buildS, func() error {
		spec, err := topo.Parse(fabric18Spec)
		if err != nil {
			return err
		}
		s, err = topo.Build(spec, topo.DefaultConfig())
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := b.bootTimed(s); err != nil {
		return nil, err
	}
	b.sims = []*simRun{{sys: s, run: func() error {
		r, err := s.RunDDAll(fabric18Bytes)
		if err != nil {
			return err
		}
		if len(r.PerDisk) != 18 {
			return fmt.Errorf("dd ran on %d disks, want 18", len(r.PerDisk))
		}
		for i, d := range r.PerDisk {
			if err := checkDD(s.Disks[i].Name, d, fabric18Bytes); err != nil {
				return err
			}
		}
		return nil
	}}}
	return b, nil
}

// wlMixedFlows derives the wl-mixed flows from the workload seed:
// Poisson random 4 KiB reads on disk0-1 and writes on disk2-3, a
// bursty NIC RX flow on nic0 and a Poisson NIC TX flow on nic1. Every
// offered load sits below what its path sustains.
func wlMixedFlows(seed uint64) []workload.FlowSpec {
	rnd := sim.NewRand(seed)
	var flows []workload.FlowSpec
	for i := 0; i < 4; i++ {
		op := workload.OpRead
		if i >= 2 {
			op = workload.OpWrite
		}
		flows = append(flows, workload.FlowSpec{
			Endpoint: fmt.Sprintf("disk%d", i),
			Op:       op,
			Arrival:  workload.ArrivalPoisson,
			Ops:      wlDiskOps,
			Len:      4096,
			MeanGap:  30 * sim.Microsecond,
			Seed:     rnd.Uint64(),
		})
	}
	flows = append(flows,
		workload.FlowSpec{
			Endpoint: "nic0",
			Op:       workload.OpRx,
			Arrival:  workload.ArrivalBursty,
			Ops:      wlRxOps,
			Len:      1500,
			MeanGap:  20 * sim.Microsecond,
			BurstLen: 8,
			BurstGap: 2 * sim.Microsecond,
			Seed:     rnd.Uint64(),
		},
		workload.FlowSpec{
			Endpoint: "nic1",
			Op:       workload.OpTx,
			Arrival:  workload.ArrivalPoisson,
			Ops:      wlTxOps,
			Len:      1500,
			MeanGap:  40 * sim.Microsecond,
			Seed:     rnd.Uint64(),
		})
	return flows
}

func setupWLMixed(seed uint64) (*batch, error) {
	b := &batch{}
	var s *topo.System
	err := timed(&b.buildS, func() error {
		spec, err := topo.Parse(wlMixedSpec)
		if err != nil {
			return err
		}
		cfg := topo.DefaultConfig()
		cfg.EnableMSI = true
		s, err = topo.Build(spec, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := b.bootTimed(s); err != nil {
		return nil, err
	}
	flows := wlMixedFlows(seed)
	var tr *workload.Trace
	err = timed(&b.synthS, func() error {
		var err error
		tr, err = workload.Synthesize(flows)
		return err
	})
	if err != nil {
		return nil, err
	}
	b.sims = []*simRun{{sys: s, run: func() error {
		res, err := workload.Run(s, tr, workload.RunConfig{})
		if err != nil {
			return err
		}
		if len(res.Flows) != len(flows) {
			return fmt.Errorf("workload ran %d flows, want %d", len(res.Flows), len(flows))
		}
		var ops, dropped int
		var p99, gbps float64
		for _, f := range res.Flows {
			if f.Ops+f.Dropped != wantOps(flows, f.Endpoint) {
				return fmt.Errorf("flow %s: %d ops + %d dropped, offered %d",
					f.Endpoint, f.Ops, f.Dropped, wantOps(flows, f.Endpoint))
			}
			ops += f.Ops
			dropped += f.Dropped
			p99 = max(p99, float64(f.Lat.P99)/float64(sim.Microsecond))
			gbps += f.GoodputGbps()
		}
		b.det = map[string]float64{
			"workload.ops":              float64(ops),
			"workload.dropped":          float64(dropped),
			"workload.sim_p99_us":       p99,
			"workload.sim_goodput_gbps": gbps,
		}
		return nil
	}}}
	return b, nil
}

// wantOps is the op count the flows offer on one endpoint.
func wantOps(flows []workload.FlowSpec, endpoint string) int {
	for _, f := range flows {
		if f.Endpoint == endpoint {
			return f.Ops
		}
	}
	return 0
}

// ddFaultedPlan is run k's fault plan: stochastic TLP and DLLP
// corruption plus wire drops in both directions of the disk link, its
// seed derived from the workload seed.
func ddFaultedPlan(seed uint64, k int) *fault.Plan {
	r := fault.Rates{TLPCorrupt: ddFaultedRate, DLLPCorrupt: ddFaultedRate, Drop: ddFaultedRate / 2}
	rnd := sim.NewRand(seed*ddFaultedRuns + uint64(k) + 1)
	return &fault.Plan{
		Seed: rnd.Uint64(),
		Up:   fault.Profile{Rates: r},
		Down: fault.Profile{Rates: r},
	}
}

func setupDDFaulted(seed uint64) (*batch, error) {
	b := &batch{}
	for k := 0; k < ddFaultedRuns; k++ {
		cfg := system.DefaultConfig()
		cfg.Credits = pcie.UniformCredits(ddFaultedCreds)
		cfg.DiskLinkFault = ddFaultedPlan(seed, k)
		var s *system.System
		_ = timed(&b.buildS, func() error {
			s = system.New(cfg)
			return nil
		})
		if err := b.bootTimed(s.System); err != nil {
			return nil, err
		}
		b.sims = append(b.sims, &simRun{sys: s.System, run: func() error {
			r, err := s.RunDD(ddFaultedBytes)
			if err != nil {
				return err
			}
			if err := checkDD(fmt.Sprintf("dd run %d", k), r, ddFaultedBytes); err != nil {
				return err
			}
			if s.DiskLink.Dead() {
				return fmt.Errorf("dd run %d: disk link died", k)
			}
			return nil
		}})
	}
	return b, nil
}

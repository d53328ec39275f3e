package workload

import (
	"fmt"
	"strings"

	"pciesim/internal/kernel"
	"pciesim/internal/sim"
	"pciesim/internal/stats"
	"pciesim/internal/topo"
)

// RunConfig tunes the executor.
type RunConfig struct {
	// StartDelay offsets every op's scheduled tick from the moment the
	// runner launches, giving flow tasks time to program their rings
	// before the first arrival. Defaults to 200us.
	StartDelay sim.Tick
	// RingEntries sizes NIC descriptor rings. Defaults to 64.
	RingEntries int
	// Poll bounds the RX reap loop's interrupt waits (see
	// kernel.NICRxConfig.Poll).
	Poll sim.Tick
}

// flowWindow spaces per-flow DRAM regions: rings, frame buffers, and
// block bounce buffers for flow i live in an 8 MiB window at
// DRAMBase + 256 MiB + i*8 MiB, clear of the dd buffers (64 MiB+) and
// the nictx ring (160 MiB).
const (
	flowWindowBase   = topo.DRAMBase + (256 << 20)
	flowWindowStride = 8 << 20
)

// FlowResult reports one flow of a run.
type FlowResult struct {
	// Endpoint is the topology node the flow drove; it doubles as the
	// flow's name in the wl.* stats namespace.
	Endpoint string
	// Kind is the flow's operation kind.
	Kind OpKind
	// Ops counts completed operations, Dropped the ones the platform
	// shed (NIC FIFO overflow, failed transfers).
	Ops, Dropped int
	// Bytes is the payload delivered.
	Bytes uint64
	// Elapsed spans the first scheduled arrival to the last completion.
	Elapsed sim.Tick
	// Lat summarizes per-op latency: completion tick minus *scheduled*
	// arrival tick, so queueing delay behind a burst is part of the
	// number.
	Lat kernel.LatencySummary
}

// GoodputGbps is delivered payload over the flow's span.
func (f FlowResult) GoodputGbps() float64 {
	if f.Elapsed == 0 {
		return 0
	}
	return float64(f.Bytes) * 8 / f.Elapsed.Seconds() / 1e9
}

// String implements fmt.Stringer.
func (f FlowResult) String() string {
	return fmt.Sprintf("%s/%v: %d ops (%d dropped), %d bytes in %v (%.3f Gb/s), %v",
		f.Endpoint, f.Kind, f.Ops, f.Dropped, f.Bytes, f.Elapsed, f.GoodputGbps(), f.Lat)
}

// Result reports a whole run.
type Result struct {
	// Flows holds per-flow results in first-appearance (trace) order.
	Flows []FlowResult
	// Elapsed spans workload start to the last flow's completion.
	Elapsed sim.Tick
}

// FairnessSpread is max/min goodput across the flows — 1.0 is a
// perfectly fair share of the contended fabric.
func (r Result) FairnessSpread() float64 {
	if len(r.Flows) == 0 {
		return 0
	}
	minG, maxG := r.Flows[0].GoodputGbps(), r.Flows[0].GoodputGbps()
	for _, f := range r.Flows[1:] {
		g := f.GoodputGbps()
		if g < minG {
			minG = g
		}
		if g > maxG {
			maxG = g
		}
	}
	if minG == 0 {
		return maxG
	}
	return maxG / minG
}

// flowState is one endpoint's execution state.
type flowState struct {
	endpoint string
	kind     OpKind
	ops      []Op

	completed int
	dropped   int
	bytes     uint64

	firstAt sim.Tick // first scheduled arrival (absolute)
	lastEnd sim.Tick // last completion tick (absolute)

	lat    *stats.Histogram // local, for the summary quantiles
	regLat *stats.Histogram // registry wl.<ep>.latency
	gaps   *stats.Histogram // registry wl.<ep>.interarrival

	cOps, cDropped, cBytes *stats.Counter

	// pending holds the scheduled arrival ticks of NIC RX frames the
	// device accepted but has not yet delivered; deliveries pop in
	// FIFO order (the device serializes RX DMA).
	pending []sim.Tick
}

func (f *flowState) finished() bool { return f.completed+f.dropped == len(f.ops) }

func (f *flowState) observe(target, end sim.Tick, bytes int) {
	lat := uint64(end - target)
	f.lat.Observe(lat)
	f.regLat.Observe(lat)
	f.cOps.Inc()
	f.cBytes.Add(uint64(bytes))
	f.completed++
	f.bytes += uint64(bytes)
	if end > f.lastEnd {
		f.lastEnd = end
	}
}

func (f *flowState) drop() {
	f.dropped++
	f.cDropped.Inc()
}

// Run executes a trace against a booted (or bootable) topology system:
// one kernel task per disk/NIC-TX flow, engine-scheduled frame
// injections plus a reaping driver task per NIC-RX flow. Each endpoint
// may carry NIC ops or block ops, not both, and at most one rx flow —
// the grouping Synthesize enforces on the way in. Stats land under
// wl.<endpoint>.* in the engine registry; run at most one workload per
// system so the counters stay attributable.
func Run(sys *topo.System, tr *Trace, cfg RunConfig) (Result, error) {
	if err := tr.validate(); err != nil {
		return Result{}, err
	}
	if len(tr.Ops) == 0 {
		return Result{}, fmt.Errorf("workload: empty trace")
	}
	if cfg.StartDelay == 0 {
		cfg.StartDelay = 200 * sim.Microsecond
	}
	if cfg.RingEntries == 0 {
		cfg.RingEntries = 64
	}
	if _, err := sys.Boot(); err != nil {
		return Result{}, err
	}

	// Group ops by endpoint, preserving first-appearance order.
	var flows []*flowState
	byEndpoint := map[string]*flowState{}
	for _, op := range tr.Ops {
		f := byEndpoint[op.Endpoint]
		if f == nil {
			f = &flowState{endpoint: op.Endpoint, kind: op.Kind, firstAt: op.At}
			byEndpoint[op.Endpoint] = f
			flows = append(flows, f)
		}
		blockKind := func(k OpKind) bool { return k == OpRead || k == OpWrite }
		if op.Kind != f.kind && !(blockKind(op.Kind) && blockKind(f.kind)) {
			return Result{}, fmt.Errorf("workload: endpoint %q mixes %v and %v ops",
				op.Endpoint, f.kind, op.Kind)
		}
		f.ops = append(f.ops, op)
	}

	// Resolve endpoints and register stats before any simulated time
	// passes, so registration order is a function of the trace alone.
	reg := sys.Eng.Stats()
	for _, f := range flows {
		switch f.kind {
		case OpRead, OpWrite:
			if sys.DiskByName(f.endpoint) == nil {
				return Result{}, fmt.Errorf("workload: no disk %q in topology %q (endpoints: %s)",
					f.endpoint, sys.Spec.Name, strings.Join(sys.EndpointNames(), ", "))
			}
		case OpRx, OpTx:
			if sys.NICByName(f.endpoint) == nil {
				return Result{}, fmt.Errorf("workload: no nic %q in topology %q (endpoints: %s)",
					f.endpoint, sys.Spec.Name, strings.Join(sys.EndpointNames(), ", "))
			}
		}
		f.lat = new(stats.Histogram)
		f.regLat = reg.Histogram("wl." + f.endpoint + ".latency")
		f.gaps = reg.Histogram("wl." + f.endpoint + ".interarrival")
		f.cOps = reg.Counter("wl." + f.endpoint + ".ops")
		f.cDropped = reg.Counter("wl." + f.endpoint + ".dropped")
		f.cBytes = reg.Counter("wl." + f.endpoint + ".bytes")
		prev := f.ops[0].At
		for _, op := range f.ops {
			f.gaps.Observe(uint64(op.At - prev))
			prev = op.At
		}
	}

	start := sys.Eng.Now() + cfg.StartDelay
	var tasks []*kernel.Task
	var taskErrs []error
	// finished counts flow bodies that returned; each increments it in
	// the event that marks its Task done, so the stop test is O(1).
	finished := 0
	for fi, f := range flows {
		f := f
		window := uint64(flowWindowBase + fi*flowWindowStride)
		switch f.kind {
		case OpRead, OpWrite:
			h := sys.DiskDriver.HandleFor(sys.DiskByName(f.endpoint).BDF)
			tasks = append(tasks, sys.CPU.Spawn("wl."+f.endpoint, 0, func(t *kernel.Task) {
				runBlockFlow(t, f, h, start, window)
				finished++
			}))
			taskErrs = append(taskErrs, nil)
		case OpTx:
			h := sys.NICDriver.HandleFor(sys.NICByName(f.endpoint).BDF)
			tasks = append(tasks, sys.CPU.Spawn("wl."+f.endpoint, 0, func(t *kernel.Task) {
				runTxFlow(t, f, h, start, window, cfg.RingEntries)
				finished++
			}))
			taskErrs = append(taskErrs, nil)
		case OpRx:
			inst := sys.NICByName(f.endpoint)
			h := sys.NICDriver.HandleFor(inst.BDF)
			armRxFlow(sys, f, inst, start)
			ei := len(taskErrs)
			taskErrs = append(taskErrs, nil)
			rxCfg := kernel.NICRxConfig{
				RingAddr:    window,
				RingEntries: cfg.RingEntries,
				BufAddr:     window + (1 << 20),
				Poll:        cfg.Poll,
			}
			tasks = append(tasks, sys.CPU.Spawn("wl."+f.endpoint, 0, func(t *kernel.Task) {
				_, taskErrs[ei] = kernel.RunNICRx(t, h, rxCfg, f.finished)
				finished++
			}))
		}
	}

	sys.Eng.RunWhile(func() bool { return finished < len(tasks) })
	for i, t := range tasks {
		if !t.Done() {
			return Result{}, fmt.Errorf("workload: flow %q wedged", flows[i].endpoint)
		}
		if taskErrs[i] != nil {
			return Result{}, fmt.Errorf("workload: flow %q: %w", flows[i].endpoint, taskErrs[i])
		}
	}

	res := Result{Flows: make([]FlowResult, 0, len(flows))}
	for _, f := range flows {
		elapsed := sim.Tick(0)
		if f.lastEnd > start+f.firstAt {
			elapsed = f.lastEnd - (start + f.firstAt)
		}
		fr := FlowResult{
			Endpoint: f.endpoint,
			Kind:     f.kind,
			Ops:      f.completed,
			Dropped:  f.dropped,
			Bytes:    f.bytes,
			Elapsed:  elapsed,
			Lat: kernel.LatencySummary{
				P50: sim.Tick(f.lat.Quantile(0.50)),
				P95: sim.Tick(f.lat.Quantile(0.95)),
				P99: sim.Tick(f.lat.Quantile(0.99)),
				Max: sim.Tick(f.lat.Max()),
			},
		}
		res.Flows = append(res.Flows, fr)
		if f.lastEnd > start && f.lastEnd-start > res.Elapsed {
			res.Elapsed = f.lastEnd - start
		}
	}
	return res, nil
}

// runBlockFlow paces random block transfers: sleep to each op's
// scheduled arrival, transfer, attribute completion-minus-arrival as
// the op latency (a transfer issued behind schedule keeps its queueing
// delay).
func runBlockFlow(t *kernel.Task, f *flowState, h *kernel.DiskHandle, start sim.Tick, buf uint64) {
	secSize := uint64(h.SectorSize)
	for _, op := range f.ops {
		target := start + op.At
		if now := t.Now(); now < target {
			t.Delay(target - now)
		}
		sectors := (uint64(op.Len) + secSize - 1) / secSize
		if err := h.Transfer(t, op.Kind == OpWrite, op.Addr, uint32(sectors), buf); err != nil {
			f.drop()
			continue
		}
		f.observe(target, t.Now(), op.Len)
	}
}

// runTxFlow paces descriptor-ring transmits the same way.
func runTxFlow(t *kernel.Task, f *flowState, h *kernel.NICHandle, start sim.Tick, window uint64, entries int) {
	ringAddr, bufAddr := window, window+(1<<20)
	kernel.SetupNICTxRing(t, h, ringAddr, entries)
	tail := uint32(0)
	for _, op := range f.ops {
		target := start + op.At
		if now := t.Now(); now < target {
			t.Delay(target - now)
		}
		tail = kernel.SendNICFrame(t, h, ringAddr, entries, tail, bufAddr, op.Len)
		f.observe(target, t.Now(), op.Len)
	}
}

// armRxFlow schedules the device-side frame arrivals and hooks
// delivery accounting. The driver-side ring programming and reaping
// live in the task RunNICRx runs.
func armRxFlow(sys *topo.System, f *flowState, inst *topo.NICInst, start sim.Tick) {
	nic := inst.Dev
	nic.OnReceive = func(length int) {
		target := f.pending[0]
		f.pending = f.pending[1:]
		f.observe(target, sys.Eng.Now(), length)
	}
	nic.OnRxDiscard = func(int) {
		f.pending = f.pending[1:]
		f.drop()
	}
	evName := "wl." + f.endpoint + ".arrival"
	for _, op := range f.ops {
		op := op
		target := start + op.At
		sys.Eng.ScheduleAt(evName, target, 0, func() {
			if nic.InjectRxFrame(op.Len) {
				f.pending = append(f.pending, target)
			} else {
				f.drop()
			}
		})
	}
}

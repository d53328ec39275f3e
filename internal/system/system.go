// Package system assembles the full simulated platform of the paper's
// evaluation (§III, §V, Fig 6(a)): CPU and DRAM on a coherent MemBus,
// a bridge to the non-coherent IOBus holding the PCI host, a root
// complex on the MemBus whose DMA path drains through the IOCache, a
// PCI-Express switch below a root port, the IDE-like disk below the
// switch, and the 8254x-pcie NIC directly on another root port.
//
//	CPU ──► MemBus ◄──────────── IOCache ◄── RC upstream (DMA)
//	          │  │ └─► DRAM                     ▲
//	          │  └───► RC upstream (PIO)        │
//	          ▼                                 │
//	        Bridge ─► IOBus ─► PCI host         │
//	                                            │
//	    RC rootport0 ═ link ═ switch ═ link ═ disk
//	    RC rootport1 ═ link ═ NIC
//
// The package is a thin wrapper over internal/topo: the topology above
// is topo.Validation(), and New maps the legacy per-link knobs onto
// that spec before handing it to topo.Build. Arbitrary topologies —
// more root ports, cascaded switches, many disks — are built directly
// through internal/topo.
package system

import (
	"fmt"

	"pciesim/internal/cache"
	"pciesim/internal/devices"
	"pciesim/internal/fault"
	"pciesim/internal/kernel"
	"pciesim/internal/memctrl"
	"pciesim/internal/pcie"
	"pciesim/internal/sim"
	"pciesim/internal/topo"
)

// Address map of the modeled ARM Vexpress_GEM5_V1 platform (§III).
const (
	ConfigBase   = topo.ConfigBase
	ConfigSize   = topo.ConfigSize
	IOBase       = topo.IOBase
	IOSize       = topo.IOSize
	MMIOBase     = topo.MMIOBase
	MMIOSize     = topo.MMIOSize
	DRAMBase     = topo.DRAMBase
	DRAMSize     = topo.DRAMSize
	MSIFrameBase = topo.MSIFrameBase
	MSIFrameSize = topo.MSIFrameSize
)

// Config collects every knob of the modeled platform. DefaultConfig
// returns the paper's validated baseline; experiments override single
// fields.
type Config struct {
	// --- PCI-Express fabric (the §VI sweep variables) ---

	// RootComplexLatency is the RC processing latency (150 ns in every
	// experiment except the Table II sweep).
	RootComplexLatency sim.Tick
	// SwitchLatency is the switch store-and-forward latency (50–150 ns
	// in Fig 9(a)).
	SwitchLatency sim.Tick
	// PortBufferSize is the root/switch per-port buffer (16 packets in
	// the baseline; 16–28 in Fig 9(d)).
	PortBufferSize int
	// ReplayBufferSize is the link-interface replay buffer (4 in the
	// baseline; 1–4 in Fig 9(c)).
	ReplayBufferSize int
	// UplinkWidth/DiskLinkWidth are the Gen2 lane counts: x4 and x1 in
	// the validation topology; Fig 9(b) sweeps all links together.
	UplinkWidth   int
	DiskLinkWidth int
	// NICLinkWidth is the width of the direct root-port NIC link.
	NICLinkWidth int
	// Gen selects the generation for every link.
	Gen pcie.Generation
	// PropDelay is the per-direction propagation delay of every link's
	// physical medium. Zero (the baseline) models short electrical
	// traces; the flow-control experiments raise it to emulate cabled
	// or retimed links whose bandwidth-delay product the credit pools
	// must cover.
	PropDelay sim.Tick
	// Credits enables VC0 credit-based flow control on every link with
	// the given per-class limits. The zero value (all counters 0 =
	// infinite) keeps the legacy refusal-only backpressure and is
	// bit-identical to the pre-FC simulator. Receiver-side port buffers
	// clamp the advertisement (see topo.Config.Credits).
	Credits pcie.CreditConfig
	// Seed seeds fault injection.
	Seed uint64

	// --- error containment & recovery (DESIGN.md §6) ---

	// UplinkFault/DiskLinkFault/NICLinkFault attach a deterministic
	// fault-injection plan (corruption, drops, link-down windows) to
	// the corresponding link. Nil leaves the link fault-free and the
	// simulation bit-identical to the baseline.
	UplinkFault   *fault.Plan
	DiskLinkFault *fault.Plan
	NICLinkFault  *fault.Plan
	// CompletionTimeout arms the root complex's completion timer on
	// CPU-originated non-posted requests: a request whose completion
	// never returns is answered with an all-ones error completion
	// after this long. Zero disables the timer (the baseline).
	CompletionTimeout sim.Tick
	// DiskCmdTimeout bounds how long the block driver waits for a
	// disk command interrupt before giving up on the request. Zero
	// waits forever (the baseline).
	DiskCmdTimeout sim.Tick
	// DiskDMATimeout bounds the disk DMA engine's per-transfer
	// in-flight time (devices.DiskConfig.DMATimeout). Zero disables.
	DiskDMATimeout sim.Tick
	// EnableMSI extends the platform beyond the paper's gem5 baseline:
	// an MSI doorbell frame appears at MSIFrameBase, the NIC's MSI
	// capability becomes enableable, and the e1000e probe lands on MSI
	// instead of the legacy INTx fallback.
	EnableMSI bool
	// EnableDPC adds Downstream Port Containment to every slot, creates
	// the kernel's recovery manager, and arms containment at boot — the
	// prerequisite for surviving surprise hot-plug (topo.Config.EnableDPC).
	EnableDPC bool
	// Recovery tunes the DPC/hot-plug recovery driver; zero-value
	// fields take defaults. Only meaningful with EnableDPC.
	Recovery kernel.RecoveryConfig
	// Degrade arms adaptive link degradation on every link
	// (topo.Config.Degrade). Nil leaves it off.
	Degrade *pcie.DegradeConfig

	// --- substrate ---

	MemBusFrontend sim.Tick
	MemBusResponse sim.Tick
	MemBusPerByte  sim.Tick
	IOBusLatency   sim.Tick
	BridgeDelay    sim.Tick
	PCIHostLatency sim.Tick
	IOCache        cache.Config
	DRAM           memctrl.Config
	Disk           devices.DiskConfig
	NIC            devices.NICConfig
	NICPIOLatency  sim.Tick

	// --- OS model ---

	IRQLatency sim.Tick
	DD         kernel.DDConfig
}

// DefaultConfig is the calibrated baseline configuration; every
// experiment in EXPERIMENTS.md starts from it. The PCIe-side values
// come from the paper; the substrate and OS calibration is shared with
// (and now lives in) topo.DefaultConfig.
func DefaultConfig() Config {
	t := topo.DefaultConfig()
	return Config{
		RootComplexLatency: t.RootComplexLatency,
		SwitchLatency:      t.SwitchLatency,
		PortBufferSize:     t.PortBufferSize,
		ReplayBufferSize:   t.ReplayBufferSize,
		UplinkWidth:        4,
		DiskLinkWidth:      1,
		NICLinkWidth:       1,
		Gen:                t.Gen,

		MemBusFrontend: t.MemBusFrontend,
		MemBusResponse: t.MemBusResponse,
		MemBusPerByte:  t.MemBusPerByte,
		IOBusLatency:   t.IOBusLatency,
		BridgeDelay:    t.BridgeDelay,
		PCIHostLatency: t.PCIHostLatency,
		IOCache:        t.IOCache,
		DRAM:           t.DRAM,
		Disk:           t.Disk,
		NIC:            t.NIC,
		NICPIOLatency:  t.NICPIOLatency,

		IRQLatency: t.IRQLatency,
		DD:         t.DD,
	}
}

// topoConfig maps the legacy flat config onto the topology-independent
// build config.
func (cfg Config) topoConfig() topo.Config {
	return topo.Config{
		RootComplexLatency: cfg.RootComplexLatency,
		SwitchLatency:      cfg.SwitchLatency,
		PortBufferSize:     cfg.PortBufferSize,
		ReplayBufferSize:   cfg.ReplayBufferSize,
		Gen:                cfg.Gen,
		PropDelay:          cfg.PropDelay,
		Credits:            cfg.Credits,
		Seed:               cfg.Seed,
		CompletionTimeout:  cfg.CompletionTimeout,
		DiskCmdTimeout:     cfg.DiskCmdTimeout,
		DiskDMATimeout:     cfg.DiskDMATimeout,
		EnableMSI:          cfg.EnableMSI,
		EnableDPC:          cfg.EnableDPC,
		Recovery:           cfg.Recovery,
		Degrade:            cfg.Degrade,

		MemBusFrontend: cfg.MemBusFrontend,
		MemBusResponse: cfg.MemBusResponse,
		MemBusPerByte:  cfg.MemBusPerByte,
		IOBusLatency:   cfg.IOBusLatency,
		BridgeDelay:    cfg.BridgeDelay,
		PCIHostLatency: cfg.PCIHostLatency,
		IOCache:        cfg.IOCache,
		DRAM:           cfg.DRAM,
		Disk:           cfg.Disk,
		NIC:            cfg.NIC,
		NICPIOLatency:  cfg.NICPIOLatency,

		IRQLatency: cfg.IRQLatency,
		DD:         cfg.DD,
	}
}

// System is the assembled validation platform: the generic topo.System
// plus direct handles on the fixed topology's components, so existing
// callers keep field access like s.Switch and s.DiskLink.
type System struct {
	*topo.System

	// Cfg is the legacy flat configuration New was called with. It
	// shadows the embedded topo.System's build config.
	Cfg Config

	Switch   *pcie.Switch
	Uplink   *pcie.Link
	DiskLink *pcie.Link
	NICLink  *pcie.Link

	Disk *devices.Disk
	NIC  *devices.NIC
}

// New builds and wires the platform. The simulation is ready to Boot.
func New(cfg Config) *System {
	spec := topo.Validation()
	sw := spec.RootPorts[0]
	sw.Link.Width = cfg.UplinkWidth
	sw.Link.Fault = cfg.UplinkFault
	disk := sw.Ports[0]
	disk.Link.Width = cfg.DiskLinkWidth
	disk.Link.Fault = cfg.DiskLinkFault
	nic := spec.RootPorts[1]
	nic.Link.Width = cfg.NICLinkWidth
	nic.Link.Fault = cfg.NICLinkFault

	ts, err := topo.Build(spec, cfg.topoConfig())
	if err != nil {
		// The canned spec is structurally legal; only an out-of-range
		// width/generation in cfg can fail, which was a panic (in
		// pcie.NewLink) before the topo layer existed too.
		panic(fmt.Sprintf("system: %v", err))
	}
	s := &System{
		System:   ts,
		Cfg:      cfg,
		Switch:   ts.Switches[0].Sw,
		Uplink:   ts.LinkByName("uplink").Link,
		DiskLink: ts.LinkByName("disklink").Link,
		NICLink:  ts.LinkByName("niclink").Link,
		Disk:     ts.Disks[0].Dev,
		NIC:      ts.NICs[0].Dev,
	}
	// topo.Build appends the MSI doorbell to the IOCache's uncacheable
	// list; keep the legacy config view in sync.
	s.Cfg.IOCache = ts.Cfg.IOCache
	return s
}

// RunDD boots if necessary, then runs one dd block-read of blockBytes
// and returns the result. The legacy wrapper keeps Cfg.DD as the
// source of truth (the embedded build config mirrors it).
func (s *System) RunDD(blockBytes uint64) (kernel.DDResult, error) {
	return s.System.RunDD(blockBytes)
}

// RunDDWrite is RunDD in the write direction (`dd of=/dev/disk`): the
// disk DMA-reads the user buffer, so the payload rides downstream read
// completions.
func (s *System) RunDDWrite(blockBytes uint64) (kernel.DDResult, error) {
	return s.System.RunDDWrite(blockBytes)
}

// DiskUplinkStats returns the link-interface stats of the upstream
// (disk -> switch) direction — where the paper measures timeout and
// replay rates.
func (s *System) DiskUplinkStats() pcie.LinkStats { return s.DiskLink.Down().Stats() }

// LinkErrorSummary aggregates the error-containment counters of one
// link, combining both directions.
type LinkErrorSummary = topo.LinkErrorSummary

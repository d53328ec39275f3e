package topo

import (
	"fmt"

	"pciesim/internal/devices"
	"pciesim/internal/kernel"
	"pciesim/internal/pcie"
	"pciesim/internal/sim"
)

// runTask drives the engine until the spawned task completes (or the
// queue drains with it wedged), without fast-forwarding through fault
// windows armed past the task's completion.
func (s *System) runTask(t *kernel.Task) {
	s.Eng.RunWhile(func() bool { return !t.Done() })
}

// Boot runs enumeration and driver probes to completion and checks
// that every disk and NIC endpoint the spec declared was bound by its
// driver. Test devices are driverless by design and are only checked
// for discovery.
func (s *System) Boot() (*kernel.Topology, error) {
	if s.booted {
		return s.Kernel.Topo, nil
	}
	var bootErr error
	t := s.CPU.Spawn("boot", 0, func(t *kernel.Task) {
		bootErr = s.Kernel.Boot(t)
		if bootErr == nil && s.Recovery != nil {
			s.Recovery.Arm(t)
		}
	})
	s.runTask(t)
	if bootErr != nil {
		return nil, bootErr
	}
	if !t.Done() {
		return nil, fmt.Errorf("topo: boot task did not complete")
	}
	for _, d := range s.Disks {
		if s.DiskDriver.HandleFor(d.BDF) == nil {
			return nil, fmt.Errorf("topo: disk %q at %v did not bind", d.Name, d.BDF)
		}
	}
	for _, n := range s.NICs {
		if s.NICDriver.HandleFor(n.BDF) == nil {
			return nil, fmt.Errorf("topo: nic %q at %v did not bind", n.Name, n.BDF)
		}
	}
	for _, td := range s.TestDevs {
		found := false
		for _, f := range s.Kernel.Topo.All {
			if f.BDF == td.BDF {
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("topo: testdev %q at %v was not enumerated", td.Name, td.BDF)
		}
	}
	s.booted = true
	return s.Kernel.Topo, nil
}

// RunDD boots if necessary, then runs one dd block-read of blockBytes
// against the first disk.
func (s *System) RunDD(blockBytes uint64) (kernel.DDResult, error) {
	return s.runDD(blockBytes, false)
}

// RunDDWrite is RunDD with the direction flipped (`dd of=/dev/disk`):
// the disk DMA-reads the user buffer, so the payload travels in
// downstream read completions and is throttled by Cpl credits rather
// than Posted ones.
func (s *System) RunDDWrite(blockBytes uint64) (kernel.DDResult, error) {
	return s.runDD(blockBytes, true)
}

func (s *System) runDD(blockBytes uint64, write bool) (kernel.DDResult, error) {
	if _, err := s.Boot(); err != nil {
		return kernel.DDResult{}, err
	}
	if len(s.Disks) == 0 {
		return kernel.DDResult{}, fmt.Errorf("topo: no disk in topology %q", s.Spec.Name)
	}
	cfg := s.Cfg.DD
	cfg.BlockBytes = blockBytes
	cfg.Write = write
	h := s.DiskDriver.HandleFor(s.Disks[0].BDF)
	var res kernel.DDResult
	var runErr error
	task := s.CPU.Spawn("dd", 0, func(t *kernel.Task) {
		res, runErr = kernel.RunDD(t, h, cfg)
	})
	s.runTask(task)
	if runErr != nil {
		return kernel.DDResult{}, runErr
	}
	if !task.Done() {
		return kernel.DDResult{}, fmt.Errorf("topo: dd task wedged (lost wakeup?)")
	}
	return res, nil
}

// DDAllResult reports a concurrent dd run across every disk.
type DDAllResult struct {
	// PerDisk holds each disk's result, in topology (bus) order.
	PerDisk []kernel.DDResult
	// SectorsAtFirstExit is each disk's completed-sector count sampled
	// at the instant the first dd task finished — the window where all
	// disks were still contending, which is what arbitration fairness
	// is measured on.
	SectorsAtFirstExit []uint64
	// Elapsed is the time from launch until the last task finished.
	Elapsed sim.Tick
}

// AggregateThroughputGbps sums the per-disk payload over the full run.
func (r DDAllResult) AggregateThroughputGbps() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	var bytes uint64
	for _, d := range r.PerDisk {
		bytes += d.Bytes
	}
	return float64(bytes) * 8 / r.Elapsed.Seconds() / 1e9
}

// FairnessSpread is max/min of SectorsAtFirstExit — 1.0 is perfectly
// fair arbitration for the shared uplink.
func (r DDAllResult) FairnessSpread() float64 {
	if len(r.SectorsAtFirstExit) == 0 {
		return 0
	}
	minS, maxS := r.SectorsAtFirstExit[0], r.SectorsAtFirstExit[0]
	for _, v := range r.SectorsAtFirstExit[1:] {
		if v < minS {
			minS = v
		}
		if v > maxS {
			maxS = v
		}
	}
	if minS == 0 {
		return float64(maxS)
	}
	return float64(maxS) / float64(minS)
}

// RunDDAll boots if necessary, then runs one dd block-read of
// blockBytes on every disk concurrently, each into its own DRAM buffer.
// The per-disk sector counts are snapshotted when the first task exits.
func (s *System) RunDDAll(blockBytes uint64) (DDAllResult, error) {
	if _, err := s.Boot(); err != nil {
		return DDAllResult{}, err
	}
	n := len(s.Disks)
	if n == 0 {
		return DDAllResult{}, fmt.Errorf("topo: no disk in topology %q", s.Spec.Name)
	}
	start := s.Eng.Now()
	results := make([]kernel.DDResult, n)
	errs := make([]error, n)
	tasks := make([]*kernel.Task, n)
	// finished counts task bodies that returned. Each increments it
	// inside the event that marks its Task done, so the stop tests are
	// O(1) per event and stop on the same event a scan of Done would.
	finished := 0
	for i := range s.Disks {
		i := i
		h := s.DiskDriver.HandleFor(s.Disks[i].BDF)
		cfg := s.Cfg.DD
		cfg.BlockBytes = blockBytes
		// Disjoint 64 MiB buffer windows, wrapping inside DRAM.
		cfg.BufAddr = s.Cfg.DD.BufAddr + uint64(i%24)*(64<<20)
		tasks[i] = s.CPU.Spawn(fmt.Sprintf("dd.%s", s.Disks[i].Name), 0, func(t *kernel.Task) {
			results[i], errs[i] = kernel.RunDD(t, h, cfg)
			finished++
		})
	}
	s.Eng.RunWhile(func() bool { return finished == 0 })
	snap := make([]uint64, n)
	for i, d := range s.Disks {
		_, sectors := d.Dev.Stats()
		snap[i] = sectors
	}
	s.Eng.RunWhile(func() bool { return finished < n })
	for i, t := range tasks {
		if !t.Done() {
			return DDAllResult{}, fmt.Errorf("topo: dd task %d wedged", i)
		}
		if errs[i] != nil {
			return DDAllResult{}, fmt.Errorf("topo: dd on %s: %w", s.Disks[i].Name, errs[i])
		}
	}
	return DDAllResult{
		PerDisk:            results,
		SectorsAtFirstExit: snap,
		Elapsed:            s.Eng.Now() - start,
	}, nil
}

// RunP2P boots if necessary, then drives peer-to-peer DMA from the
// first disk into the scratch half of a peer BAR — the first NIC's
// BAR0 if the topology has one, else the first test device's. Whether
// the traffic turns at a shared switch or reflects off the root
// complex depends on the topology and Config.NoP2P; Turnarounds and
// Reflections report which path it took.
func (s *System) RunP2P(commands int, sectorsPerCmd uint32) (kernel.P2PResult, error) {
	if _, err := s.Boot(); err != nil {
		return kernel.P2PResult{}, err
	}
	if len(s.Disks) == 0 {
		return kernel.P2PResult{}, fmt.Errorf("topo: no disk in topology %q", s.Spec.Name)
	}
	if sectorsPerCmd == 0 {
		sectorsPerCmd = 1
	}
	h := s.DiskDriver.HandleFor(s.Disks[0].BDF)
	var barAddr, barSize uint64
	switch {
	case len(s.NICs) > 0:
		nh := s.NICDriver.HandleFor(s.NICs[0].BDF)
		barAddr, barSize = nh.BAR0, nh.Dev.BARs[0].Size
	case len(s.TestDevs) > 0:
		td := s.TestDevs[0]
		barAddr, barSize = td.Dev.BAR0().Addr(), s.Cfg.TestDev.BARSize
	default:
		return kernel.P2PResult{}, fmt.Errorf("topo: no peer endpoint (nic or testdev) in topology %q", s.Spec.Name)
	}
	// Target the upper half of the BAR: register-free scratch space.
	target := barAddr + barSize/2
	if uint64(sectorsPerCmd)*uint64(h.SectorSize) > barSize-barSize/2 {
		return kernel.P2PResult{}, fmt.Errorf("topo: %d sectors/cmd does not fit in the peer BAR's %d-byte scratch half",
			sectorsPerCmd, barSize-barSize/2)
	}
	cfg := kernel.P2PConfig{
		Commands:           commands,
		SectorsPerCmd:      sectorsPerCmd,
		TargetAddr:         target,
		PerCommandOverhead: s.Cfg.DD.PerRequestOverhead,
	}
	var res kernel.P2PResult
	var runErr error
	task := s.CPU.Spawn("p2p", 0, func(t *kernel.Task) {
		res, runErr = kernel.RunP2P(t, h, cfg)
	})
	s.runTask(task)
	if runErr != nil {
		return kernel.P2PResult{}, runErr
	}
	if !task.Done() {
		return kernel.P2PResult{}, fmt.Errorf("topo: p2p task wedged")
	}
	return res, nil
}

// MMIOProbe boots if necessary, then measures n 4-byte reads of the
// first NIC's status register.
func (s *System) MMIOProbe(n int) (kernel.MMIOProbeResult, error) {
	if _, err := s.Boot(); err != nil {
		return kernel.MMIOProbeResult{}, err
	}
	if s.NICDriver.Handle == nil {
		return kernel.MMIOProbeResult{}, fmt.Errorf("topo: no NIC in topology %q", s.Spec.Name)
	}
	var res kernel.MMIOProbeResult
	task := s.CPU.Spawn("mmioprobe", 0, func(t *kernel.Task) {
		res = kernel.MMIOProbe(t, s.NICDriver.Handle.BAR0+devices.NICRegStatus, n)
	})
	s.runTask(task)
	if !task.Done() {
		return kernel.MMIOProbeResult{}, fmt.Errorf("topo: probe task wedged")
	}
	return res, nil
}

// RunNICTx boots if necessary, then transmits frames through the first
// NIC's descriptor ring.
func (s *System) RunNICTx(frames, frameLen int) (kernel.NICTxResult, error) {
	if _, err := s.Boot(); err != nil {
		return kernel.NICTxResult{}, err
	}
	if s.NICDriver.Handle == nil {
		return kernel.NICTxResult{}, fmt.Errorf("topo: no NIC in topology %q", s.Spec.Name)
	}
	cfg := kernel.NICTxConfig{
		RingAddr:         DRAMBase + (160 << 20),
		RingEntries:      64,
		BufAddr:          DRAMBase + (161 << 20),
		FrameLen:         frameLen,
		Frames:           frames,
		PerFrameOverhead: 500 * sim.Nanosecond,
	}
	var res kernel.NICTxResult
	var runErr error
	task := s.CPU.Spawn("nictx", 0, func(t *kernel.Task) {
		res, runErr = s.NICDriver.RunNICTx(t, cfg)
	})
	s.runTask(task)
	if runErr != nil {
		return kernel.NICTxResult{}, runErr
	}
	if !task.Done() {
		return kernel.NICTxResult{}, fmt.Errorf("topo: nictx task wedged")
	}
	return res, nil
}

// ScanAER runs the kernel's AER service handler in task context.
func (s *System) ScanAER() ([]kernel.AERRecord, error) {
	if _, err := s.Boot(); err != nil {
		return nil, err
	}
	var recs []kernel.AERRecord
	task := s.CPU.Spawn("aerscan", 0, func(t *kernel.Task) {
		recs = s.Kernel.HandleAER(t)
	})
	s.runTask(task)
	if !task.Done() {
		return nil, fmt.Errorf("topo: AER scan task wedged")
	}
	return recs, nil
}

// LinkErrorSummary aggregates the error-containment counters of one
// link, combining both directions.
type LinkErrorSummary struct {
	Name     string
	Up, Down pcie.LinkStats
	Retrains uint64
	Dead     bool
}

// LinkErrors reports per-link error and recovery counters for every
// fabric link, in topology (bus) order.
func (s *System) LinkErrors() []LinkErrorSummary {
	out := make([]LinkErrorSummary, 0, len(s.Links))
	for _, li := range s.Links {
		out = append(out, LinkErrorSummary{
			Name:     li.Name,
			Up:       li.Link.Up().Stats(),
			Down:     li.Link.Down().Stats(),
			Retrains: li.Link.Retrains(),
			Dead:     li.Link.Dead(),
		})
	}
	return out
}

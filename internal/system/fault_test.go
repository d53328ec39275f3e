package system

import (
	"reflect"
	"strings"
	"testing"

	"pciesim/internal/fault"
	"pciesim/internal/kernel"
	"pciesim/internal/pci"
	"pciesim/internal/sim"
)

// faultedConfig arms every containment mechanism the way an error
// exploration run would: RC completion timeout, driver command
// watchdog, and device DMA timeout.
func faultedConfig() Config {
	cfg := DefaultConfig()
	cfg.CompletionTimeout = 100 * sim.Microsecond
	cfg.DiskCmdTimeout = 2 * sim.Millisecond
	cfg.DiskDMATimeout = 500 * sim.Microsecond
	return cfg
}

// midDDTick returns an absolute tick shortly after a RunDD's first
// requests start flowing: boot time measured on a throwaway system
// (boot is deterministic), plus dd's fixed startup, plus roughly two
// clean requests' worth of slack.
func midDDTick(t *testing.T) sim.Tick {
	t.Helper()
	s := New(DefaultConfig())
	if _, err := s.Boot(); err != nil {
		t.Fatal(err)
	}
	return s.Eng.Now() + DefaultConfig().DD.StartupOverhead + sim.Millisecond
}

// Deadlock regression (whole platform): a disk link that dies for good
// mid-transfer must leave dd degraded but finished — errored requests
// counted, AER state latched on the device, kernel AER log naming it,
// and the event queue drained rather than a hung Engine.Run.
func TestDeadDiskLinkDegradesNotDeadlocks(t *testing.T) {
	cfg := faultedConfig()
	cfg.DiskLinkFault = &fault.Plan{
		Windows: []fault.Window{{At: midDDTick(t), Duration: 0}}, // permanent
	}
	s := New(cfg)
	res, err := s.RunDD(2 << 20)
	if err != nil {
		t.Fatalf("dd must complete on a dead link, got error: %v", err)
	}
	// Drain whatever the dead link left behind; a livelocked queue
	// fails this test by the go test timeout.
	s.Eng.Run()
	if !s.Eng.Drained() {
		t.Fatal("event queue not drained")
	}
	if !s.DiskLink.Dead() {
		t.Fatal("disk link should be dead")
	}
	if res.Requests != 16 {
		t.Errorf("dd must still attempt all 16 requests, got %d", res.Requests)
	}
	if res.Errors == 0 || res.Errors == res.Requests {
		t.Errorf("want a mix of clean and errored requests, got %d/%d errored",
			res.Errors, res.Requests)
	}

	// AER: the dead link latched surprise-down at the device end.
	diskBDF := s.DiskDriver.Handle.Dev.BDF
	if s.Disk.AER().UncorrectableStatus()&pci.AERUncSurpriseDown == 0 {
		t.Error("disk AER must latch SurpriseDown")
	}
	recs, err := s.ScanAER()
	if err != nil {
		t.Fatalf("AER scan: %v", err)
	}
	var diskRec *kernel.AERRecord
	for i := range recs {
		if recs[i].BDF == diskBDF {
			diskRec = &recs[i]
		}
	}
	if diskRec == nil {
		t.Fatalf("AER log has no record for the disk at %v: %v", diskBDF, recs)
	}
	if diskRec.Uncorrectable&pci.AERUncSurpriseDown == 0 {
		t.Errorf("disk AER record lacks SurpriseDown: %v", diskRec)
	}
	if !strings.Contains(diskRec.String(), "SurpriseDownError") {
		t.Errorf("kernel log line must name the error: %q", diskRec.String())
	}
	// The scan is RW1C: a second scan finds nothing pending.
	recs2, err := s.ScanAER()
	if err != nil {
		t.Fatalf("second AER scan: %v", err)
	}
	for _, r := range recs2 {
		if r.BDF == diskBDF {
			t.Errorf("disk AER status must be clear after the first scan, got %v", r)
		}
	}
}

// A transient link-down window retrains and the workload completes
// clean: the replay protocol resends everything lost in the window.
func TestTransientDiskLinkDownRetrains(t *testing.T) {
	cfg := faultedConfig()
	cfg.DiskLinkFault = &fault.Plan{
		Windows:        []fault.Window{{At: midDDTick(t), Duration: 50 * sim.Microsecond}},
		RetrainLatency: 20 * sim.Microsecond,
	}
	s := New(cfg)
	res, err := s.RunDD(2 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.DiskLink.Retrains(); got != 1 {
		t.Errorf("retrains = %d, want 1", got)
	}
	if s.DiskLink.Dead() {
		t.Error("link must be back up")
	}
	if res.Errors != 0 {
		t.Errorf("%d errored requests; a retrained link must lose nothing", res.Errors)
	}
	if res.Bytes != 2<<20 {
		t.Errorf("moved %d bytes", res.Bytes)
	}
}

// Stochastic corruption on the disk link (TLPs and DLLPs plus drops)
// degrades throughput but never correctness, and the DLLP path shows up
// in the new counters.
func TestStochasticFaultsDegradeNotCorrupt(t *testing.T) {
	clean := New(DefaultConfig())
	cleanRes, err := clean.RunDD(1 << 20)
	if err != nil {
		t.Fatal(err)
	}

	cfg := faultedConfig()
	rates := fault.Rates{TLPCorrupt: 0.02, DLLPCorrupt: 0.02, Drop: 0.01}
	cfg.DiskLinkFault = &fault.Plan{
		Seed: 7,
		Up:   fault.Profile{Rates: rates},
		Down: fault.Profile{Rates: rates},
	}
	s := New(cfg)
	res, err := s.RunDD(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bytes != cleanRes.Bytes || res.Errors != 0 {
		t.Fatalf("corruption must be recovered by replay: %v", res)
	}
	if res.Elapsed <= cleanRes.Elapsed {
		t.Errorf("faulted run (%v) should be slower than clean (%v)", res.Elapsed, cleanRes.Elapsed)
	}
	var sum LinkErrorSummary
	for _, l := range s.LinkErrors() {
		if l.Name == "disklink" {
			sum = l
		}
	}
	if sum.Up.CRCErrors+sum.Down.CRCErrors == 0 {
		t.Error("no TLP CRC errors recorded")
	}
	if sum.Up.BadDLLPs+sum.Down.BadDLLPs == 0 {
		t.Error("no corrupted DLLPs recorded")
	}
	if sum.Up.Dropped+sum.Down.Dropped == 0 {
		t.Error("no wire drops recorded")
	}
	corr, _ := s.Disk.AER().Totals()
	if corr == 0 {
		t.Error("correctable errors must be latched into the disk AER")
	}
}

// Any FaultPlan run twice under a fixed seed produces identical stats,
// tick for tick (the replayability acceptance criterion).
func TestFaultPlanDeterminism(t *testing.T) {
	at := midDDTick(t)
	run := func() (kernel.DDResult, []LinkErrorSummary, uint64) {
		cfg := faultedConfig()
		rates := fault.Rates{TLPCorrupt: 0.05, DLLPCorrupt: 0.05, Drop: 0.02}
		cfg.DiskLinkFault = &fault.Plan{
			Seed: 1234,
			Up:   fault.Profile{Rates: rates},
			Down: fault.Profile{Rates: rates},
			Windows: []fault.Window{
				{At: at, Duration: 30 * sim.Microsecond},
			},
			RetrainLatency: 10 * sim.Microsecond,
		}
		s := New(cfg)
		res, err := s.RunDD(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		return res, s.LinkErrors(), s.Eng.Fired()
	}
	r1, l1, e1 := run()
	r2, l2, e2 := run()
	if r1 != r2 || e1 != e2 || !reflect.DeepEqual(l1, l2) {
		t.Fatalf("faulted run is not deterministic:\n%v / %d\n%v / %d\n%v\n%v",
			r1, e1, r2, e2, l1, l2)
	}
}

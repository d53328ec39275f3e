package pcie

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pciesim/internal/fault"
	"pciesim/internal/sim"
)

// TestDegradeLadderScriptedDowntrains: three forced downtrains walk an
// x4 Gen2 link down its full ladder (x2, x1, x1@Gen1) with no loss,
// and the upgrade retrains climb all the way back once the upgrade
// timers fire.
func TestDegradeLadderScriptedDowntrains(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.Width = 4
	deg := DefaultDegradeConfig()
	deg.UpgradeBackoff = 100 * sim.Microsecond
	deg.MaxUpgradeBackoff = 400 * sim.Microsecond
	cfg.Degrade = &deg
	cfg.Fault = &fault.Plan{Downtrains: []sim.Tick{
		2 * sim.Microsecond,
		52 * sim.Microsecond,
		102 * sim.Microsecond,
	}}
	r := newLinkRig(cfg, 10*sim.Nanosecond, 0)
	// The timer intervals are cached per link; after every downtrain
	// and uptrain they must equal a fresh evaluation at the new
	// Gen/Width.
	var timerChecks int
	r.link.SetNotify(func(n LinkNotice) {
		if n != NoticeRetrained {
			return
		}
		l := r.link
		g, w, c := l.CurrentGen(), l.CurrentWidth(), l.Config()
		if got, want := l.ReplayTimeout(), ReplayTimeout(g, w, c.MaxPayload, c.Overheads); got != want {
			t.Errorf("%v x%d: cached ReplayTimeout %v, fresh %v", g, w, got, want)
		}
		if got, want := l.AckPeriod(), AckPeriodClamped(g, w, c.MaxPayload, c.Overheads); got != want {
			t.Errorf("%v x%d: cached AckPeriod %v, fresh %v", g, w, got, want)
		}
		timerChecks++
	})
	const n = 60
	for i := 0; i < n; i++ {
		r.req.Write(uint64(i)*64, 64)
	}
	r.eng.Run()
	checkExactlyOnce(t, r, n)
	if timerChecks != 6 {
		t.Errorf("checked the timers after %d retrains, want 6", timerChecks)
	}
	if got := r.link.Downtrains(); got != 3 {
		t.Errorf("downtrains = %d, want 3", got)
	}
	// Draining the engine runs the upgrade ladder to completion.
	if got := r.link.Uptrains(); got != 3 {
		t.Errorf("uptrains = %d, want 3", got)
	}
	if lv := r.link.DegradeLevel(); lv != 0 {
		t.Errorf("final level = %d, want 0", lv)
	}
	if g, w := r.link.CurrentGen(), r.link.CurrentWidth(); g != cfg.Gen || w != 4 {
		t.Errorf("final link %v x%d, want %v x4", g, w, cfg.Gen)
	}
	if !r.eng.Drained() {
		t.Error("event queue not drained")
	}
}

// TestDegradeFloorHoldsUnderForcedDowntrains: downtrains beyond the
// ladder floor are no-ops — the link parks at MinWidth/MinGen instead
// of wrapping or panicking.
func TestDegradeFloorHoldsUnderForcedDowntrains(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.Width = 2 // ladder: x2 -> x1 -> x1@Gen1
	deg := DefaultDegradeConfig()
	deg.UpgradeBackoff = 50 * sim.Millisecond // park past the run
	deg.MaxUpgradeBackoff = deg.UpgradeBackoff
	cfg.Degrade = &deg
	downs := make([]sim.Tick, 6)
	for i := range downs {
		downs[i] = sim.Tick(i+1) * 50 * sim.Microsecond
	}
	cfg.Fault = &fault.Plan{Downtrains: downs}
	r := newLinkRig(cfg, 10*sim.Nanosecond, 0)
	const n = 40
	for i := 0; i < n; i++ {
		r.req.Write(uint64(i)*64, 64)
	}
	// Stop after the last forced downtrain but before the parked
	// upgrade timer: the link must sit exactly at the floor.
	r.eng.RunWhile(func() bool { return r.eng.Now() < 350*sim.Microsecond })
	if g, w := r.link.CurrentGen(), r.link.CurrentWidth(); g != Gen1 || w != 1 {
		t.Errorf("floor is %v x%d, want Gen1 x1", g, w)
	}
	if got := r.link.Downtrains(); got != 2 {
		t.Errorf("downtrains = %d, want 2 (floor reached)", got)
	}
	r.eng.Run()
	checkExactlyOnce(t, r, n)
	if lv := r.link.DegradeLevel(); lv != 0 {
		t.Errorf("drained level = %d, want 0 (upgrade ladder completes)", lv)
	}
}

// TestDegradeAutoDowntrainOnErrors: sustained stochastic corruption
// fills the error window and the link downtrains by itself — the
// adaptive policy, not a script.
func TestDegradeAutoDowntrainOnErrors(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.Width = 2
	cfg.ReplayBufferSize = 4
	deg := DefaultDegradeConfig()
	deg.Threshold = 4
	deg.UpgradeBackoff = 50 * sim.Millisecond // hold the degraded level
	deg.MaxUpgradeBackoff = deg.UpgradeBackoff
	cfg.Degrade = &deg
	cfg.Fault = &fault.Plan{
		Seed: 7,
		Up:   fault.Profile{Rates: fault.Rates{TLPCorrupt: 0.2}},
		Down: fault.Profile{Rates: fault.Rates{TLPCorrupt: 0.2}},
	}
	r := newLinkRig(cfg, 10*sim.Nanosecond, 0)
	const n = 80
	for i := 0; i < n; i++ {
		r.req.Write(uint64(i)*64, 64)
	}
	r.eng.Run()
	checkExactlyOnce(t, r, n)
	if r.link.Downtrains() == 0 {
		t.Error("sustained corruption never downtrained the link")
	}
}

// Satellite regression (DL_Down rule): the FC InitFC1/InitFC2
// handshake re-runs from scratch after every link down — both the
// fault-window retrain and the degradation retrain — and the credit
// pools come back exact.
func TestFCReinitAfterRetrain(t *testing.T) {
	cases := []struct {
		name string
		plan *fault.Plan
	}{
		{"window", &fault.Plan{
			Windows:        []fault.Window{{At: 3 * sim.Microsecond, Duration: 2 * sim.Microsecond}},
			RetrainLatency: sim.Microsecond,
		}},
		{"degrade", &fault.Plan{
			Downtrains: []sim.Tick{3 * sim.Microsecond},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultLinkConfig()
			cfg.Width = 2
			cfg.Credits = UniformCredits(4)
			cfg.Fault = c.plan
			if c.name == "degrade" {
				deg := DefaultDegradeConfig()
				deg.UpgradeBackoff = 50 * sim.Millisecond
				deg.MaxUpgradeBackoff = deg.UpgradeBackoff
				cfg.Degrade = &deg
			}
			r := newLinkRig(cfg, 10*sim.Nanosecond, 0)
			const n = 40
			for i := 0; i < n; i++ {
				r.req.Write(uint64(i)*64, 64)
			}
			r.eng.Run()
			checkExactlyOnce(t, r, n)
			if got := r.link.Retrains(); got < 1 {
				t.Fatalf("retrains = %d, want >= 1", got)
			}
			// One handshake sends InitFC1+InitFC2 per class (>= 6 DLLPs
			// per side); a retrain re-runs it, doubling the floor.
			up, down := r.link.Up().Stats(), r.link.Down().Stats()
			if up.InitFCTx < 12 || down.InitFCTx < 12 {
				t.Errorf("InitFC tx up=%d down=%d, want >= 12 each after a retrain",
					up.InitFCTx, down.InitFCTx)
			}
			assertFCDrained(t, r.link)
		})
	}
}

// Property (satellite): credit accounting stays exact across any mix
// of retrain cycles — fault windows and forced degradation retrains at
// random widths and credit pools. After the run every pool must drain
// back to the full advertisement and delivery is exactly-once.
func TestFCCreditAccountingAcrossRetrainsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r, n := retrainPropertyRig(seed)
		r.eng.Run()
		if len(r.resp.Received) != n || len(r.req.Completions) != n {
			return false
		}
		for i, p := range r.resp.Received {
			if p.Addr != uint64(i)*64 {
				return false
			}
		}
		ok := r.eng.Drained()
		for _, iface := range []*Interface{r.link.Up(), r.link.Down()} {
			for cl, s := range iface.FCSnapshots() {
				if s.HeldHdr != 0 || s.HeldData != 0 {
					t.Logf("seed %d: %v holds %d/%d after drain", seed, FCClass(cl), s.HeldHdr, s.HeldData)
					ok = false
				}
				if s.ConsumedHdr > s.LimitHdr || s.ConsumedData > s.LimitData {
					t.Logf("seed %d: %v consumed %d/%d beyond limit %d/%d",
						seed, FCClass(cl), s.ConsumedHdr, s.ConsumedData, s.LimitHdr, s.LimitData)
					ok = false
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// retrainPropertyRig builds a random FC link through several retrain
// cycles — forced downtrains and fault windows, with upgrade retrains
// on backoff — with n writes queued.
func retrainPropertyRig(seed int64) (*linkRig, int) {
	rng := rand.New(rand.NewSource(seed))
	cfg := DefaultLinkConfig()
	cfg.Width = []int{1, 2, 4, 8}[rng.Intn(4)]
	cfg.ReplayBufferSize = 1 + rng.Intn(6)
	cfg.Credits = UniformCredits(1 + rng.Intn(5))
	deg := DefaultDegradeConfig()
	deg.UpgradeBackoff = sim.Tick(50+rng.Intn(200)) * sim.Microsecond
	deg.MaxUpgradeBackoff = deg.UpgradeBackoff * 4
	cfg.Degrade = &deg
	plan := &fault.Plan{Seed: uint64(seed)*2 + 1}
	cycles := 1 + rng.Intn(4)
	at := sim.Tick(2+rng.Intn(5)) * sim.Microsecond
	for c := 0; c < cycles; c++ {
		if rng.Intn(2) == 0 {
			plan.Downtrains = append(plan.Downtrains, at)
		} else {
			plan.Windows = append(plan.Windows, fault.Window{
				At: at, Duration: sim.Tick(1+rng.Intn(4)) * sim.Microsecond,
			})
		}
		at += sim.Tick(30+rng.Intn(60)) * sim.Microsecond
	}
	plan.RetrainLatency = sim.Tick(1+rng.Intn(3)) * sim.Microsecond
	cfg.Fault = plan
	r := newLinkRig(cfg, sim.Tick(rng.Intn(200))*sim.Nanosecond, 0)
	r.resp.RefuseRequests = rng.Intn(10)
	return r, r.queueWrites(20 + rng.Intn(40))
}

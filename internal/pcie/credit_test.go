package pcie

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pciesim/internal/fault"
	"pciesim/internal/mem"
	"pciesim/internal/sim"
)

func TestParseCredits(t *testing.T) {
	cases := []struct {
		in   string
		want CreditConfig
	}{
		{"", CreditConfig{}},
		{"inf", CreditConfig{}},
		{"infinite", CreditConfig{}},
		{"0", CreditConfig{}},
		{"8", UniformCredits(8)},
		{" 16 ", UniformCredits(16)},
		{"ch=4", CreditConfig{CplHdr: 4}},
		{"ph=8, nh=8, ch=2, cd=8", CreditConfig{PostedHdr: 8, NonPostedHdr: 8, CplHdr: 2, CplData: 8}},
	}
	for _, c := range cases {
		got, err := ParseCredits(c.in)
		if err != nil {
			t.Errorf("ParseCredits(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseCredits(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"-1", "x", "ph", "ph=", "ph=x", "zz=3", "ph=-2", "2000000"} {
		if _, err := ParseCredits(bad); err == nil {
			t.Errorf("ParseCredits(%q) accepted", bad)
		}
	}
}

func TestCreditConfigString(t *testing.T) {
	if got := (CreditConfig{}).String(); got != "infinite" {
		t.Errorf("zero config = %q", got)
	}
	if got := UniformCredits(8).String(); got != "8" {
		t.Errorf("uniform = %q", got)
	}
	if got := (CreditConfig{CplHdr: 4}).String(); got != "ph=0,pd=0,nh=0,nd=0,ch=4,cd=0" {
		t.Errorf("mixed = %q", got)
	}
}

func TestMinCredits(t *testing.T) {
	a := CreditConfig{PostedHdr: 8, CplHdr: 2}
	b := CreditConfig{PostedHdr: 4, NonPostedHdr: 16}
	got := MinCredits(a, b)
	want := CreditConfig{PostedHdr: 4, NonPostedHdr: 16, CplHdr: 2}
	if got != want {
		t.Errorf("MinCredits = %+v, want %+v", got, want)
	}
}

// TestFCHandshakeAndDelivery: a finite-credit link completes the
// InitFC handshake, carries ordinary traffic to completion, and
// returns credits with UpdateFC as the receiver drains.
func TestFCHandshakeAndDelivery(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.Credits = UniformCredits(4)
	r := newLinkRig(cfg, 10*sim.Nanosecond, 0)
	const n = 30
	for i := 0; i < n; i++ {
		r.req.Write(uint64(i)*64, 64)
	}
	r.eng.Run()
	if len(r.req.Completions) != n {
		t.Fatalf("%d completions, want %d", len(r.req.Completions), n)
	}
	for i, p := range r.resp.Received {
		if p.Addr != uint64(i)*64 {
			t.Fatalf("delivery order broken at %d", i)
		}
	}
	up, down := r.link.Up().Stats(), r.link.Down().Stats()
	// Both sides volley InitFC1 (one per class) and confirm with InitFC2.
	if up.InitFCTx < 6 || down.InitFCTx < 6 {
		t.Errorf("InitFC tx up=%d down=%d, want >= 6 each", up.InitFCTx, down.InitFCTx)
	}
	if up.InitFCRx == 0 || down.InitFCRx == 0 {
		t.Errorf("InitFC rx up=%d down=%d, want > 0", up.InitFCRx, down.InitFCRx)
	}
	// The receiver of the request stream must have returned credits.
	if down.UpdateFCTx == 0 || up.UpdateFCRx == 0 {
		t.Errorf("UpdateFC tx(down)=%d rx(up)=%d, want > 0", down.UpdateFCTx, up.UpdateFCRx)
	}
	assertFCDrained(t, r.link)
}

// assertFCDrained checks the post-run credit invariants on both
// interfaces: nothing held at the receiver, and the transmitter's
// available credit restored to the peer's full advertisement.
func assertFCDrained(t *testing.T, l *Link) {
	t.Helper()
	sides := []struct {
		name     string
		tx, peer *Interface
	}{{"up", l.Up(), l.Down()}, {"down", l.Down(), l.Up()}}
	for _, s := range sides {
		txSnap, peerSnap := s.tx.FCSnapshots(), s.peer.FCSnapshots()
		for cl := FCClass(0); cl < fcNumClasses; cl++ {
			ps := peerSnap[cl]
			if ps.HeldHdr != 0 || ps.HeldData != 0 {
				t.Errorf("%s peer class %v: held %d/%d after drain", s.name, cl, ps.HeldHdr, ps.HeldData)
			}
			ts := txSnap[cl]
			if ts.ConsumedHdr > ts.LimitHdr || (ps.AdvertData > 0 && ts.ConsumedData > ts.LimitData) {
				t.Errorf("%s class %v: consumed %d/%d beyond limit %d/%d",
					s.name, cl, ts.ConsumedHdr, ts.ConsumedData, ts.LimitHdr, ts.LimitData)
			}
			if ps.AdvertHdr > 0 && ts.LimitHdr-ts.ConsumedHdr != ps.AdvertHdr {
				t.Errorf("%s class %v: available hdr credit %d, want full pool %d",
					s.name, cl, ts.LimitHdr-ts.ConsumedHdr, ps.AdvertHdr)
			}
			if ps.AdvertData > 0 && ts.LimitData-ts.ConsumedData != ps.AdvertData {
				t.Errorf("%s class %v: available data credit %d, want full pool %d",
					s.name, cl, ts.LimitData-ts.ConsumedData, ps.AdvertData)
			}
		}
	}
}

// TestFCSingleCreditThrottles: one header credit per class still moves
// every TLP — strictly serialized by UpdateFC returns — and the
// starvation shows up in the stall counters.
func TestFCSingleCreditThrottles(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.Credits = CreditConfig{PostedHdr: 1, NonPostedHdr: 1, CplHdr: 1}
	r := newLinkRig(cfg, 5*sim.Nanosecond, 0)
	const n = 20
	for i := 0; i < n; i++ {
		r.req.Read(uint64(i)*64, 8)
	}
	r.eng.Run()
	if len(r.req.Completions) != n {
		t.Fatalf("%d completions, want %d with 1 credit/class", len(r.req.Completions), n)
	}
	up := r.link.Up().Stats()
	if up.FCStalls(FCNonPosted) == 0 {
		t.Errorf("no non-posted stalls with a single NP credit: %+v", up)
	}
	assertFCDrained(t, r.link)
}

// TestFCLegacyInfiniteCredits: the zero CreditConfig must not grow any
// FC state — the legacy path stays byte-identical (golden dumps
// enforce the registry half of this).
func TestFCLegacyInfiniteCredits(t *testing.T) {
	r := newLinkRig(DefaultLinkConfig(), 0, 0)
	r.req.Write(0x1000, 64)
	r.eng.Run()
	if snaps := r.link.Up().FCSnapshots(); snaps != nil {
		t.Errorf("legacy link has FC state: %+v", snaps)
	}
	up := r.link.Up().Stats()
	if up.InitFCTx != 0 || up.UpdateFCTx != 0 {
		t.Errorf("legacy link sent FC DLLPs: %+v", up)
	}
	// AdvertiseCredits on a legacy link is a documented no-op.
	r.link.Down().AdvertiseCredits(UniformCredits(2))
	if r.link.Down().FCSnapshots() != nil {
		t.Error("AdvertiseCredits grew FC state on a legacy link")
	}
}

// Property: for any finite credit configuration, device refusal
// pattern, replay buffer size, and corruption, every request is
// delivered exactly once, in order, and the credit accounting drains
// back to the full advertised pool.
func TestFCCreditAccountingProperty(t *testing.T) {
	f := func(seed int64) bool {
		r, n := creditPropertyRig(seed)
		r.eng.Run()
		if len(r.resp.Received) != n || len(r.req.Completions) != n {
			return false
		}
		for i, p := range r.resp.Received {
			if p.Addr != uint64(i)*64 {
				return false
			}
		}
		ok := true
		for _, iface := range []*Interface{r.link.Up(), r.link.Down()} {
			for cl, s := range iface.FCSnapshots() {
				if s.HeldHdr != 0 || s.HeldData != 0 {
					t.Logf("seed %d: %v holds %d/%d after drain", seed, FCClass(cl), s.HeldHdr, s.HeldData)
					ok = false
				}
				if s.ConsumedHdr > s.LimitHdr {
					t.Logf("seed %d: %v consumed %d beyond limit %d", seed, FCClass(cl), s.ConsumedHdr, s.LimitHdr)
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

// creditPropertyRig builds a random credit-starved link — tiny or
// lopsided credit pools, optional corruption, device refusals — with n
// writes queued.
func creditPropertyRig(seed int64) (*linkRig, int) {
	rng := rand.New(rand.NewSource(seed))
	cfg := DefaultLinkConfig()
	cfg.ReplayBufferSize = 1 + rng.Intn(6)
	cfg.Credits = UniformCredits(1 + rng.Intn(5))
	if rng.Intn(3) == 0 {
		// Non-uniform: pinch a single class.
		cfg.Credits = CreditConfig{
			PostedHdr:    1 + rng.Intn(3),
			NonPostedHdr: 1 + rng.Intn(3),
			CplHdr:       1 + rng.Intn(3),
		}
	}
	if rng.Intn(2) == 0 {
		cfg.Fault = fault.CorruptionPlan(0.1)
		cfg.Seed = uint64(seed)
	}
	r := newLinkRig(cfg, sim.Tick(rng.Intn(200))*sim.Nanosecond, 0)
	r.resp.RefuseRequests = rng.Intn(20)
	return r, r.queueWrites(20 + rng.Intn(40))
}

// TestFCUpdateFCDropRecovery: a scripted drop of the first UpdateFC
// must not wedge the link — the bounded refresh timer re-advertises
// the cumulative grant and traffic completes.
func TestFCUpdateFCDropRecovery(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.Credits = CreditConfig{PostedHdr: 1, NonPostedHdr: 1, CplHdr: 1}
	// Requests flow up->down; the receiver's credit returns are
	// transmitted by the down interface, so the drop goes on Down.
	cfg.Fault = &fault.Plan{
		Down: fault.Profile{Script: []fault.Event{
			{At: 0, Op: fault.OpDropUpdateFC},
			{At: 0, Op: fault.OpDropUpdateFC},
		}},
	}
	r := newLinkRig(cfg, 5*sim.Nanosecond, 0)
	const n = 8
	for i := 0; i < n; i++ {
		r.req.Write(uint64(i)*64, 64)
	}
	r.eng.Run()
	if len(r.req.Completions) != n {
		t.Fatalf("%d completions, want %d after UpdateFC drops", len(r.req.Completions), n)
	}
	down := r.link.Down().Stats()
	if down.UpdateFCDropped != 2 {
		t.Errorf("UpdateFCDropped = %d, want 2", down.UpdateFCDropped)
	}
	if down.UpdateFCTx <= 2 {
		t.Errorf("no refresh retransmissions: UpdateFCTx = %d", down.UpdateFCTx)
	}
}

// TestFCStarvationWindow: an OpStarveFC window swallows every UpdateFC
// while open; the link recovers once it closes.
func TestFCStarvationWindow(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.Credits = CreditConfig{PostedHdr: 2, NonPostedHdr: 2, CplHdr: 2}
	cfg.Fault = &fault.Plan{
		Down: fault.Profile{Script: []fault.Event{
			{At: 0, Op: fault.OpStarveFC, Duration: 3 * sim.Microsecond},
		}},
	}
	r := newLinkRig(cfg, 5*sim.Nanosecond, 0)
	const n = 16
	for i := 0; i < n; i++ {
		r.req.Write(uint64(i)*64, 64)
	}
	r.eng.Run()
	if len(r.req.Completions) != n {
		t.Fatalf("%d completions, want %d after starvation window", len(r.req.Completions), n)
	}
	down := r.link.Down().Stats()
	if down.UpdateFCDropped == 0 {
		t.Error("starvation window swallowed no UpdateFC")
	}
	up := r.link.Up().Stats()
	if up.FCStalls(FCPosted) == 0 && up.FCStalls(FCNonPosted) == 0 {
		t.Errorf("no stalls recorded across the starvation window: %+v", up)
	}
}

// TestFCClassOf pins the TLP classification rule.
func TestFCClassOf(t *testing.T) {
	posted := mem.NewPacket(mem.WriteReq, 0, 64)
	posted.Posted = true
	nonposted := mem.NewPacket(mem.ReadReq, 0, 64)
	cpl := mem.NewPacket(mem.ReadReq, 0, 64)
	cpl.MakeResponse()
	if FCClassOf(posted) != FCPosted {
		t.Error("posted write must classify P")
	}
	if FCClassOf(nonposted) != FCNonPosted {
		t.Error("read request must classify NP")
	}
	if FCClassOf(cpl) != FCCpl {
		t.Error("completion must classify Cpl")
	}
}

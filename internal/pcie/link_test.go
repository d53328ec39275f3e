package pcie

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pciesim/internal/fault"
	"pciesim/internal/mem"
	"pciesim/internal/sim"
	"pciesim/internal/testdev"
)

func TestGenerationParameters(t *testing.T) {
	if Gen1.SymbolTime() != 4*sim.Nanosecond || Gen2.SymbolTime() != 2*sim.Nanosecond {
		t.Error("Gen1/Gen2 symbol times must be 4ns/2ns")
	}
	if got := Gen3.SymbolTime(); got != 1015 {
		t.Errorf("Gen3 symbol time = %v ps, want 1015 (1.015625ns truncated)", uint64(got))
	}
	if n, d := Gen2.EncodingOverhead(); n != 10 || d != 8 {
		t.Error("Gen2 encoding must be 8b/10b")
	}
	if n, d := Gen3.EncodingOverhead(); n != 130 || d != 128 {
		t.Error("Gen3 encoding must be 128b/130b")
	}
	if got := EffectiveGbps(Gen2, 1); got != 4.0 {
		t.Errorf("Gen2 x1 effective bandwidth = %v Gbps, want 4.0 (the paper's p3700 limit)", got)
	}
	if got := EffectiveGbps(Gen2, 4); got != 16.0 {
		t.Errorf("Gen2 x4 = %v Gbps", got)
	}
	if got := EffectiveGbps(Gen3, 1); got < 7.8 || got > 7.9 {
		t.Errorf("Gen3 x1 = %v Gbps, want ~7.88", got)
	}
}

func TestTableIOverheads(t *testing.T) {
	o := DefaultOverheads()
	// Table I: 12B TLP header, 2B sequence number, 4B link CRC, 2B
	// framing symbols.
	if o.TLPHeader != 12 || o.SeqNum != 2 || o.LCRC != 4 || o.Framing != 2 {
		t.Fatalf("Table I overheads wrong: %+v", o)
	}
	if got := o.TLPWireBytes(64); got != 84 {
		t.Errorf("64B-payload TLP = %d wire bytes, want 84", got)
	}
	if got := o.TLPWireBytes(0); got != 20 {
		t.Errorf("headerless TLP = %d wire bytes, want 20", got)
	}
	if got := o.DLLPWireBytes(); got != 8 {
		t.Errorf("DLLP = %d wire bytes, want 8", got)
	}
}

func TestPciePktPayloadRules(t *testing.T) {
	// §V-C: payload is 0 for read requests and write responses, Size
	// for write requests and read responses.
	w := &PciePkt{Kind: KindTLP, TLP: mem.NewPacket(mem.WriteReq, 0, 64)}
	if w.PayloadBytes() != 64 {
		t.Error("write request must carry its payload")
	}
	r := &PciePkt{Kind: KindTLP, TLP: mem.NewPacket(mem.ReadReq, 0, 64)}
	if r.PayloadBytes() != 0 {
		t.Error("read request carries no payload")
	}
	rr := &PciePkt{Kind: KindTLP, TLP: mem.NewPacket(mem.ReadReq, 0, 64).MakeResponse()}
	if rr.PayloadBytes() != 64 {
		t.Error("read response carries the data")
	}
	wr := &PciePkt{Kind: KindTLP, TLP: mem.NewPacket(mem.WriteReq, 0, 64).MakeResponse()}
	if wr.PayloadBytes() != 0 {
		t.Error("write response carries no payload")
	}
	ack := &PciePkt{Kind: KindAck}
	if ack.WireBytes(DefaultOverheads()) != 8 {
		t.Error("ACK DLLP wire size")
	}
}

func TestWireTimeMath(t *testing.T) {
	// 84 wire bytes on Gen2 x1: 84 symbols * 2ns = 168ns.
	if got := WireTime(Gen2, 1, 84); got != 168*sim.Nanosecond {
		t.Errorf("Gen2 x1 84B = %v, want 168ns", got)
	}
	// Same on x4: 42ns.
	if got := WireTime(Gen2, 4, 84); got != 42*sim.Nanosecond {
		t.Errorf("Gen2 x4 84B = %v, want 42ns", got)
	}
	// Gen1 doubles Gen2.
	if got := WireTime(Gen1, 1, 84); got != 336*sim.Nanosecond {
		t.Errorf("Gen1 x1 84B = %v, want 336ns", got)
	}
	// Ceil division: 1 byte on x32 Gen2 is 2000/32 = 62.5 -> 63 ps.
	if got := WireTime(Gen2, 32, 1); got != 63 {
		t.Errorf("rounding: got %v ps, want 63", uint64(got))
	}
}

func TestReplayTimeoutFormula(t *testing.T) {
	o := DefaultOverheads()
	// ((64+20)/8 * 2.5) * 3 = 78.75 symbols; Gen2 symbol = 2ns -> 157.5ns.
	if got := ReplayTimeout(Gen2, 8, 64, o); got != sim.Tick(157500) {
		t.Errorf("Gen2 x8 timeout = %v, want 157.5ns", got)
	}
	// ((64+20)/1 * 1.4) * 3 = 352.8 symbols -> 705.6ns.
	if got := ReplayTimeout(Gen2, 1, 64, o); got != sim.Tick(705600) {
		t.Errorf("Gen2 x1 timeout = %v, want 705.6ns", got)
	}
	// The x8 timeout is tighter than x4's: the width is in the
	// denominator (the seed of the Fig 9(b) collapse).
	if ReplayTimeout(Gen2, 8, 64, o) >= ReplayTimeout(Gen2, 4, 64, o) {
		t.Error("x8 timeout must be shorter than x4")
	}
	// ACK timer is a third of the replay timeout.
	if got, want := AckTimerPeriod(Gen2, 8, 64, o), ReplayTimeout(Gen2, 8, 64, o)/3; got != want {
		t.Errorf("ack period = %v, want %v", got, want)
	}
}

func TestAckFactorShape(t *testing.T) {
	if AckFactor(64, 1) != 1.4 || AckFactor(64, 2) != 1.4 {
		t.Error("narrow links use 1.4")
	}
	if AckFactor(64, 8) != 2.5 {
		t.Error("x8 at small payload uses 2.5")
	}
	if AckFactor(4096, 16) != 3.0 {
		t.Error("wide links saturate at 3.0")
	}
	if AckFactor(256, 4) != 2.5 {
		t.Error("x4 grows with payload")
	}
}

// linkRig wires requester -> link.up ... link.down -> responder, the
// CPU-to-device (downstream request) direction.
type linkRig struct {
	eng  *sim.Engine
	link *Link
	req  *testdev.Requester
	resp *testdev.Responder
}

func newLinkRig(cfg LinkConfig, respLatency sim.Tick, respDepth int) *linkRig {
	eng := sim.NewEngine()
	l := NewLink(eng, "link", cfg)
	req := testdev.NewRequester(eng, "rc")
	resp := testdev.NewResponder(eng, "dev", nil, respLatency, respDepth)
	mem.Connect(req.Port(), l.Up().SlavePort())
	mem.Connect(l.Down().MasterPort(), resp.Port())
	return &linkRig{eng, l, req, resp}
}

// queueWrites queues n line writes at consecutive addresses and
// returns n.
func (r *linkRig) queueWrites(n int) int {
	for i := 0; i < n; i++ {
		r.req.Write(uint64(i)*64, 64)
	}
	return n
}

func TestLinkRoundTripLatency(t *testing.T) {
	cfg := DefaultLinkConfig() // Gen2 x1, 1ns prop
	r := newLinkRig(cfg, 0, 0)
	r.req.Read(0x1000, 64)
	r.eng.Run()
	// Read request: 20 wire bytes = 40ns + 1ns prop; response carries
	// 64B payload: 84 bytes = 168ns + 1ns prop. Device latency 0.
	want := 40*sim.Nanosecond + 1*sim.Nanosecond + 168*sim.Nanosecond + 1*sim.Nanosecond
	if got := r.req.Completions[0].Latency(); got != want {
		t.Errorf("round trip = %v, want %v", got, want)
	}
}

func TestLinkWidthScalesTransferTime(t *testing.T) {
	lat := map[int]sim.Tick{}
	for _, w := range []int{1, 2, 4, 8} {
		cfg := DefaultLinkConfig()
		cfg.Width = w
		cfg.PropDelay = 0
		r := newLinkRig(cfg, 0, 0)
		r.req.Read(0x1000, 64)
		r.eng.Run()
		lat[w] = r.req.Completions[0].Latency()
	}
	if lat[1] != 2*lat[2] || lat[2] != 2*lat[4] || lat[4] != 2*lat[8] {
		t.Errorf("latencies %v must halve with each doubling of width", lat)
	}
}

func TestLinkDeliversInOrderExactlyOnce(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.ReplayBufferSize = 4
	r := newLinkRig(cfg, 10*sim.Nanosecond, 0)
	const n = 50
	for i := 0; i < n; i++ {
		r.req.Write(uint64(i)*64, 64)
	}
	r.eng.Run()
	if len(r.resp.Received) != n {
		t.Fatalf("device received %d packets, want %d", len(r.resp.Received), n)
	}
	for i, p := range r.resp.Received {
		if p.Addr != uint64(i)*64 {
			t.Fatalf("packet %d out of order: addr %#x", i, p.Addr)
		}
	}
	if len(r.req.Completions) != n {
		t.Fatalf("%d completions, want %d", len(r.req.Completions), n)
	}
}

func TestLinkReplayBufferThrottles(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.ReplayBufferSize = 2
	// Device refuses everything for a long time: replay buffer fills at
	// 2 and the interface must refuse further sends.
	r := newLinkRig(cfg, 0, 0)
	r.resp.RefuseRequests = 1 << 30
	for i := 0; i < 6; i++ {
		r.req.Write(uint64(i)*64, 64)
	}
	r.eng.RunUntil(3 * sim.Microsecond)
	up := r.link.Up().Stats()
	if up.TLPsAccepted != 2 {
		t.Errorf("accepted %d TLPs with replay buffer 2, want 2", up.TLPsAccepted)
	}
	if up.Throttled == 0 {
		t.Error("expected throttled sends")
	}
	if up.Timeouts == 0 {
		t.Error("expected replay timeouts while the device refuses")
	}
}

func TestLinkRecoversAfterRefusals(t *testing.T) {
	cfg := DefaultLinkConfig()
	r := newLinkRig(cfg, 5*sim.Nanosecond, 0)
	r.resp.RefuseRequests = 7 // refuse the first 7 delivery attempts
	const n = 12
	for i := 0; i < n; i++ {
		r.req.Write(uint64(i)*64, 64)
	}
	r.eng.Run()
	if len(r.req.Completions) != n {
		t.Fatalf("%d completions, want %d: the timeout/replay path must recover", len(r.req.Completions), n)
	}
	up := r.link.Up().Stats()
	if up.ReplaysTx == 0 || up.Timeouts == 0 {
		t.Errorf("expected replays and timeouts, got %+v", up)
	}
	// Exactly-once: the device must have seen each address once.
	seen := map[uint64]int{}
	for _, p := range r.resp.Received {
		seen[p.Addr]++
	}
	for a, c := range seen {
		if c != 1 {
			t.Errorf("addr %#x delivered %d times", a, c)
		}
	}
}

func TestLinkAcksAreBatched(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.ReplayBufferSize = 16
	r := newLinkRig(cfg, 0, 0)
	const n = 32
	for i := 0; i < n; i++ {
		r.req.Write(uint64(i)*64, 64)
	}
	r.eng.Run()
	down := r.link.Down().Stats()
	if down.AcksTx == 0 {
		t.Fatal("no ACKs sent")
	}
	if down.AcksTx >= n {
		t.Errorf("%d ACKs for %d TLPs; the ACK timer must batch them", down.AcksTx, n)
	}
	up := r.link.Up().Stats()
	if up.AcksRx != down.AcksTx {
		t.Errorf("acks rx %d != tx %d", up.AcksRx, down.AcksTx)
	}
	if up.Timeouts != 0 {
		t.Errorf("%d spurious timeouts in a clean run", up.Timeouts)
	}
}

func TestLinkErrorInjectionNakRecovery(t *testing.T) {
	cfg := DefaultLinkConfig()
	cfg.Fault = fault.CorruptionPlan(0.2)
	cfg.Seed = 42
	r := newLinkRig(cfg, 5*sim.Nanosecond, 0)
	const n = 100
	for i := 0; i < n; i++ {
		r.req.Write(uint64(i)*64, 64)
	}
	r.eng.Run()
	if len(r.req.Completions) != n {
		t.Fatalf("%d completions, want %d despite 20%% corruption", len(r.req.Completions), n)
	}
	for i, p := range r.resp.Received {
		if p.Addr != uint64(i)*64 {
			t.Fatalf("delivery order broken at %d under corruption", i)
		}
	}
	down := r.link.Down().Stats()
	if down.CRCErrors == 0 || down.NaksTx == 0 {
		t.Errorf("expected CRC errors and NAKs: %+v", down)
	}
	up := r.link.Up().Stats()
	if up.NaksRx != down.NaksTx {
		t.Errorf("nak rx/tx mismatch: %d/%d", up.NaksRx, down.NaksTx)
	}
}

func TestLinkDMADirection(t *testing.T) {
	// Device-initiated traffic flows the other way: device DMA master
	// into down.SlavePort, RC completer off up.MasterPort.
	eng := sim.NewEngine()
	l := NewLink(eng, "link", DefaultLinkConfig())
	dev := testdev.NewRequester(eng, "devdma")
	rc := testdev.NewResponder(eng, "rc", nil, 20*sim.Nanosecond, 0)
	mem.Connect(dev.Port(), l.Down().SlavePort())
	mem.Connect(l.Up().MasterPort(), rc.Port())
	const n = 16
	for i := 0; i < n; i++ {
		dev.Write(0x8000_0000+uint64(i)*64, 64)
	}
	eng.Run()
	if len(dev.Completions) != n {
		t.Fatalf("%d DMA completions, want %d", len(dev.Completions), n)
	}
	down := l.Down().Stats()
	if down.TLPsAccepted != n {
		t.Errorf("down interface accepted %d", down.TLPsAccepted)
	}
}

func TestLinkStatsRates(t *testing.T) {
	s := LinkStats{TLPsTx: 100, ReplaysTx: 27, TLPsAccepted: 73, Timeouts: 20}
	if s.ReplayRate() != 0.27 {
		t.Errorf("replay rate = %v", s.ReplayRate())
	}
	if got := s.TimeoutRate(); got < 0.27 || got > 0.28 {
		t.Errorf("timeout rate = %v", got)
	}
	var zero LinkStats
	if zero.ReplayRate() != 0 || zero.TimeoutRate() != 0 {
		t.Error("zero stats must not divide by zero")
	}
}

func TestLinkWidthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("width 33 should panic")
		}
	}()
	NewLink(sim.NewEngine(), "bad", LinkConfig{Width: 33})
}

// Property: for any pattern of device refusals and any replay buffer
// size, every accepted TLP is delivered exactly once, in order.
func TestLinkExactlyOnceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultLinkConfig()
		cfg.ReplayBufferSize = 1 + rng.Intn(6)
		cfg.Width = []int{1, 2, 4, 8}[rng.Intn(4)]
		if rng.Intn(2) == 0 {
			cfg.Fault = fault.CorruptionPlan(0.1)
			cfg.Seed = uint64(seed)
		}
		r := newLinkRig(cfg, sim.Tick(rng.Intn(200))*sim.Nanosecond, 0)
		r.resp.RefuseRequests = rng.Intn(20)
		n := 20 + rng.Intn(40)
		for i := 0; i < n; i++ {
			r.req.Write(uint64(i)*64, 64)
		}
		r.eng.Run()
		if len(r.resp.Received) != n || len(r.req.Completions) != n {
			return false
		}
		for i, p := range r.resp.Received {
			if p.Addr != uint64(i)*64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

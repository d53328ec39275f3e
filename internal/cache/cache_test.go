package cache

import (
	"bytes"
	"testing"

	"pciesim/internal/mem"
	"pciesim/internal/memctrl"
	"pciesim/internal/sim"
	"pciesim/internal/testdev"
)

// rig wires requester -> cache -> memory.
type rig struct {
	eng *sim.Engine
	c   *Cache
	req *testdev.Requester
	m   *memctrl.Memory
}

func newRig(t *testing.T, cfg Config, memCfg memctrl.Config) *rig {
	t.Helper()
	eng := sim.NewEngine()
	c := New(eng, "iocache", cfg)
	req := testdev.NewRequester(eng, "dev")
	m := memctrl.New(eng, "dram", mem.Range(0, 1<<30), memCfg)
	mem.Connect(req.Port(), c.CPUSidePort())
	mem.Connect(c.MemSidePort(), m.Port())
	return &rig{eng, c, req, m}
}

func TestCacheReadMissThenHit(t *testing.T) {
	r := newRig(t, Default(), memctrl.Config{Latency: 100 * sim.Nanosecond})
	r.req.Read(0x1000, 64)
	r.eng.Run()
	missLat := r.req.Completions[0].Latency()
	if missLat < 100*sim.Nanosecond {
		t.Errorf("miss latency %v, should include the 100ns memory access", missLat)
	}
	r.req.Read(0x1000, 64)
	r.eng.Run()
	hitLat := r.req.Completions[1].Latency()
	if hitLat != Default().TagLatency {
		t.Errorf("hit latency %v, want tag latency %v", hitLat, Default().TagLatency)
	}
	hits, misses, _, _, _ := r.c.Stats()
	if hits != 1 || misses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", hits, misses)
	}
}

func TestCacheFullLineWriteAllocatesWithoutFetch(t *testing.T) {
	r := newRig(t, Default(), memctrl.Config{Latency: 100 * sim.Nanosecond})
	r.req.Write(0x2000, 64)
	r.eng.Run()
	if got := r.req.Completions[0].Latency(); got != Default().TagLatency {
		t.Errorf("full-line write latency %v, want tag-only %v (no fetch)", got, Default().TagLatency)
	}
	reads, _, _, _, _ := r.m.Stats()
	if reads != 0 {
		t.Errorf("full-line write caused %d memory reads, want 0", reads)
	}
}

func TestCachePartialWriteFetchesLine(t *testing.T) {
	r := newRig(t, Default(), memctrl.Config{Latency: 100 * sim.Nanosecond})
	r.req.Write(0x2000, 8) // partial line: must fill first
	r.eng.Run()
	reads, _, _, _, _ := r.m.Stats()
	if reads != 1 {
		t.Errorf("partial write caused %d memory reads, want 1 fill", reads)
	}
	if got := r.req.Completions[0].Latency(); got < 100*sim.Nanosecond {
		t.Errorf("partial-write latency %v should include the fill", got)
	}
}

func TestCacheEvictionWritesBackDirtyLines(t *testing.T) {
	cfg := Default() // 1 KiB, 4-way, 64 B lines => 4 sets
	r := newRig(t, cfg, memctrl.Config{Latency: 10 * sim.Nanosecond})
	// Fill one set with dirty lines, then overflow it. Set index is
	// (addr/64) % 4, so stride 256 B stays in set 0.
	for i := 0; i < 5; i++ {
		r.req.Write(uint64(i)*256, 64)
	}
	r.eng.Run()
	_, _, wbs, _, _ := r.c.Stats()
	if wbs != 1 {
		t.Errorf("writebacks = %d, want 1 (one dirty eviction)", wbs)
	}
	_, memWrites, _, _, _ := r.m.Stats()
	if memWrites != 1 {
		t.Errorf("memory saw %d writes, want 1 writeback", memWrites)
	}
}

func TestCacheWriteBufferLimitBackpressures(t *testing.T) {
	cfg := Default()
	cfg.WriteBuffers = 1
	// Slow memory so writebacks pile up.
	r := newRig(t, cfg, memctrl.Config{Latency: 10 * sim.Microsecond})
	// 16 dirty lines then 16 more full-line writes to the same sets,
	// forcing 16 evictions through 1 write buffer.
	for i := 0; i < 32; i++ {
		r.req.Write(uint64(i)*64, 64)
	}
	r.eng.Run()
	if len(r.req.Completions) != 32 {
		t.Fatalf("%d completions, want 32", len(r.req.Completions))
	}
	_, _, wbs, _, refusedWB := r.c.Stats()
	if wbs != 16 {
		t.Errorf("writebacks = %d, want 16", wbs)
	}
	if refusedWB == 0 {
		t.Error("expected write-buffer refusals with 1 buffer and slow memory")
	}
}

func TestCacheMSHRLimitBackpressures(t *testing.T) {
	cfg := Default()
	cfg.MSHRs = 1
	r := newRig(t, cfg, memctrl.Config{Latency: 10 * sim.Microsecond})
	for i := 0; i < 8; i++ {
		r.req.Read(uint64(i)*64, 64)
	}
	r.eng.Run()
	if len(r.req.Completions) != 8 {
		t.Fatalf("%d completions, want 8", len(r.req.Completions))
	}
	_, _, _, refusedMSHR, _ := r.c.Stats()
	if refusedMSHR == 0 {
		t.Error("expected MSHR refusals with 1 MSHR and 8 outstanding reads")
	}
}

func TestCacheMissMergingSameLine(t *testing.T) {
	r := newRig(t, Default(), memctrl.Config{Latency: sim.Microsecond})
	r.req.Read(0x3000, 32)
	r.req.Read(0x3020, 32) // same line, while fill in flight
	r.eng.Run()
	reads, _, _, _, _ := r.m.Stats()
	if reads != 1 {
		t.Errorf("memory saw %d reads, want 1 (merged into one fill)", reads)
	}
	if len(r.req.Completions) != 2 {
		t.Fatalf("both requests must complete")
	}
}

func TestCacheDataIntegrityThroughFillAndWriteback(t *testing.T) {
	r := newRig(t, Default(), memctrl.Config{})
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i ^ 0x5a)
	}
	r.m.WriteFunctional(0x4000, payload)
	got := make([]byte, 64)
	r.req.ReadData(0x4000, got) // miss -> fill carries data
	r.eng.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("fill data mismatch")
	}
	// Dirty the line with new data, then force eviction and check the
	// writeback reached memory.
	newData := make([]byte, 64)
	for i := range newData {
		newData[i] = byte(0xf0 | i&0xf)
	}
	r.req.WriteData(0x4000, newData)
	r.eng.Run()
	// Evict: write three more lines in the same set, then a fourth.
	for i := 1; i <= 4; i++ {
		r.req.Write(0x4000+uint64(i)*256, 64)
	}
	r.eng.Run()
	check := make([]byte, 64)
	r.m.ReadFunctional(0x4000, check)
	if !bytes.Equal(check, newData) {
		t.Error("writeback did not carry dirty data to memory")
	}
}

func TestCachePartialWriteMergesIntoFilledLine(t *testing.T) {
	r := newRig(t, Default(), memctrl.Config{})
	base := make([]byte, 64)
	for i := range base {
		base[i] = byte(i)
	}
	r.m.WriteFunctional(0x5000, base)
	r.req.WriteData(0x5010, []byte{0xde, 0xad, 0xbe, 0xef})
	got := make([]byte, 64)
	r.req.ReadData(0x5000, got)
	r.eng.Run()
	want := append([]byte(nil), base...)
	copy(want[0x10:], []byte{0xde, 0xad, 0xbe, 0xef})
	if !bytes.Equal(got, want) {
		t.Error("partial write did not merge into filled line")
	}
}

func TestCacheLineStraddlePanics(t *testing.T) {
	r := newRig(t, Default(), memctrl.Config{})
	r.req.Read(0x1030, 64) // crosses 0x1040
	defer func() {
		if recover() == nil {
			t.Fatal("line-straddling access should panic")
		}
	}()
	r.eng.Run()
}

func TestCacheInvalidGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid geometry should panic")
		}
	}()
	New(sim.NewEngine(), "bad", Config{Size: 0, LineSize: 64, Assoc: 4})
}

func TestCacheHeavyDMAWriteStream(t *testing.T) {
	// Integration-flavoured: a long full-line write stream (the shape of
	// disk DMA) must complete exactly, with writebacks bounded by the
	// write-buffer count at any instant.
	cfg := Default()
	r := newRig(t, cfg, memctrl.Config{Latency: 200 * sim.Nanosecond, PerByte: 10, MaxOutstanding: 8})
	r.req.Window = 8
	const n = 512
	for i := 0; i < n; i++ {
		r.req.Write(uint64(i)*64, 64)
	}
	r.eng.Run()
	if len(r.req.Completions) != n {
		t.Fatalf("%d completions, want %d", len(r.req.Completions), n)
	}
	_, _, wbs, _, _ := r.c.Stats()
	// All but the 16 lines still resident must have been written back.
	if want := uint64(n - 16); wbs != want {
		t.Errorf("writebacks = %d, want %d", wbs, want)
	}
}

// zeroAllocSrc sends one reusable packet and counts completions,
// allocating nothing itself.
type zeroAllocSrc struct {
	port  *mem.MasterPort
	resps int
}

func (s *zeroAllocSrc) RecvTimingResp(*mem.MasterPort, *mem.Packet) bool {
	s.resps++
	return true
}

func (s *zeroAllocSrc) RecvReqRetry(*mem.MasterPort) {}

// TestCacheSteadyStateZeroAlloc pins the recycled miss and writeback
// paths: once warm, a partial-line write that misses — MSHR, fill
// fetch, eviction writeback of the dirty victim — allocates nothing.
func TestCacheSteadyStateZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	c := New(eng, "iocache", Default())
	m := memctrl.New(eng, "dram", mem.Range(0, 1<<30), memctrl.Config{Latency: 50 * sim.Nanosecond})
	src := &zeroAllocSrc{}
	src.port = mem.NewMasterPort("dev", src)
	mem.Connect(src.port, c.CPUSidePort())
	mem.Connect(c.MemSidePort(), m.Port())
	pkt := mem.NewPacket(mem.WriteReq, 0, 8)
	var line uint64
	cycle := func() {
		// Walk far more lines than the cache holds, so every write
		// misses and evicts a dirty line.
		line = (line + 1) % 1024
		pkt.Reinit(mem.WriteReq, line*64, 8)
		if !src.port.SendTimingReq(pkt) {
			t.Fatal("cache refused a request with no miss outstanding")
		}
		eng.Run()
	}
	for i := 0; i < 64; i++ {
		cycle() // fill the cache with dirty lines, warm the free lists
	}
	if n := testing.AllocsPerRun(500, cycle); n != 0 {
		t.Fatalf("steady-state miss+writeback costs %v allocs/op, want 0", n)
	}
	_, misses, writebacks, _, _ := c.Stats()
	if misses != uint64(src.resps) || writebacks < 500 {
		t.Fatalf("misses=%d writebacks=%d completions=%d: not the miss+writeback path", misses, writebacks, src.resps)
	}
}

package pcie

import (
	"testing"

	"pciesim/internal/mem"
	"pciesim/internal/sim"
)

// allocSrc is a requester that sends one reusable packet and counts
// completions, without allocating anything itself.
type allocSrc struct {
	port  *mem.MasterPort
	resps int
}

func (s *allocSrc) RecvTimingResp(_ *mem.MasterPort, pkt *mem.Packet) bool {
	s.resps++
	return true
}

func (s *allocSrc) RecvReqRetry(*mem.MasterPort) {}

// allocSink completes every request on the spot, turning the packet
// into its response in place.
type allocSink struct {
	port *mem.SlavePort
}

func (d *allocSink) RecvTimingReq(_ *mem.SlavePort, pkt *mem.Packet) bool {
	return d.port.SendTimingResp(pkt.MakeResponse())
}

func (d *allocSink) RecvRespRetry(*mem.SlavePort)            {}
func (d *allocSink) AddrRanges(*mem.SlavePort) mem.RangeList { return nil }

// TestLinkSteadyStateZeroAlloc pins the link's allocation-free hot
// path: once the free lists are warm, one full cycle — admit, transmit,
// deliver, respond, ACK both ways, release — allocates nothing, with
// infinite credits and with FC DLLPs returning credits.
func TestLinkSteadyStateZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name    string
		credits CreditConfig
	}{
		{"legacy", CreditConfig{}},
		{"fc", UniformCredits(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultLinkConfig()
			cfg.Credits = tc.credits
			eng := sim.NewEngine()
			l := NewLink(eng, "link", cfg)
			src := &allocSrc{}
			src.port = mem.NewMasterPort("src", src)
			sink := &allocSink{}
			sink.port = mem.NewSlavePort("sink", sink)
			mem.Connect(src.port, l.Up().SlavePort())
			mem.Connect(l.Down().MasterPort(), sink.port)
			pkt := mem.NewPacket(mem.WriteReq, 0x1000, 64)
			cycle := func() {
				pkt.Reinit(mem.WriteReq, 0x1000, 64)
				if !src.port.SendTimingReq(pkt) {
					t.Fatal("link refused an idle-link request")
				}
				eng.Run()
			}
			eng.Run() // the InitFC handshake, on the FC link
			cycle()   // warm the free lists and queue backing arrays
			if n := testing.AllocsPerRun(1000, cycle); n != 0 {
				t.Fatalf("steady-state link cycle costs %v allocs/op, want 0", n)
			}
			if src.resps != 1002 {
				t.Fatalf("%d completions, want 1002", src.resps)
			}
			for _, i := range []*Interface{l.Up(), l.Down()} {
				if len(i.replayBuf) != 0 || i.freshQ.len() != 0 || i.replayQ.len() != 0 {
					t.Fatalf("%s: TX state not drained", i.Name())
				}
			}
		})
	}
}

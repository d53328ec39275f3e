package pcie

import (
	"fmt"
	"math/rand"
	"testing"

	"pciesim/internal/fault"
	"pciesim/internal/sim"
)

// checkTXLive asserts the replay-buffer entry lifecycle on both ends of
// a link: every replay-buffer and transmit-queue slot holds a live,
// unreleased TLP entry, every entry's qrefs matches the queue slots
// that hold it, and the free list holds only released entries.
func checkTXLive(l *Link) error {
	for _, i := range []*Interface{l.Up(), l.Down()} {
		live := func(where string, pp *PciePkt) error {
			switch {
			case pp == nil:
				return fmt.Errorf("%s: nil %s slot", i.name, where)
			case pp.free:
				return fmt.Errorf("%s: %s holds released entry seq=%d", i.name, where, pp.Seq)
			case pp.Kind != KindTLP || pp.TLP == nil:
				return fmt.Errorf("%s: %s holds non-TLP entry %v", i.name, where, pp)
			}
			return nil
		}
		slots := map[*PciePkt]int{}
		for _, q := range []struct {
			name string
			q    *txQueue
		}{{"freshQ", &i.freshQ}, {"replayQ", &i.replayQ}} {
			for _, pp := range q.q.buf[:q.q.head] {
				if pp != nil {
					return fmt.Errorf("%s: %s retains a popped slot", i.name, q.name)
				}
			}
			for _, pp := range q.q.buf[q.q.head:] {
				if err := live(q.name, pp); err != nil {
					return err
				}
				slots[pp]++
			}
		}
		for _, pp := range i.replayBuf {
			if err := live("replayBuf", pp); err != nil {
				return err
			}
			if pp.acked {
				return fmt.Errorf("%s: replayBuf holds acked seq=%d", i.name, pp.Seq)
			}
			slots[pp] += 0 // an unqueued entry must have qrefs 0
		}
		for pp, n := range slots {
			if int(pp.qrefs) != n {
				return fmt.Errorf("%s: seq=%d has qrefs=%d but sits in %d queue slots", i.name, pp.Seq, pp.qrefs, n)
			}
		}
		for _, pp := range i.pktFree {
			if !pp.free || pp.TLP != nil {
				return fmt.Errorf("%s: free list holds a live entry", i.name)
			}
		}
	}
	return nil
}

// hotplugPropertyRig builds a random faulted link that loses its device
// to surprise removal, mid-stream, once or twice — re-seated or gone for
// good — with n writes queued.
func hotplugPropertyRig(seed int64) (*linkRig, int) {
	rng := rand.New(rand.NewSource(seed))
	cfg := DefaultLinkConfig()
	cfg.ReplayBufferSize = 1 + rng.Intn(6)
	if rng.Intn(2) == 0 {
		cfg.Credits = UniformCredits(1 + rng.Intn(5))
	}
	rates := fault.Rates{TLPCorrupt: float64(rng.Intn(3)) * 0.08, Drop: float64(rng.Intn(2)) * 0.05}
	plan := &fault.Plan{
		Seed:           uint64(seed)*2 + 1,
		Up:             fault.Profile{Rates: rates},
		Down:           fault.Profile{Rates: rates},
		RetrainLatency: sim.Tick(1+rng.Intn(3)) * sim.Microsecond,
	}
	at := sim.Tick(1+rng.Intn(8)) * sim.Microsecond
	for k := 1 + rng.Intn(2); k > 0; k-- {
		h := fault.Hotplug{RemoveAt: at}
		if rng.Intn(4) != 0 {
			h.ReinsertAfter = sim.Tick(1+rng.Intn(5)) * sim.Microsecond
		}
		plan.Hotplugs = append(plan.Hotplugs, h)
		if h.Permanent() {
			break
		}
		at += h.ReinsertAfter + sim.Tick(10+rng.Intn(20))*sim.Microsecond
	}
	cfg.Fault = plan
	r := newLinkRig(cfg, sim.Tick(rng.Intn(200))*sim.Nanosecond, 0)
	r.resp.RefuseRequests = rng.Intn(10)
	return r, r.queueWrites(20 + rng.Intn(40))
}

// TestReplayEntryReuseSafety runs the fault, credit-starvation,
// retrain and hot-plug property set-ups — NAK/replay, link-down
// windows, downtrains, surprise removal — and checks the replay-buffer
// entry lifecycle at every event boundary: recycling an entry while a
// queue still holds it would retransmit a different TLP, silently.
func TestReplayEntryReuseSafety(t *testing.T) {
	replays := func(l *Link) uint64 { return l.Up().Stats().ReplaysTx + l.Down().Stats().ReplaysTx }
	for _, setup := range []struct {
		name string
		rig  func(int64) (*linkRig, int)
		// exercised counts what the set-up is there to stress, so a
		// silently tamed generator cannot pass vacuously.
		exercised func(*Link) uint64
	}{
		{"faults", faultPropertyRig, replays},
		{"credits", creditPropertyRig, func(l *Link) uint64 {
			st := l.Up().Stats()
			return st.FCStallsP + st.FCStallsNP + st.FCStallsCpl
		}},
		{"retrain", retrainPropertyRig, func(l *Link) uint64 { return l.Retrains() }},
		{"hotplug", hotplugPropertyRig, func(l *Link) uint64 { return l.Removals() }},
	} {
		t.Run(setup.name, func(t *testing.T) {
			var exercised uint64
			for seed := int64(1); seed <= 12; seed++ {
				r, _ := setup.rig(seed)
				var err error
				r.eng.RunWhile(func() bool {
					err = checkTXLive(r.link)
					return err == nil
				})
				if err == nil {
					err = checkTXLive(r.link)
				}
				if err != nil {
					t.Fatalf("seed %d at %v: %v", seed, r.eng.Now(), err)
				}
				if !r.eng.Drained() {
					t.Fatalf("seed %d: event queue did not drain", seed)
				}
				var recycled int
				for _, i := range []*Interface{r.link.Up(), r.link.Down()} {
					recycled += len(i.pktFree)
				}
				if recycled == 0 {
					t.Fatalf("seed %d: no replay-buffer entry was ever recycled", seed)
				}
				exercised += setup.exercised(r.link)
			}
			if exercised == 0 {
				t.Fatal("no seed exercised the set-up's fault path")
			}
			t.Logf("%d exercised", exercised)
		})
	}
}

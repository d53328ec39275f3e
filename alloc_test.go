package pciesim

import (
	"runtime"
	"testing"

	"pciesim/internal/sim"
)

// hotPathAllocBudget is the steady-state allocation budget of a timed
// run: heap allocations per fired event. Replay-buffer entries,
// in-flight records, retry callbacks, IOCache fills and writebacks and
// FC DLLPs are all recycled, so what remains is warm-up (free lists
// and queues growing to their working size) and per-run set-up.
const hotPathAllocBudget = 0.02

// runAllocsPerEvent boots a platform, then measures the run call
// alone: heap allocations (runtime.MemStats.Mallocs) per event fired.
// The simulation is single-threaded and deterministic, so the count
// is reproducible.
func runAllocsPerEvent(t *testing.T, eng *sim.Engine, boot func() error, run func() error) float64 {
	t.Helper()
	if err := boot(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fired := eng.Fired()
	if err := run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	events := eng.Fired() - fired
	if events == 0 {
		t.Fatal("run fired no events")
	}
	return float64(after.Mallocs-before.Mallocs) / float64(events)
}

// TestHotPathAllocBudget gates the allocation-free hot path on the
// validation dd and on a two-switch, six-disk concurrent dd fabric
// (router and IOCache refusal/retry churn).
func TestHotPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	t.Run("validation", func(t *testing.T) {
		s := New(DefaultConfig())
		got := runAllocsPerEvent(t, s.Eng,
			func() error { _, err := s.Boot(); return err },
			func() error { _, err := s.RunDD(1 << 20); return err })
		t.Logf("%.4f allocs/event", got)
		if got > hotPathAllocBudget {
			t.Errorf("validation dd: %.4f allocs/event, budget %v", got, hotPathAllocBudget)
		}
	})
	t.Run("fabric", func(t *testing.T) {
		spec, err := ParseTopo("switch:x4(disk*3),switch:x4(disk*3)")
		if err != nil {
			t.Fatal(err)
		}
		s, err := BuildTopo(spec, DefaultTopoConfig())
		if err != nil {
			t.Fatal(err)
		}
		got := runAllocsPerEvent(t, s.Eng,
			func() error { _, err := s.Boot(); return err },
			func() error { _, err := s.RunDDAll(256 << 10); return err })
		t.Logf("%.4f allocs/event", got)
		if got > hotPathAllocBudget {
			t.Errorf("two-switch fabric dd: %.4f allocs/event, budget %v", got, hotPathAllocBudget)
		}
	})
}

package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestTickString(t *testing.T) {
	cases := []struct {
		in   Tick
		want string
	}{
		{0, "0ps"},
		{500, "500ps"},
		{Nanosecond, "1ns"},
		{150 * Nanosecond, "150ns"},
		{1250 * Nanosecond, "1.25us"},
		{3 * Millisecond, "3ms"},
		{2 * Second, "2s"},
		{MaxTick, "never"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Tick(%d).String() = %q, want %q", uint64(c.in), got, c.want)
		}
	}
}

func TestTickConversions(t *testing.T) {
	if got := FromDuration(150 * time.Nanosecond); got != 150*Nanosecond {
		t.Errorf("FromDuration(150ns) = %v, want 150ns", got)
	}
	if got := FromDuration(-time.Second); got != 0 {
		t.Errorf("FromDuration(negative) = %v, want 0", got)
	}
	if got := (2 * Microsecond).Duration(); got != 2*time.Microsecond {
		t.Errorf("Duration() = %v, want 2us", got)
	}
	if got := (1500 * Nanosecond).Nanoseconds(); got != 1500 {
		t.Errorf("Nanoseconds() = %v, want 1500", got)
	}
	if got := (500 * Millisecond).Seconds(); got != 0.5 {
		t.Errorf("Seconds() = %v, want 0.5", got)
	}
}

func TestFrequencyPeriod(t *testing.T) {
	if got := (1 * GHz).Period(); got != 1000 {
		t.Errorf("1GHz period = %d ticks, want 1000", uint64(got))
	}
	if got := (2 * GHz).Period(); got != 500 {
		t.Errorf("2GHz period = %d ticks, want 500", uint64(got))
	}
	if got := (33 * MHz).Period(); got != Tick(uint64(Second)/33e6) {
		t.Errorf("33MHz period = %d", uint64(got))
	}
	if got := Frequency(0).Period(); got != 0 {
		t.Errorf("0Hz period = %d, want 0", uint64(got))
	}
}

func TestEngineRunsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Tick
	for _, d := range []Tick{500, 100, 300, 100, 200} {
		d := d
		e.Schedule("ev", d, func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Tick{100, 100, 200, 300, 500}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
	if e.Now() != 500 {
		t.Errorf("final time %v, want 500", e.Now())
	}
}

func TestEnginePriorityBreaksTies(t *testing.T) {
	e := NewEngine()
	var order []string
	e.ScheduleAt("default", 100, PriorityDefault, func() { order = append(order, "default") })
	e.ScheduleAt("retry", 100, PriorityRetry, func() { order = append(order, "retry") })
	e.ScheduleAt("timer", 100, PriorityTimer, func() { order = append(order, "timer") })
	e.ScheduleAt("delivery", 100, PriorityDelivery, func() { order = append(order, "delivery") })
	e.Run()
	want := []string{"timer", "delivery", "default", "retry"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineInsertionOrderBreaksFullTies(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.ScheduleAt("tie", 42, PriorityDefault, func() { order = append(order, i) })
	}
	e.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("order = %v, want ascending insertion order", order)
		}
	}
}

func TestEngineDeschedule(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.NewEvent("x", func() { fired = true })
	e.ScheduleEventAfter(ev, 100, PriorityDefault)
	if !ev.Scheduled() {
		t.Fatal("event should be scheduled")
	}
	e.Deschedule(ev)
	if ev.Scheduled() {
		t.Fatal("event should be descheduled")
	}
	e.Run()
	if fired {
		t.Fatal("descheduled event fired")
	}
	// Rescheduling after deschedule works.
	e.ScheduleEventAfter(ev, 50, PriorityDefault)
	e.Run()
	if !fired {
		t.Fatal("rescheduled event did not fire")
	}
}

func TestEngineReschedule(t *testing.T) {
	e := NewEngine()
	var at Tick
	ev := e.NewEvent("x", func() { at = e.Now() })
	e.ScheduleEventAfter(ev, 100, PriorityDefault)
	e.Reschedule(ev, 250, PriorityDefault)
	e.Run()
	if at != 250 {
		t.Errorf("event fired at %v, want 250", at)
	}
	// Reschedule on an unscheduled event simply schedules it.
	e.Reschedule(ev, 400, PriorityDefault)
	e.Run()
	if at != 400 {
		t.Errorf("event fired at %v, want 400", at)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Tick
	for _, d := range []Tick{100, 200, 300} {
		e.Schedule("ev", d, func() { fired = append(fired, e.Now()) })
	}
	n := e.RunUntil(200)
	if n != 2 {
		t.Errorf("RunUntil(200) fired %d, want 2", n)
	}
	if e.Now() != 200 {
		t.Errorf("now = %v, want 200", e.Now())
	}
	n = e.RunUntil(1000)
	if n != 1 {
		t.Errorf("second RunUntil fired %d, want 1", n)
	}
	if e.Now() != 1000 {
		t.Errorf("now = %v, want clock advanced to limit 1000", e.Now())
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule("ev", Tick(i+1), func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Errorf("fired %d events before stop, want 3", count)
	}
	if e.Pending() != 7 {
		t.Errorf("%d events pending after stop, want 7", e.Pending())
	}
	// The run can be resumed.
	e.Run()
	if count != 10 {
		t.Errorf("fired %d total, want 10", count)
	}
}

func TestEngineEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine()
	var seq []Tick
	e.Schedule("outer", 100, func() {
		seq = append(seq, e.Now())
		e.Schedule("inner", 50, func() { seq = append(seq, e.Now()) })
	})
	e.Schedule("later", 200, func() { seq = append(seq, e.Now()) })
	e.Run()
	want := []Tick{100, 150, 200}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("seq = %v, want %v", seq, want)
		}
	}
}

func TestEngineSameTickScheduleRunsThisTick(t *testing.T) {
	e := NewEngine()
	ran := false
	e.Schedule("outer", 100, func() {
		e.Schedule("inner", 0, func() { ran = true })
	})
	e.RunUntil(100)
	if !ran {
		t.Fatal("zero-delay event scheduled during tick 100 did not run within RunUntil(100)")
	}
}

func TestEnginePanicsOnPastSchedule(t *testing.T) {
	e := NewEngine()
	e.Schedule("adv", 100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling into the past did not panic")
		}
	}()
	ev := e.NewEvent("past", func() {})
	e.ScheduleEvent(ev, 50, PriorityDefault)
}

func TestEnginePanicsOnDoubleSchedule(t *testing.T) {
	e := NewEngine()
	ev := e.NewEvent("x", func() {})
	e.ScheduleEventAfter(ev, 10, PriorityDefault)
	defer func() {
		if recover() == nil {
			t.Fatal("double schedule did not panic")
		}
	}()
	e.ScheduleEventAfter(ev, 20, PriorityDefault)
}

func TestEngineFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule("ev", Tick(i+1), func() {})
	}
	e.Run()
	if e.Fired() != 5 {
		t.Errorf("Fired() = %d, want 5", e.Fired())
	}
	if !e.Drained() {
		t.Error("Drained() = false after full run")
	}
}

// TestHeapRandomOrder is the property test for the event queue: for any
// random multiset of (time, priority) pairs, pops come out sorted by
// (time, priority, insertion sequence).
func TestHeapRandomOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		n := 200
		type firing struct {
			when Tick
			prio Priority
			seq  int
		}
		var fired []firing
		for i := 0; i < n; i++ {
			i := i
			when := Tick(rng.Intn(50))
			prio := Priority(rng.Intn(5) - 2)
			var ev *Event
			ev = e.NewEvent("p", func() { fired = append(fired, firing{ev.when, ev.prio, i}) })
			e.ScheduleEvent(ev, when, prio)
		}
		e.Run()
		if len(fired) != n {
			return false
		}
		ok := sort.SliceIsSorted(fired, func(a, b int) bool {
			x, y := fired[a], fired[b]
			if x.when != y.when {
				return x.when < y.when
			}
			if x.prio != y.prio {
				return x.prio < y.prio
			}
			return x.seq < y.seq
		})
		// SliceIsSorted with a strict less also accepts equal adjacent
		// entries, but (when,prio,seq) triples are unique by seq.
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestHeapRandomRemoval property-tests mid-heap removal: removing a
// random subset must leave exactly the complement, still in order.
func TestHeapRandomRemoval(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		n := 100
		events := make([]*Event, n)
		firedSet := make(map[int]bool)
		for i := 0; i < n; i++ {
			i := i
			events[i] = e.NewEvent("r", func() { firedSet[i] = true })
			e.ScheduleEvent(events[i], Tick(rng.Intn(30)), PriorityDefault)
		}
		removed := make(map[int]bool)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				e.Deschedule(events[i])
				removed[i] = true
			}
		}
		e.Run()
		for i := 0; i < n; i++ {
			if removed[i] == firedSet[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical values", same)
	}
}

func TestRandRanges(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of range", f)
		}
	}
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1.1) {
		t.Error("Bool(>1) returned false")
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule("bench", Tick(i%1000), func() {})
		if e.Pending() > 1024 {
			e.RunUntil(e.Now() + 100)
		}
	}
	e.Run()
}

// refKey is the reference model's copy of an event's queue key.
type refKey struct {
	when Tick
	prio Priority
	seq  uint64
}

func (a refKey) less(b refKey) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

// TestEngineRandomInRunScheduling property-tests the queue while it
// runs: callbacks randomly schedule same-tick events at every priority
// (a Timer or Delivery event at Now() from a Default callback undercuts
// the one firing), schedule future events, and Deschedule or
// Reschedule queued ones, earlier and later. A reference model keeps
// its own (when, prio, seq) per live event, consuming one seq per
// schedule as the engine must; every fired event has to be the model's
// minimum, and Pending() has to match the model's size throughout.
// Seeds are fixed, so a failure names the seed that reproduces it.
func TestEngineRandomInRunScheduling(t *testing.T) {
	prios := []Priority{PriorityTimer, PriorityDelivery, PriorityDefault, PriorityRetry}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		live := make(map[int]refKey) // event id -> key
		var seq uint64
		budget := 1500 // schedules left; keeps the run finite
		ok := true
		fail := func(format string, args ...any) {
			if ok {
				t.Logf("seed %d: "+format, append([]any{seed}, args...)...)
			}
			ok = false
		}
		note := func(id int, when Tick, prio Priority) {
			live[id] = refKey{when, prio, seq}
			seq++
			budget--
		}

		// Persistent events, ids 0..len(pers)-1, are the ones tests may
		// deschedule and reschedule; one-shots take ids after them.
		pers := make([]*Event, 12)
		nextID := len(pers)
		var fire func(id int)
		var act func()
		fire = func(id int) {
			var min int
			first := true
			for oid, k := range live {
				if first || k.less(live[min]) {
					min, first = oid, false
				}
			}
			if first || min != id {
				fail("fired event %d, reference minimum is %d", id, min)
				return
			}
			if live[id].when != e.Now() {
				fail("event %d fired at %v, keyed for %v", id, e.Now(), live[id].when)
			}
			delete(live, id)
			if e.Pending() != len(live) {
				fail("Pending() = %d, reference holds %d", e.Pending(), len(live))
			}
			for n := rng.Intn(4); n > 0 && budget > 0; n-- {
				act()
			}
		}
		for i := range pers {
			i := i
			pers[i] = e.NewEvent("pers", func() { fire(i) })
		}
		oneShot := func(when Tick, prio Priority) {
			id := nextID
			nextID++
			note(id, when, prio)
			e.ScheduleAt("oneshot", when, prio, func() { fire(id) })
		}
		act = func() {
			prio := prios[rng.Intn(len(prios))]
			switch rng.Intn(5) {
			case 0, 1: // same-tick wake-up
				oneShot(e.Now(), prio)
			case 2: // future event
				oneShot(e.Now()+Tick(1+rng.Intn(40)), prio)
			default: // persistent event: schedule, deschedule or restart
				i := rng.Intn(len(pers))
				ev := pers[i]
				if !ev.Scheduled() {
					when := e.Now() + Tick(rng.Intn(40))
					note(i, when, prio)
					e.ScheduleEvent(ev, when, prio)
					return
				}
				if rng.Intn(3) == 0 {
					e.Deschedule(ev)
					delete(live, i)
				} else {
					// Earlier or later than its current key, never
					// before now.
					when := e.Now() + Tick(rng.Intn(40))
					before := e.Pending()
					note(i, when, prio)
					e.Reschedule(ev, when, prio)
					if !ev.Scheduled() || e.Pending() != before {
						fail("Reschedule: scheduled=%v pending %d -> %d", ev.Scheduled(), before, e.Pending())
					}
				}
				if e.Pending() != len(live) {
					fail("Pending() = %d after op on %d, reference holds %d", e.Pending(), i, len(live))
				}
			}
		}

		// A far-future layer keeps the heap deep, as on a busy fabric.
		for i := 0; i < 48; i++ {
			oneShot(Tick(1000+rng.Intn(1000)), prios[rng.Intn(len(prios))])
		}
		for i := 0; i < 8; i++ {
			act()
		}
		e.Run()
		if len(live) != 0 || e.Pending() != 0 {
			fail("drained with %d reference events and %d pending", len(live), e.Pending())
		}
		return ok
	}
	for seed := int64(1); seed <= 60; seed++ {
		if !f(seed) {
			t.Fatalf("seed %d: fired order diverged from the reference model", seed)
		}
	}
}

// TestSameTickChainSkipsHeap: a chain of same-tick wake-ups over a
// queue of later timers runs entirely through the hot slot; the heap
// array is never touched.
func TestSameTickChainSkipsHeap(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.ScheduleEvent(e.NewEvent("timer", func() {}), Second+Tick(i), PriorityTimer)
	}
	links := 0
	var step func()
	e.Schedule("chain", 10, func() { step() })
	snap := append([]*Event(nil), e.queue.items...)
	untouched := func() bool {
		if len(e.queue.items) != len(snap) {
			return false
		}
		for i, ev := range snap {
			if e.queue.items[i] != ev || ev.idx != i {
				return false
			}
		}
		return true
	}
	step = func() {
		if !untouched() {
			t.Fatalf("link %d: the heap changed under a same-tick chain", links)
		}
		if links++; links < 100 {
			e.Schedule("chain", 0, step)
			if e.queue.hot == nil {
				t.Fatalf("link %d: same-tick wake-up did not take the hot slot", links)
			}
		}
	}
	e.RunUntil(Millisecond)
	if links != 100 || !untouched() {
		t.Fatalf("chain ran %d links; heap untouched = %v", links, untouched())
	}
}

// TestRescheduleInPlace: restarting a timer queued in the heap keeps
// the event queued in the heap (no remove and re-push), keeps Pending(),
// takes one seq like ScheduleEvent, and fires at the new time.
func TestRescheduleInPlace(t *testing.T) {
	e := NewEngine()
	var got []string
	for _, w := range []Tick{5, 7, 9} {
		e.ScheduleAt("other", w, PriorityDefault, func() { got = append(got, "other") })
	}
	tmr := e.NewEvent("tmr", func() { got = append(got, "tmr") })
	e.ScheduleEvent(tmr, 6, PriorityTimer)
	if !e.queue.inItems(tmr) {
		t.Fatal("timer should be queued in the heap, behind the hot slot")
	}
	for _, when := range []Tick{8, 9, 3} {
		pending, seq := e.Pending(), e.nextSeq
		e.Reschedule(tmr, when, PriorityTimer)
		if !e.queue.inItems(tmr) && e.queue.hot != tmr {
			t.Fatalf("Reschedule(%v) dequeued the timer", when)
		}
		if e.Pending() != pending || tmr.When() != when || tmr.seq != seq || e.nextSeq != seq+1 {
			t.Fatalf("Reschedule(%v): pending %d->%d, when %v, seq %d (want %d), nextSeq %d",
				when, pending, e.Pending(), tmr.When(), tmr.seq, seq, e.nextSeq)
		}
	}
	// The last restart (to 3) undercut the slot's event at 5, so the
	// timer took the slot.
	if e.queue.hot != tmr {
		t.Fatal("a restart below the hot slot must take the slot")
	}
	e.Run()
	want := []string{"tmr", "other", "other", "other"}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

// BenchmarkEngineSameTickChain times a chain of same-tick wake-ups over
// a heap of 64 far-future timers — the fabric18 shape, where tx kicks
// and retries at Now() sit in front of a deep queue. One op is one
// link of the chain.
func BenchmarkEngineSameTickChain(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.ScheduleEvent(e.NewEvent("timer", func() {}), Second+Tick(i), PriorityTimer)
	}
	left := b.N
	var step func()
	step = func() {
		if left--; left > 0 {
			e.Schedule("chain", 0, step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule("chain", 1, step)
	e.RunUntil(Millisecond)
}

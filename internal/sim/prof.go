package sim

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Profiler is the engine's self-profiling mode: per event name it
// counts firings and same-tick re-schedules and accumulates host
// wall-clock, answering "which component's events dominate the run"
// — the measurement layer any event-queue optimization is judged
// against.
//
// Event counts and same-tick counts are pure functions of the
// simulation and therefore byte-stable across runs and -jobs values;
// wall-clock depends on the host and is reported separately, clearly
// marked non-reproducible.
//
// Profiling costs one map lookup plus a time.Now pair per event, so it
// is opt-in (Engine.Profile); an unarmed engine pays a single nil
// check per event.
type Profiler struct {
	entries map[string]*profEntry
}

type profEntry struct {
	count    uint64
	sameTick uint64
	wall     time.Duration
}

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{entries: make(map[string]*profEntry)}
}

// Profile arms the engine's self-profiler, creating it on first call,
// and returns it. Arm before running workloads; the profile
// accumulates across Run calls.
func (e *Engine) Profile() *Profiler {
	if e.prof == nil {
		e.prof = NewProfiler()
	}
	return e.prof
}

// Prof returns the armed profiler, nil when profiling is off.
func (e *Engine) Prof() *Profiler { return e.prof }

// fireProfiled fires ev under the profiler. The name is captured
// before the callback: a one-shot that reschedules itself keeps its
// name, but recycle clears it, and the callback may deschedule.
func (e *Engine) fireProfiled(ev *Event) {
	name := ev.name
	t0 := time.Now()
	ev.fn()
	e.prof.record(name, time.Since(t0))
}

func (p *Profiler) entry(name string) *profEntry {
	e, ok := p.entries[name]
	if !ok {
		e = &profEntry{}
		p.entries[name] = e
	}
	return e
}

// record accounts one fired event.
func (p *Profiler) record(name string, wall time.Duration) {
	e := p.entry(name)
	e.count++
	e.wall += wall
}

// noteSameTick accounts an event scheduled for the current tick while
// the run loop is executing — the zero-delay self-wakeups a calendar
// queue would want to special-case.
func (p *Profiler) noteSameTick(name string) {
	p.entry(name).sameTick++
}

// Events returns the number of distinct event names profiled.
func (p *Profiler) Events() int { return len(p.entries) }

// Count returns the fired count recorded under name.
func (p *Profiler) Count(name string) uint64 {
	if e, ok := p.entries[name]; ok {
		return e.count
	}
	return 0
}

// profRow is one line of the report, sortable.
type profRow struct {
	name     string
	count    uint64
	sameTick uint64
	wall     time.Duration
}

// rows returns all entries sorted by count descending, ties broken by
// name — a deterministic order whatever map iteration did.
func (p *Profiler) rows() []profRow {
	rows := make([]profRow, 0, len(p.entries))
	for n, e := range p.entries {
		rows = append(rows, profRow{n, e.count, e.sameTick, e.wall})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].count != rows[j].count {
			return rows[i].count > rows[j].count
		}
		return rows[i].name < rows[j].name
	})
	return rows
}

// comp maps an event name to its component: the prefix before the last
// dot ("pcie.disklink.up.deliver" -> "pcie.disklink.up"), or the whole
// name when it has no dot.
func comp(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// WriteTable renders the profile: a top-N table per event name
// followed by a per-component rollup. Counts and same-tick columns
// are deterministic; the wall-clock columns depend on the host and are
// emitted only when wall is true (the deterministic form is what
// golden/determinism tests compare). topN <= 0 prints every row.
func (p *Profiler) WriteTable(w io.Writer, topN int, wall bool) error {
	rows := p.rows()
	var total, totalSame uint64
	var totalWall time.Duration
	for _, r := range rows {
		total += r.count
		totalSame += r.sameTick
		totalWall += r.wall
	}
	shown := rows
	if topN > 0 && len(shown) > topN {
		shown = shown[:topN]
	}

	if _, err := fmt.Fprintf(w, "engine profile — %d events fired, %d same-tick re-schedules, %d event names\n",
		total, totalSame, len(rows)); err != nil {
		return err
	}
	if wall {
		if _, err := fmt.Fprintf(w, "(wall-clock columns are host-dependent and NOT reproducible; counts are)\n"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%-44s %12s %10s %10s %8s\n",
			"event", "count", "same-tick", "wall(ms)", "ns/ev"); err != nil {
			return err
		}
	} else {
		if _, err := fmt.Fprintf(w, "%-44s %12s %10s\n", "event", "count", "same-tick"); err != nil {
			return err
		}
	}
	for _, r := range shown {
		if wall {
			nsPer := 0.0
			if r.count > 0 {
				nsPer = float64(r.wall.Nanoseconds()) / float64(r.count)
			}
			if _, err := fmt.Fprintf(w, "%-44s %12d %10d %10.2f %8.0f\n",
				r.name, r.count, r.sameTick, float64(r.wall.Nanoseconds())/1e6, nsPer); err != nil {
				return err
			}
		} else {
			if _, err := fmt.Fprintf(w, "%-44s %12d %10d\n", r.name, r.count, r.sameTick); err != nil {
				return err
			}
		}
	}
	if len(shown) < len(rows) {
		if _, err := fmt.Fprintf(w, "... %d more event names\n", len(rows)-len(shown)); err != nil {
			return err
		}
	}

	// Component rollup: aggregate by the name prefix before the last dot.
	byComp := make(map[string]*profEntry)
	for _, r := range rows {
		c := comp(r.name)
		e, ok := byComp[c]
		if !ok {
			e = &profEntry{}
			byComp[c] = e
		}
		e.count += r.count
		e.sameTick += r.sameTick
		e.wall += r.wall
	}
	crows := make([]profRow, 0, len(byComp))
	for n, e := range byComp {
		crows = append(crows, profRow{n, e.count, e.sameTick, e.wall})
	}
	sort.Slice(crows, func(i, j int) bool {
		if crows[i].count != crows[j].count {
			return crows[i].count > crows[j].count
		}
		return crows[i].name < crows[j].name
	})
	if _, err := fmt.Fprintf(w, "by component:\n"); err != nil {
		return err
	}
	for _, r := range crows {
		if wall {
			pct := 0.0
			if totalWall > 0 {
				pct = 100 * float64(r.wall) / float64(totalWall)
			}
			if _, err := fmt.Fprintf(w, "%-44s %12d %10d %9.1f%%\n", r.name, r.count, r.sameTick, pct); err != nil {
				return err
			}
		} else {
			if _, err := fmt.Fprintf(w, "%-44s %12d %10d\n", r.name, r.count, r.sameTick); err != nil {
				return err
			}
		}
	}
	return nil
}

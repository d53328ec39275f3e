package sim

import (
	"pciesim/internal/stats"
	"pciesim/internal/trace"
)

// Observability hooks. Every component already holds the *Engine, so
// attaching the stats registry and tracer here gives the whole
// simulator one well-known place to reach them without threading new
// constructor parameters through every package.

// Stats returns the engine's metrics registry, creating it lazily.
// Components resolve their counters/histograms once at construction
// and keep the pointers; registry lookups never appear on hot paths.
//
// The engine registers its own internals — events fired, queue depth,
// one-shot recycles — as closure-backed counters, so the kernel that
// drives every component shows up in dumps and sampler series right
// alongside them.
func (e *Engine) Stats() *stats.Registry {
	if e.stats == nil {
		e.stats = stats.NewRegistry()
		e.stats.CounterFunc("sim.fired", func() uint64 { return e.fired })
		e.stats.CounterFunc("sim.pending", func() uint64 { return uint64(e.queue.len()) })
		e.stats.CounterFunc("sim.recycled", func() uint64 { return e.recycled })
	}
	return e.stats
}

// SetTracer installs the event tracer (nil disables tracing).
func (e *Engine) SetTracer(t *trace.Tracer) { e.tracer = t }

// ArmSpans turns on causal span attribution: instrumented components
// start observing per-segment latency into seg.* histograms (and, if
// the tracer records trace.CatSpan, emitting begin/end span events).
// Arming is one-way and meant to happen before workloads run; the
// seg.* histograms are registered only on first observation, so an
// unarmed run's stats dump stays byte-identical to pre-span builds.
func (e *Engine) ArmSpans() { e.spansOn = true }

// SpansOn reports whether span attribution is armed. Instrumented
// components guard their segment accounting with it, so the unarmed
// hot path pays one bool test and zero allocations.
func (e *Engine) SpansOn() bool { return e.spansOn }

// Seg returns the latency-attribution histogram for the named segment
// ("fc-stall", "wire", ...), registered as "seg.<name>" on first use.
// Call only when SpansOn; cache the pointer where emission is hot.
func (e *Engine) Seg(name string) *stats.Histogram {
	return e.Stats().Histogram("seg." + name)
}

// Tracer returns the installed tracer. It may be nil; *trace.Tracer's
// methods are nil-safe, so callers guard emission with Tracer().On(cat).
func (e *Engine) Tracer() *trace.Tracer { return e.tracer }

// NextPacketID returns a fresh nonzero packet ID. IDs are monotonic
// per engine — no global state — so two simulations in one process
// stay deterministic and independent.
func (e *Engine) NextPacketID() uint64 {
	e.lastPacketID++
	return e.lastPacketID
}

// SampleEvery arranges for the registry's sampler to snapshot every
// counter and gauge each time simulated time crosses a multiple of
// interval. The sampler is driven inline from the run loops rather
// than by a self-rescheduling event, so an armed sampler never keeps
// the event queue artificially non-empty (Run() must still drain).
// interval 0 disables sampling.
func (e *Engine) SampleEvery(interval Tick) {
	e.sampleEvery = interval
	if interval == 0 {
		return
	}
	e.Stats().NewSampler(uint64(interval))
	e.nextSample = e.now + interval
}

// sampleUpTo takes all samples due at or before the current time.
// Samples are stamped with their grid tick, not e.now, so the series
// is identical whether events happen to land on the boundary or not.
func (e *Engine) sampleUpTo() {
	for e.nextSample <= e.now {
		e.stats.Sample(uint64(e.nextSample))
		e.nextSample += e.sampleEvery
	}
}

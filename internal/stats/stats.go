// Package stats is the simulator-wide metrics registry: a flat
// namespace of dot-separated hierarchical names ("pcie.disklink.up.replays")
// mapping to counters, gauges, and log2-bucketed latency histograms.
//
// The package is a leaf: it deliberately knows nothing about the event
// engine and expresses simulated time as raw uint64 ticks, so that
// internal/sim can depend on it without a cycle.
//
// Hot-path cost is a single pointer-chased add: components resolve
// their *Counter/*Gauge/*Histogram once at construction and then call
// Inc/Add/Observe, none of which allocate. Components that already
// keep their own uint64 fields can instead register a CounterFunc
// closure, which is read only at dump/sample time.
package stats

import (
	"fmt"
	"math/bits"
	"sort"
)

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is an instantaneous level (queue depth, buffer occupancy)
// that additionally tracks its high-water mark.
type Gauge struct {
	v   int64
	max int64
}

// Set replaces the level.
func (g *Gauge) Set(v int64) {
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Add moves the level by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.Set(g.v + delta) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v }

// Max returns the high-water mark.
func (g *Gauge) Max() int64 { return g.max }

// histBuckets is the number of log2 buckets: bucket 0 holds the value
// 0, bucket k (1..64) holds values in [2^(k-1), 2^k).
const histBuckets = 65

// Histogram accumulates a distribution of uint64 samples (latencies in
// ticks, sizes in bytes) into log2 buckets. Observe is allocation-free.
type Histogram struct {
	buckets [histBuckets]uint64
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
}

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Min returns the smallest sample (0 if empty).
func (h *Histogram) Min() uint64 { return h.min }

// Max returns the largest sample (0 if empty).
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the arithmetic mean (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1):
// the inclusive upper edge of the log2 bucket containing the sample at
// rank ceil(q*count), clamped to the observed max. Returns 0 if empty.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.count))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for b, n := range h.buckets {
		seen += n
		if seen >= rank {
			if b == 0 {
				return 0
			}
			upper := uint64(1)<<uint(b) - 1
			if upper > h.max {
				return h.max
			}
			return upper
		}
	}
	return h.max
}

// BucketUpperBound returns the inclusive upper edge of bucket b.
func BucketUpperBound(b int) uint64 {
	if b <= 0 {
		return 0
	}
	if b >= 64 {
		return ^uint64(0)
	}
	return uint64(1)<<uint(b) - 1
}

// Registry holds all metrics of one simulation. It is not safe for
// concurrent use; the simulator is single-threaded by design.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() uint64

	sampler *Sampler
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() uint64),
	}
}

// Counter returns the counter registered under name, creating it on
// first use. Resolve once at construction; Inc on the hot path.
func (r *Registry) Counter(name string) *Counter {
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.checkFresh(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.checkFresh(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it
// on first use.
func (r *Registry) Histogram(name string) *Histogram {
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.checkFresh(name, "histogram")
	h := &Histogram{}
	r.hists[name] = h
	return h
}

// CounterFunc registers a closure-backed counter: fn is evaluated at
// dump and sample time only, so components that already maintain their
// own uint64 fields can expose them with zero hot-path change.
// Re-registering a name replaces the closure (components rebuilt
// within one engine keep the latest).
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	if _, ok := r.funcs[name]; !ok {
		r.checkFresh(name, "counterfunc")
	}
	r.funcs[name] = fn
}

func (r *Registry) checkFresh(name, kind string) {
	for k, m := range map[string]bool{
		"counter":     r.counters[name] != nil,
		"gauge":       r.gauges[name] != nil,
		"histogram":   r.hists[name] != nil,
		"counterfunc": r.funcs[name] != nil,
	} {
		if m && k != kind {
			panic(fmt.Sprintf("stats: %q already registered as %s, requested as %s", name, k, kind))
		}
	}
}

// CounterNames returns all counter and counter-func names, sorted.
func (r *Registry) CounterNames() []string {
	names := make([]string, 0, len(r.counters)+len(r.funcs))
	for n := range r.counters {
		names = append(names, n)
	}
	for n := range r.funcs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// HistogramNames returns all histogram names, sorted.
func (r *Registry) HistogramNames() []string {
	names := make([]string, 0, len(r.hists))
	for n := range r.hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// GaugeNames returns all gauge names, sorted.
func (r *Registry) GaugeNames() []string {
	names := make([]string, 0, len(r.gauges))
	for n := range r.gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CounterValue returns the value of the named counter or counter-func
// (false if the name is unknown).
func (r *Registry) CounterValue(name string) (uint64, bool) {
	if c, ok := r.counters[name]; ok {
		return c.v, true
	}
	if fn, ok := r.funcs[name]; ok {
		return fn(), true
	}
	return 0, false
}

// GaugeValue returns the value and high-water mark of the named gauge.
func (r *Registry) GaugeValue(name string) (v, max int64, ok bool) {
	if g, ok := r.gauges[name]; ok {
		return g.v, g.max, true
	}
	return 0, 0, false
}

// FindHistogram returns the named histogram without creating it.
func (r *Registry) FindHistogram(name string) *Histogram {
	return r.hists[name]
}

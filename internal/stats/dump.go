package stats

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// histDump is the serialized form of one histogram. Buckets are an
// ordered array (not a map) so upper bounds sort numerically.
type histDump struct {
	Count   uint64       `json:"count"`
	Sum     uint64       `json:"sum"`
	Min     uint64       `json:"min"`
	Max     uint64       `json:"max"`
	Mean    float64      `json:"mean"`
	P50     uint64       `json:"p50"`
	P95     uint64       `json:"p95"`
	P99     uint64       `json:"p99"`
	Buckets []bucketDump `json:"buckets,omitempty"`
}

type bucketDump struct {
	UpperBound uint64 `json:"le"`
	Count      uint64 `json:"count"`
}

type gaugeDump struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

type seriesDump struct {
	Interval uint64              `json:"interval"`
	Ticks    []uint64            `json:"ticks"`
	Values   map[string][]uint64 `json:"values"`
}

type registryDump struct {
	Tick       uint64               `json:"tick"`
	Counters   map[string]uint64    `json:"counters"`
	Gauges     map[string]gaugeDump `json:"gauges,omitempty"`
	Histograms map[string]histDump  `json:"histograms,omitempty"`
	Series     *seriesDump          `json:"series,omitempty"`
}

func (h *Histogram) dump() histDump {
	d := histDump{
		Count: h.count,
		Sum:   h.sum,
		Min:   h.min,
		Max:   h.max,
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
	for b, n := range h.buckets {
		if n != 0 {
			d.Buckets = append(d.Buckets, bucketDump{BucketUpperBound(b), n})
		}
	}
	return d
}

func (r *Registry) snapshot(tick uint64) registryDump {
	d := registryDump{
		Tick:     tick,
		Counters: make(map[string]uint64, len(r.counters)+len(r.funcs)),
	}
	for n, c := range r.counters {
		d.Counters[n] = c.v
	}
	for n, fn := range r.funcs {
		d.Counters[n] = fn()
	}
	if len(r.gauges) > 0 {
		d.Gauges = make(map[string]gaugeDump, len(r.gauges))
		for n, g := range r.gauges {
			d.Gauges[n] = gaugeDump{g.v, g.max}
		}
	}
	if len(r.hists) > 0 {
		d.Histograms = make(map[string]histDump, len(r.hists))
		for n, h := range r.hists {
			d.Histograms[n] = h.dump()
		}
	}
	if s := r.sampler; s != nil && len(s.ticks) > 0 {
		d.Series = &seriesDump{Interval: s.interval, Ticks: s.ticks, Values: s.series}
	}
	return d
}

// WriteJSON emits the whole registry as indented JSON. Map keys are
// sorted by encoding/json, so two identical runs produce byte-identical
// output.
func (r *Registry) WriteJSON(w io.Writer, tick uint64) error {
	b, err := json.MarshalIndent(r.snapshot(tick), "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteCSV emits one "kind,name,field,value" row per scalar: counters,
// gauge value/max, and histogram summary fields. Rows are sorted.
func (r *Registry) WriteCSV(w io.Writer, tick uint64) error {
	var rows []string
	for n, c := range r.counters {
		rows = append(rows, fmt.Sprintf("counter,%s,value,%d", n, c.v))
	}
	for n, fn := range r.funcs {
		rows = append(rows, fmt.Sprintf("counter,%s,value,%d", n, fn()))
	}
	for n, g := range r.gauges {
		rows = append(rows, fmt.Sprintf("gauge,%s,value,%d", n, g.v))
		rows = append(rows, fmt.Sprintf("gauge,%s,max,%d", n, g.max))
	}
	for n, h := range r.hists {
		rows = append(rows,
			fmt.Sprintf("histogram,%s,count,%d", n, h.count),
			fmt.Sprintf("histogram,%s,sum,%d", n, h.sum),
			fmt.Sprintf("histogram,%s,min,%d", n, h.min),
			fmt.Sprintf("histogram,%s,max,%d", n, h.max),
			fmt.Sprintf("histogram,%s,p50,%d", n, h.Quantile(0.50)),
			fmt.Sprintf("histogram,%s,p95,%d", n, h.Quantile(0.95)),
			fmt.Sprintf("histogram,%s,p99,%d", n, h.Quantile(0.99)))
	}
	sort.Strings(rows)
	if _, err := fmt.Fprintf(w, "kind,name,field,value\n"); err != nil {
		return err
	}
	for _, row := range rows {
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	// The sampler time series, one row per (metric, sample): metrics
	// sorted by name, samples in grid order (sorting the rendered rows
	// would order ticks lexically).
	if s := r.sampler; s != nil && len(s.ticks) > 0 {
		names := make([]string, 0, len(s.series))
		for n := range s.series {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			vals := s.series[n]
			for i, t := range s.ticks {
				if i >= len(vals) {
					break
				}
				if _, err := fmt.Fprintf(w, "series,%s,%d,%d\n", n, t, vals[i]); err != nil {
					return err
				}
			}
		}
	}
	_, err := fmt.Fprintf(w, "meta,tick,value,%d\n", tick)
	return err
}

// WriteText emits a human-readable summary: non-zero counters, gauges
// with high-water marks, and histogram quantiles, sorted by name.
// Histogram quantiles are printed in the unit recorded (ticks = ps for
// latencies).
func (r *Registry) WriteText(w io.Writer, tick uint64) error {
	if _, err := fmt.Fprintf(w, "stats @ tick %d\n", tick); err != nil {
		return err
	}
	for _, n := range r.CounterNames() {
		v, _ := r.CounterValue(n)
		if v == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "  %-44s %12d\n", n, v); err != nil {
			return err
		}
	}
	for _, n := range r.GaugeNames() {
		v, max, _ := r.GaugeValue(n)
		if v == 0 && max == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "  %-44s %12d (max %d)\n", n, v, max); err != nil {
			return err
		}
	}
	for _, n := range r.HistogramNames() {
		h := r.hists[n]
		if h.count == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "  %-44s n=%d mean=%.0f p50=%d p95=%d p99=%d max=%d\n",
			n, h.count, h.Mean(), h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99), h.max); err != nil {
			return err
		}
	}
	return nil
}

package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"regexp"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"pciesim/internal/pcie"
	"pciesim/internal/sim"
)

// setupReps is how many times a batch process sets its workload up.
// setup_s is the median; the last set-up is the one that runs.
const setupReps = 11

// batchResult is what one batch process reports on its standard output.
type batchResult struct {
	Err    string `json:"err,omitempty"`
	Traced bool   `json:"traced"`

	// Set-up: medians over setupReps set-ups, host seconds.
	SetupS float64 `json:"setup_s"`
	BuildS float64 `json:"build_s"`
	BootS  float64 `json:"boot_s"`
	SynthS float64 `json:"synth_s"`

	// The timed run call: host seconds, simulated microseconds
	// advanced, events fired.
	RunS   float64 `json:"run_s"`
	SimUS  float64 `json:"sim_us"`
	Events uint64  `json:"events"`

	// Digest is the SHA-256 of the post-drain stats dumps.
	Digest string `json:"digest"`
	// Det holds deterministic values (counts, simulated figures) that
	// must repeat exactly from batch to batch of one seed.
	Det map[string]float64 `json:"det"`
	// Runtime holds the Go runtime's allocation and GC figures over
	// the run call.
	Runtime map[string]float64 `json:"runtime"`
	// SelfS is the traced run call's wall time per module, from the
	// engine profiler; set on traced batches only, with Unmapped
	// listing event names no module rule claims.
	SelfS    map[string]float64 `json:"self_s,omitempty"`
	Unmapped []string           `json:"unmapped,omitempty"`
}

// runBatch sets the workload up setupReps times, then runs the last
// set-up once: the timed call, a drain, and the correctness checks.
func runBatch(w workloadDef, seed uint64, traced bool) batchResult {
	res := batchResult{Traced: traced, Det: map[string]float64{}}
	if err := measureBatch(w, seed, traced, &res); err != nil {
		res.Err = err.Error()
	}
	return res
}

func measureBatch(w workloadDef, seed uint64, traced bool, res *batchResult) error {
	var b *batch
	var setup, build, boot, synth []float64
	for i := 0; i < setupReps; i++ {
		b = nil // let the previous set-up be collected
		runtime.GC()
		t0 := time.Now()
		var err error
		b, err = w.setup(seed)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setup = append(setup, time.Since(t0).Seconds())
		build = append(build, b.buildS)
		boot = append(boot, b.bootS)
		synth = append(synth, b.synthS)
	}
	res.SetupS, res.BuildS, res.BootS, res.SynthS = median(setup), median(build), median(boot), median(synth)

	before := make([]map[string]uint64, len(b.sims))
	simStart := make([]sim.Tick, len(b.sims))
	firedStart := make([]uint64, len(b.sims))
	for i, s := range b.sims {
		before[i] = counters(s.sys.Eng.Stats())
		simStart[i] = s.sys.Eng.Now()
		firedStart[i] = s.sys.Eng.Fired()
		if traced {
			s.sys.Eng.Profile()
		}
	}

	runtime.GC()
	rt0 := readRuntime()
	t0 := time.Now()
	for i, s := range b.sims {
		if err := s.run(); err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
	}
	res.RunS = time.Since(t0).Seconds()
	rt1 := readRuntime()

	for i, s := range b.sims {
		res.SimUS += float64(s.sys.Eng.Now()-simStart[i]) / float64(sim.Microsecond)
		res.Events += s.sys.Eng.Fired() - firedStart[i]
		for k, v := range detMetrics(s.sys, before[i], counters(s.sys.Eng.Stats())) {
			res.Det[k] += v
		}
	}
	res.Runtime = map[string]float64{
		"allocs":    rt1.allocs - rt0.allocs,
		"bytes":     rt1.bytes - rt0.bytes,
		"gc_cycles": rt1.gcCycles - rt0.gcCycles,
		"gc_cpu_s":  rt1.gcCPU - rt0.gcCPU,
	}
	if traced {
		if err := attribute(b, res); err != nil {
			return err
		}
	}

	// Drain stragglers, then check and digest what the run left.
	dig := sha256.New()
	for i, s := range b.sims {
		eng := s.sys.Eng
		eng.Run()
		if live := s.sys.PktPool.Stats().Live(); live != 0 {
			return fmt.Errorf("run %d: %d packets still checked out of the pool after the drain", i, live)
		}
		for _, li := range s.sys.Links {
			if err := checkConservation(li.Name, li.Link); err != nil {
				return fmt.Errorf("run %d: %w", i, err)
			}
		}
		var dump bytes.Buffer
		if err := eng.Stats().WriteJSON(&dump, uint64(eng.Now())); err != nil {
			return fmt.Errorf("run %d: stats dump: %w", i, err)
		}
		dig.Write(dump.Bytes())
	}
	res.Digest = hex.EncodeToString(dig.Sum(nil))
	res.Det["sim.events"] = float64(res.Events)
	res.Det["sim.us"] = res.SimUS
	for k, v := range b.det {
		res.Det[k] = v
	}
	return nil
}

// attribute reads each simulation's profile of the run call and splits
// its wall time by module. sim.self_s is what the callbacks leave of
// the run call: heap operations and the run loop (plus the profiler's
// own clock reads).
func attribute(b *batch, res *batchResult) error {
	res.SelfS = map[string]float64{}
	for _, m := range modules {
		res.SelfS[m] = 0
	}
	var callbacks float64
	var sameTick uint64
	unmapped := map[string]bool{}
	for i, s := range b.sims {
		var buf bytes.Buffer
		if err := s.sys.Eng.Prof().WriteTable(&buf, 0, true); err != nil {
			return err
		}
		t, err := parseProfile(buf.Bytes())
		if err != nil {
			return fmt.Errorf("run %d: %w", i, err)
		}
		sameTick += t.sameTick
		for _, r := range t.rows {
			m := moduleOf(r.name)
			if m == "other" {
				unmapped[r.name] = true
			}
			res.SelfS[m] += r.wallS
			callbacks += r.wallS
			switch {
			case reXbarRetry.MatchString(r.name):
				res.Det["xbar.retries"] += float64(r.count)
			case reQueueSend.MatchString(r.name):
				res.Det["mem.sendq.send_events"] += float64(r.count)
			}
		}
	}
	res.SelfS["sim"] = res.RunS - callbacks
	res.Det["sim.same_tick"] = float64(sameTick)
	for n := range unmapped {
		res.Unmapped = append(res.Unmapped, n)
	}
	sort.Strings(res.Unmapped)
	return nil
}

// reXbarRetry matches the retry notifications a crossbar sends to a
// port whose packet it refused because the egress queue was full.
var reXbarRetry = regexp.MustCompile(`^(membus|iobus)\.(slave|master)\[[^\]]*\]\.(reqretry|respretry)$`)

// reQueueSend matches a SendQueue's send event, which passes on at most
// one packet per firing.
var reQueueSend = regexp.MustCompile(`\.(reqq|respq|memq)\.send$`)

// checkConservation demands that every TLP a link end accepted was
// delivered by the far end or flushed when the link died.
func checkConservation(name string, l *pcie.Link) error {
	for _, dir := range []struct {
		label    string
		from, to *pcie.Interface
	}{{"down", l.Up(), l.Down()}, {"up", l.Down(), l.Up()}} {
		tx, rx := dir.from.Stats(), dir.to.Stats()
		if tx.TLPsAccepted != rx.TLPsDelivered+tx.FlushedTLPs+rx.RxFlushed {
			return fmt.Errorf("link %s %s: %d TLPs accepted, %d delivered, %d flushed, %d flushed from receive queues",
				name, dir.label, tx.TLPsAccepted, rx.TLPsDelivered, tx.FlushedTLPs, rx.RxFlushed)
		}
	}
	return nil
}

// runtimeSample is a reading of the Go runtime's counters.
type runtimeSample struct {
	allocs, bytes, gcCycles, gcCPU float64
}

func readRuntime() runtimeSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	var gcCPU float64
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gcCPU = s[0].Value.Float64()
	}
	return runtimeSample{
		allocs:   float64(ms.Mallocs),
		bytes:    float64(ms.TotalAlloc),
		gcCycles: float64(ms.NumGC),
		gcCPU:    gcCPU,
	}
}

// median of a non-empty slice; it sorts a copy.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Command perfbench is the pciesim benchmark: it runs one of four
// reference workloads against the serial engine for a fixed host time
// and prints the end-to-end or the per-layer metrics as JSON.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Each measured batch runs in a child process of its own (the same
// binary with -batch), so one batch's memory never shows in the next
// one's peak RSS. With --trace 1 the batches alternate between
// untraced ones and ones with the engine profiler armed. See README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// commit is the source revision, set at build time when known.
var commit = "unknown"

const (
	// maxProcs caps GOMAXPROCS of the batch processes: the simulator is
	// serial, and the Go runtime's GC and the kernel model's task
	// hand-offs use the second core.
	maxProcs = 2
	// wallLimit is when the benchmark stops starting batches, whatever
	// --seconds asked for, so that it ends well within three minutes.
	wallLimit = 150 * time.Second
)

func main() {
	name := flag.String("workload", "", "workload: dd-validation, fabric18, wl-mixed or dd-faulted")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 25, "host seconds to measure for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from profiled batches")
	batchMode := flag.Bool("batch", false, "run a single batch and print its raw result (used by the benchmark itself)")
	traced := flag.Bool("traced", false, "with -batch: arm the engine profiler")
	flag.Parse()

	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *batchMode {
		if err := json.NewEncoder(os.Stdout).Encode(runBatch(w, *seed, *traced)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	os.Exit(drive(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1))
}

// sample is one finished batch and its process's peak resident memory.
type sample struct {
	batchResult
	rssMB float64
}

// drive runs batches for the given host time and prints the report.
func drive(w workloadDef, seed uint64, d time.Duration, traceMode bool) int {
	procs := min(maxProcs, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	start := time.Now()
	var untraced, traced []sample
	var failures []string
	attempted := 0
	enough := func() bool { return len(untraced) > 0 && (!traceMode || len(traced) > 0) }
	for {
		wantTraced := traceMode && len(traced) < len(untraced)
		s, err := runChild(w, seed, wantTraced, procs, wallLimit-time.Since(start))
		attempted++
		switch {
		case err != nil:
			failures = append(failures, err.Error())
		case wantTraced:
			traced = append(traced, s)
		default:
			untraced = append(untraced, s)
		}
		if len(failures) > 0 && len(untraced)+len(traced) == 0 {
			break // the first batch failed: nothing to measure
		}
		if el := time.Since(start); (el >= d && enough()) || el >= wallLimit {
			break
		}
	}
	if !enough() {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "perfbench:", f)
		}
		fmt.Fprintln(os.Stderr, "perfbench: no batch completed")
		return 1
	}

	all := append(append([]sample(nil), untraced...), traced...)
	inconsistent, why := consistency(all)
	rep := report{
		Host:      hostRecord(procs),
		Workload:  w.name,
		Seed:      seed,
		Digest:    all[0].Digest,
		Untraced:  len(untraced),
		Traced:    len(traced),
		Failures:  append(failures, why...),
		Attempted: attempted,
		Failed:    len(failures) + inconsistent,
	}
	var m map[string]metric
	if traceMode {
		// Every traced batch fires the same events; consistency
		// checked that they are the same simulation.
		rep.Unmapped = traced[0].Unmapped
		m = layerMetrics(untraced, traced)
	} else {
		var err error
		if m, err = endToEnd(untraced); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	return rep.print(m)
}

// runChild runs one batch in a child process and returns its result
// and peak RSS. A batch that errors, fails a check, crashes or outlives
// the time limit is an error.
func runChild(w workloadDef, seed uint64, traced bool, procs int, limit time.Duration) (sample, error) {
	exe, err := os.Executable()
	if err != nil {
		return sample{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), max(limit, 10*time.Second))
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-batch", "-workload", w.name,
		"-seed", strconv.FormatUint(seed, 10), "-traced="+strconv.FormatBool(traced))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return sample{}, fmt.Errorf("batch process (traced=%v): %w", traced, err)
	}
	var s sample
	if err := json.Unmarshal(out.Bytes(), &s.batchResult); err != nil {
		return sample{}, fmt.Errorf("batch process (traced=%v): bad result: %w", traced, err)
	}
	if s.Err != "" {
		return sample{}, fmt.Errorf("batch (traced=%v): %s", traced, s.Err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return s, nil
}

// consistency checks that every batch of the seed left the same stats
// dump as the first one, and the same value for each deterministic
// metric as the first batch that reported it. It returns how many
// batches differ, and why.
func consistency(all []sample) (int, []string) {
	bad := 0
	var why []string
	ref := map[string]float64{}
	for i, s := range all {
		var diff []string
		if s.Digest != all[0].Digest {
			diff = append(diff, fmt.Sprintf("stats digest %s, first batch had %s", s.Digest, all[0].Digest))
		}
		keys := make([]string, 0, len(s.Det))
		for k := range s.Det {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			rv, ok := ref[k]
			switch {
			case !ok:
				ref[k] = s.Det[k]
			case rv != s.Det[k]:
				diff = append(diff, fmt.Sprintf("%s = %v, an earlier batch had %v", k, s.Det[k], rv))
			}
		}
		if len(diff) > 0 {
			bad++
			why = append(why, fmt.Sprintf("batch %d (traced=%v): %s", i, s.Traced, strings.Join(diff, "; ")))
		}
	}
	return bad, why
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// pick returns f of every sample.
func pick(ss []sample, f func(sample) float64) []float64 {
	v := make([]float64, len(ss))
	for i, s := range ss {
		v[i] = f(s)
	}
	return v
}

// endToEnd derives the end-to-end metrics from untraced batches.
func endToEnd(ss []sample) (map[string]metric, error) {
	gap, ok := ss[0].Det["phys_gap_pct"]
	if !ok {
		var err error
		if gap, err = referencePhysGap(); err != nil {
			return nil, err
		}
	}
	return map[string]metric{
		"run_s":        {median(pick(ss, func(s sample) float64 { return s.RunS })), "s"},
		"sim_us_per_s": {median(pick(ss, func(s sample) float64 { return s.SimUS / s.RunS })), "us/s"},
		"setup_s":      {median(pick(ss, func(s sample) float64 { return s.SetupS })), "s"},
		"peak_rss_mb":  {median(pick(ss, func(s sample) float64 { return s.rssMB })), "MB"},
		"phys_gap_pct": {gap, "%"},
	}, nil
}

// referencePhysGap runs the dd-validation batch in this process,
// outside every timer, for the workloads that carry no accuracy
// reference of their own.
func referencePhysGap() (float64, error) {
	b, err := setupDDValidation(0)
	if err != nil {
		return 0, fmt.Errorf("phys reference: %w", err)
	}
	if err := b.sims[0].run(); err != nil {
		return 0, fmt.Errorf("phys reference: %w", err)
	}
	return b.det["phys_gap_pct"], nil
}

// layerMetrics derives the per-layer metrics: deterministic values from
// the first batch (every batch agrees, or consistency reported it),
// host times as medians, self times from the traced batches.
func layerMetrics(untraced, traced []sample) map[string]metric {
	det := untraced[0].Det
	tdet := traced[0].Det
	events := det["sim.events"]
	medU := func(f func(sample) float64) float64 { return median(pick(untraced, f)) }
	self := func(m string) float64 {
		return median(pick(traced, func(s sample) float64 { return s.SelfS[m] }))
	}
	perEvent := func(k string) float64 {
		return medU(func(s sample) float64 { return s.Runtime[k] / float64(s.Events) })
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	runU := medU(func(s sample) float64 { return s.RunS })
	runT := median(pick(traced, func(s sample) float64 { return s.RunS }))
	return map[string]metric{
		"sim.events":                       {events, "count"},
		"sim.events_per_s":                 {medU(func(s sample) float64 { return float64(s.Events) / s.RunS }), "1/s"},
		"sim.events_per_tlp":               {ratio(events, det["pcie.link.tlps_delivered"]), "events/TLP"},
		"sim.same_tick_frac":               {ratio(tdet["sim.same_tick"], events), "ratio"},
		"sim.recycled_frac":                {ratio(det["sim.recycled"], det["sim.fired"]), "ratio"},
		"sim.self_s":                       {self("sim"), "s"},
		"runtime.allocs_per_event":         {perEvent("allocs"), "allocs/event"},
		"runtime.bytes_per_event":          {perEvent("bytes"), "B/event"},
		"runtime.gc_cycles":                {medU(func(s sample) float64 { return s.Runtime["gc_cycles"] }), "count"},
		"runtime.gc_cpu_s":                 {medU(func(s sample) float64 { return s.Runtime["gc_cpu_s"] }), "s"},
		"pcie.link.tlps_delivered":         {det["pcie.link.tlps_delivered"], "count"},
		"pcie.link.tx_useful_frac":         {ratio(det["pcie.link.tlps_delivered"], det["pcie.link.tx"]), "ratio"},
		"pcie.link.replays":                {det["pcie.link.replays"], "count"},
		"pcie.link.timeouts":               {det["pcie.link.timeouts"], "count"},
		"pcie.link.naks":                   {det["pcie.link.naks"], "count"},
		"pcie.link.dllps":                  {det["pcie.link.dllps"], "count"},
		"pcie.link.fc_stalls":              {det["pcie.link.fc_stalls"], "count"},
		"pcie.link.self_s":                 {self("pcie.link"), "s"},
		"pcie.router.refusals":             {det["pcie.router.refusals"], "count"},
		"pcie.router.self_s":               {self("pcie.router"), "s"},
		"mem.sendq.refusal_frac":           {ratio(det["mem.sendq.refusals"], det["mem.sendq.pushed"]), "ratio"},
		"mem.sendq.send_events_per_packet": {ratio(tdet["mem.sendq.send_events"], det["mem.sendq.sent"]), "events/packet"},
		"mem.pool.reuse_frac":              {ratio(det["mem.pool.reuses"], det["mem.pool.allocs"]+det["mem.pool.reuses"]), "ratio"},
		"xbar.refusals":                    {tdet["xbar.retries"], "count"},
		"xbar.self_s":                      {self("xbar"), "s"},
		"cache.hit_frac":                   {ratio(det["cache.hits"], det["cache.hits"]+det["cache.misses"]), "ratio"},
		"cache.refused_mshr":               {det["cache.refused_mshr"], "count"},
		"cache.refused_wb":                 {det["cache.refused_wb"], "count"},
		"cache.self_s":                     {self("cache"), "s"},
		"memctrl.accesses":                 {det["memctrl.accesses"], "count"},
		"memctrl.refused":                  {det["memctrl.refused"], "count"},
		"memctrl.self_s":                   {self("memctrl"), "s"},
		"devices.disk_sectors":             {det["devices.disk_sectors"], "count"},
		"devices.nic_frames":               {det["devices.nic_frames"], "count"},
		"devices.self_s":                   {self("devices"), "s"},
		"kernel.cpu_accesses":              {det["kernel.cpu_accesses"], "count"},
		"kernel.irqs":                      {det["kernel.irqs"], "count"},
		"kernel.self_s":                    {self("kernel"), "s"},
		"kernel.boot_s":                    {medU(func(s sample) float64 { return s.BootS }), "s"},
		"topo.build_s":                     {medU(func(s sample) float64 { return s.BuildS }), "s"},
		"workload.synth_s":                 {medU(func(s sample) float64 { return s.SynthS }), "s"},
		"workload.ops":                     {det["workload.ops"], "count"},
		"workload.dropped":                 {det["workload.dropped"], "count"},
		"workload.sim_p99_us":              {det["workload.sim_p99_us"], "us"},
		"workload.sim_goodput_gbps":        {det["workload.sim_goodput_gbps"], "Gb/s"},
		"fault.injected":                   {det["fault.injected"], "count"},
		"obs.profile_overhead_frac":        {runT/runU - 1, "ratio"},
		"other.self_s":                     {self("other"), "s"},
	}
}

// hostRecord describes where the numbers were taken.
func hostRecord(procs int) map[string]any {
	return map[string]any{
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": procs,
		"cpu":        cpuModel(),
		"commit":     commit,
		"gogc":       os.Getenv("GOGC"),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report is the run's record, printed as the line before the result.
type report struct {
	Host      map[string]any `json:"host"`
	Workload  string         `json:"workload"`
	Seed      uint64         `json:"seed"`
	Digest    string         `json:"stats_digest"`
	Untraced  int            `json:"untraced_batches"`
	Traced    int            `json:"traced_batches"`
	Attempted int            `json:"-"`
	Failed    int            `json:"-"`
	Unmapped  []string       `json:"unmapped_events,omitempty"`
	Failures  []string       `json:"failures,omitempty"`
}

// print writes the record line and then the result line, and returns
// the exit code.
func (r report) print(m map[string]metric) int {
	rec, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, m})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("%s\n%s\n", rec, res)
	return 0
}

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"pciesim/internal/stats"
	"pciesim/internal/topo"
)

// moduleRules maps fired event names to the module that owns them, in
// match order: the first matching rule wins. Link events come first
// because generated topologies name them after their node
// ("sw0.link.up.deliver", "disk3.link.down.tx"); the CPU's MemBus
// response queue belongs to the kernel model because its callback
// resumes the waiting task.
var moduleRules = []struct {
	module string
	re     *regexp.Regexp
}{
	{"pcie.link", regexp.MustCompile(`^(uplink|disklink|niclink)\.|\.link\.`)},
	{"kernel", regexp.MustCompile(`^(cpu\d+\.|membus\.slave\[cpu\d+\]\.|dd(\.|$)|wl\.|boot(\.|$))`)},
	{"pcie.router", regexp.MustCompile(`^(rc|switch|sw\d+)\.`)},
	{"xbar", regexp.MustCompile(`^(membus|iobus|iobridge|pcihost)\.`)},
	{"cache", regexp.MustCompile(`^iocache\.`)},
	{"memctrl", regexp.MustCompile(`^dram\.`)},
	{"devices", regexp.MustCompile(`^(disk\d*|nic\d*|msiframe)\.`)},
}

// modules lists the owners moduleOf can return, "other" last.
var modules = []string{"pcie.link", "kernel", "pcie.router", "xbar", "cache", "memctrl", "devices", "other"}

// moduleOf returns the module owning an event name, "other" when no
// rule matches.
func moduleOf(event string) string {
	for _, r := range moduleRules {
		if r.re.MatchString(event) {
			return r.module
		}
	}
	return "other"
}

// profRow is one event name of a parsed profiler table.
type profRow struct {
	name     string
	count    uint64
	sameTick uint64
	wallS    float64
}

// profTable is a parsed sim.Profiler.WriteTable(w, 0, true) report.
type profTable struct {
	events, sameTick uint64
	rows             []profRow
}

var profHeader = regexp.MustCompile(`^engine profile — (\d+) events fired, (\d+) same-tick re-schedules, (\d+) event names$`)

// parseProfile reads the per-event rows of a full wall-clock profiler
// table, stopping at the component rollup. It fails unless the rows
// add up to the header's totals, so a change of format cannot silently
// drop events.
func parseProfile(b []byte) (profTable, error) {
	var t profTable
	sc := bufio.NewScanner(bytes.NewReader(b))
	if !sc.Scan() {
		return t, fmt.Errorf("profile: empty table")
	}
	m := profHeader.FindStringSubmatch(sc.Text())
	if m == nil {
		return t, fmt.Errorf("profile: bad header %q", sc.Text())
	}
	t.events, _ = strconv.ParseUint(m[1], 10, 64)
	t.sameTick, _ = strconv.ParseUint(m[2], 10, 64)
	names, _ := strconv.Atoi(m[3])
	for sc.Scan() {
		line := sc.Text()
		if line == "by component:" {
			break
		}
		f := strings.Fields(line)
		if len(f) != 5 || strings.HasPrefix(line, "(") || f[0] == "event" {
			continue
		}
		count, err1 := strconv.ParseUint(f[1], 10, 64)
		same, err2 := strconv.ParseUint(f[2], 10, 64)
		wallMS, err3 := strconv.ParseFloat(f[3], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return t, fmt.Errorf("profile: bad row %q", line)
		}
		t.rows = append(t.rows, profRow{f[0], count, same, wallMS / 1e3})
	}
	if err := sc.Err(); err != nil {
		return t, err
	}
	var events, same uint64
	for _, r := range t.rows {
		events += r.count
		same += r.sameTick
	}
	if len(t.rows) != names || events != t.events || same != t.sameTick {
		return t, fmt.Errorf("profile: rows cover %d names, %d events, %d same-tick; header says %d, %d, %d",
			len(t.rows), events, same, names, t.events, t.sameTick)
	}
	return t, nil
}

// counters snapshots every counter of a registry.
func counters(r *stats.Registry) map[string]uint64 {
	out := map[string]uint64{}
	for _, n := range r.CounterNames() {
		out[n], _ = r.CounterValue(n)
	}
	return out
}

// counterSum adds up the counters, taken as after minus before, whose
// names match re.
func counterSum(before, after map[string]uint64, re *regexp.Regexp) uint64 {
	var sum uint64
	for n, v := range after {
		if re.MatchString(n) {
			sum += v - before[n]
		}
	}
	return sum
}

var (
	reDelivered   = regexp.MustCompile(`^pcie\..*\.(up|down)\.delivered$`)
	reTx          = regexp.MustCompile(`^pcie\..*\.(up|down)\.tx$`)
	reReplays     = regexp.MustCompile(`^pcie\..*\.(up|down)\.replays$`)
	reTimeouts    = regexp.MustCompile(`^pcie\..*\.(up|down)\.timeouts$`)
	reNaks        = regexp.MustCompile(`^pcie\..*\.(up|down)\.naks_tx$`)
	reDLLPs       = regexp.MustCompile(`^pcie\..*\.(up|down)\.(acks_tx|naks_tx|fc\.initfc_tx|fc\.updatefc_tx)$`)
	reFCStalls    = regexp.MustCompile(`^pcie\..*\.(up|down)\.fc\.stalls_(p|np|cpl)$`)
	reInjected    = regexp.MustCompile(`^pcie\..*\.(up|down)\.(crc_errors|bad_dllps|dropped)$`)
	reQPushed     = regexp.MustCompile(`\.(reqq|respq|memq)\.pushed$`)
	reQRefused    = regexp.MustCompile(`\.(reqq|respq|memq)\.refusals$`)
	reQSent       = regexp.MustCompile(`\.(reqq|respq|memq)\.sent$`)
	reRouterQRef  = regexp.MustCompile(`^(rc|switch|sw\d+)\..*\.refusals$`)
	reDiskSectors = regexp.MustCompile(`^disk\d*\.sectors$`)
	reNICFrames   = regexp.MustCompile(`^nic\d*\.(rx_frames|tx_frames)$`)
	reCPUAccesses = regexp.MustCompile(`^cpu\d+\.(reads|writes)$`)
	reCPUIRQs     = regexp.MustCompile(`^cpu\d+\.irqs$`)
)

// detMetrics derives the deterministic per-layer metrics of one
// simulation from its counters before and after the timed run call.
func detMetrics(sys *topo.System, before, after map[string]uint64) map[string]float64 {
	d := func(name string) uint64 { return after[name] - before[name] }
	sum := func(re *regexp.Regexp) uint64 { return counterSum(before, after, re) }
	delivered := sum(reDelivered)
	hits, misses := d("iocache.hits"), d("iocache.misses")
	return map[string]float64{
		"sim.fired":                float64(d("sim.fired")),
		"sim.recycled":             float64(d("sim.recycled")),
		"pcie.link.tlps_delivered": float64(delivered),
		"pcie.link.tx":             float64(sum(reTx)),
		"pcie.link.replays":        float64(sum(reReplays)),
		"pcie.link.timeouts":       float64(sum(reTimeouts)),
		"pcie.link.naks":           float64(sum(reNaks)),
		"pcie.link.dllps":          float64(sum(reDLLPs)),
		"pcie.link.fc_stalls":      float64(sum(reFCStalls)),
		"pcie.router.refusals":     float64(sum(reRouterQRef) + routerLinkRefusals(sys, before, after)),
		"mem.sendq.pushed":         float64(sum(reQPushed)),
		"mem.sendq.refusals":       float64(sum(reQRefused)),
		"mem.sendq.sent":           float64(sum(reQSent)),
		"mem.pool.allocs":          float64(d("mem.pool.allocs")),
		"mem.pool.reuses":          float64(d("mem.pool.reuses")),
		"cache.hits":               float64(hits),
		"cache.misses":             float64(misses),
		"cache.refused_mshr":       float64(d("iocache.refused_mshr")),
		"cache.refused_wb":         float64(d("iocache.refused_wb")),
		"memctrl.accesses":         float64(d("dram.reads") + d("dram.writes")),
		"memctrl.refused":          float64(d("dram.refused")),
		"devices.disk_sectors":     float64(sum(reDiskSectors)),
		"devices.nic_frames":       float64(sum(reNICFrames)),
		"kernel.cpu_accesses":      float64(sum(reCPUAccesses)),
		"kernel.irqs":              float64(sum(reCPUIRQs)),
		"fault.injected":           float64(sum(reInjected)),
	}
}

// routerLinkRefusals counts TLPs a router port refused from a link: the
// delivery refusals (and, on credit links, receive-queue refusals) of
// every link end wired to a root or switch port. A link's upstream end
// always is; its downstream end is when the link leads to a switch.
func routerLinkRefusals(sys *topo.System, before, after map[string]uint64) uint64 {
	var n uint64
	for _, li := range sys.Links {
		ends := []string{"up"}
		if li.Node.Kind == topo.KindSwitch {
			ends = append(ends, "down")
		}
		for _, end := range ends {
			for _, c := range []string{"delivery_refused", "fc.rx_refused"} {
				name := "pcie." + li.Name + "." + end + "." + c
				n += after[name] - before[name]
			}
		}
	}
	return n
}

// Command ddbench regenerates the dd-throughput figures of the paper's
// evaluation (Fig 9(a)-(d)) and prints Table I.
//
// Usage:
//
//	ddbench [-fig 9a|9b|9c|9d|err|fc|degrade|lat|scen|wl|all] [-scale N] [-jobs N] [-csv] [-table1]
//
// -scale divides the paper's 64-512 MiB block sizes (and dd's fixed
// startup overhead) by N; 1 reproduces the full-size experiment, the
// default 16 runs in a couple of minutes with an identical curve.
//
// -jobs fans a figure's independent (series, block-size) runs across N
// workers. Each run is its own single-threaded simulation, so the
// output is byte-identical at any job count; -jobs -1 uses every CPU.
//
// The observability flags apply per run within a sweep: with
// `-stats-out stats.json` each (series, block-size) point writes
// stats-<series>@<block>MB.json, and `-trace trace.json` likewise
// writes one Chrome trace per run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"

	"pciesim"
	"pciesim/internal/obscli"
	"pciesim/internal/sim"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 9a, 9b, 9c, 9d, err, fc, degrade, lat, scen, wl or all")
	topoSpec := flag.String("topo", "", "sweep block sizes over an arbitrary topology: a canned scenario name or a spec like \"switch:x4(disk*8)\"")
	scale := flag.Int("scale", 16, "divide the paper's block sizes by this factor")
	jobs := flag.Int("jobs", 1, "parallel simulation runs (-1 = one per CPU); output is identical at any value")
	csv := flag.Bool("csv", false, "emit CSV instead of aligned tables")
	table1 := flag.Bool("table1", false, "also print Table I (protocol overheads)")
	var obs obscli.Flags
	obs.Register(flag.CommandLine)
	flag.Parse()

	if *table1 {
		printTableI()
	}

	opt := pciesim.Options{Scale: *scale, Jobs: *jobs}
	if obs.Active() {
		// One armed copy per run; dumps are suffixed with the run label.
		// Observe runs concurrently under -jobs, so the map is locked;
		// ObserveDone is serialized by the sweep runner.
		var mu sync.Mutex
		armed := make(map[*sim.Engine]*obscli.Flags)
		opt.Observe = func(eng *sim.Engine, label string) error {
			f := obs.ForRun(label)
			if err := f.Arm(eng); err != nil {
				return err
			}
			mu.Lock()
			armed[eng] = f
			mu.Unlock()
			return nil
		}
		opt.ObserveDone = func(eng *sim.Engine, label string) error {
			mu.Lock()
			f := armed[eng]
			delete(armed, eng)
			mu.Unlock()
			if f.Stats {
				fmt.Printf("--- stats: %s ---\n", label)
			}
			return f.Finish(eng)
		}
	}
	if *topoSpec != "" {
		result, err := pciesim.RunTopoSweep(*topoSpec, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ddbench: %v\n", err)
			os.Exit(1)
		}
		if *csv {
			fmt.Print(result.CSV())
		} else {
			fmt.Println(result.Format())
		}
		return
	}

	runners := map[string]func(pciesim.Options) (pciesim.Figure, error){
		"9a": pciesim.RunFig9a,
		"9b": pciesim.RunFig9b,
		"9c": pciesim.RunFig9c,
		"9d": pciesim.RunFig9d,
	}
	// order is the -fig all sequence and doubles as the list of valid
	// figure names ("scen" is opt-in only: it is a scenario report, not
	// a paper figure).
	order := []string{"9a", "9b", "9c", "9d", "err", "fc", "degrade"}

	selected := order
	if *fig != "all" {
		// "scen", "lat" and "wl" are opt-in only: reports, not paper
		// figures.
		valid := *fig == "scen" || *fig == "lat" || *fig == "wl"
		for _, id := range order {
			if *fig == id {
				valid = true
			}
		}
		if !valid {
			fmt.Fprintf(os.Stderr, "ddbench: unknown figure %q; valid names: %s, lat, scen, wl, all\n",
				*fig, strings.Join(order, ", "))
			os.Exit(2)
		}
		selected = []string{*fig}
	}
	for _, id := range selected {
		if id == "err" {
			runFigErr(opt, *csv)
			continue
		}
		if id == "lat" {
			runFigLat(opt, *csv)
			continue
		}
		if id == "wl" {
			runFigWL(opt, *csv)
			continue
		}
		if id == "fc" {
			runFigFC(opt, *csv)
			continue
		}
		if id == "degrade" {
			runFigDegrade(opt, *csv)
			continue
		}
		if id == "scen" {
			report, err := pciesim.RunScenarios(nil, opt)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ddbench: %v\n", err)
				os.Exit(1)
			}
			if *csv {
				fmt.Print(report.CSV())
			} else {
				fmt.Print(report.Format())
			}
			continue
		}
		result, err := runners[id](opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ddbench: %v\n", err)
			os.Exit(1)
		}
		if *csv {
			fmt.Print(result.CSV())
		} else {
			fmt.Println(result.Format())
		}
	}
}

// runFigLat runs the latency-attribution comparison: the same dd
// write with healthy and credit-starved links, spans armed, reporting
// where each microsecond went per segment.
func runFigLat(opt pciesim.Options, csv bool) {
	result, err := pciesim.RunFigLat(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ddbench: %v\n", err)
		os.Exit(1)
	}
	if csv {
		fmt.Print(result.CSV())
	} else {
		fmt.Println(result.Format())
	}
}

// runFigWL runs the workload-engine figure: Poisson vs bursty NIC
// receive traffic at equal offered load, the random-read contention
// matrix, and the trace capture/replay byte-identity check.
func runFigWL(opt pciesim.Options, csv bool) {
	result, err := pciesim.RunFigWL(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ddbench: %v\n", err)
		os.Exit(1)
	}
	if csv {
		fmt.Print(result.CSV())
	} else {
		fmt.Println(result.Format())
	}
}

// runFigFC runs the flow-control credit sweep: a dd write over a
// long-latency link with a shrinking completion-credit pool.
func runFigFC(opt pciesim.Options, csv bool) {
	result, err := pciesim.RunFigFC(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ddbench: %v\n", err)
		os.Exit(1)
	}
	if csv {
		fmt.Print(result.CSV())
	} else {
		fmt.Println(result.Format())
	}
}

// runFigDegrade runs the adaptive-degradation staircase: dd on an x4
// Gen2 disk link held at each (Gen, Width) ladder level, plus a run
// that upgrade-retrains back to full speed mid-transfer.
func runFigDegrade(opt pciesim.Options, csv bool) {
	result, err := pciesim.RunFigDegrade(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ddbench: %v\n", err)
		os.Exit(1)
	}
	if csv {
		fmt.Print(result.CSV())
	} else {
		fmt.Println(result.Format())
	}
}

// runFigErr runs the error-containment sweep: dd against a disk link
// with stochastic corruption, a retrained down-window, and a dead link.
func runFigErr(opt pciesim.Options, csv bool) {
	result, err := pciesim.RunFigErr(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ddbench: %v\n", err)
		os.Exit(1)
	}
	if csv {
		fmt.Print(result.CSV())
	} else {
		fmt.Println(result.Format())
	}
}

func printTableI() {
	fmt.Println("Table I — transaction, data link, and physical layer overheads")
	fmt.Printf("%-14s %-50s %s\n", "Overhead", "Type of Overhead", "Packet Type")
	for _, r := range pciesim.TableI() {
		fmt.Printf("%-14s %-50s %s\n", r.Overhead, r.Type, r.PacketType)
	}
	fmt.Println()
}

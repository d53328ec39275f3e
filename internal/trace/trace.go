// Package trace is the opt-in event tracer: tick-stamped lifecycle
// events (TLP accepted, replayed, delivered; DMA chunk issued; IRQ
// raised; fault injected) grouped into categories that can be enabled
// independently. Events carry the per-engine packet ID threaded through
// mem.Packet, so one TLP can be followed inject → link → ACK →
// completion across components.
//
// Like internal/stats this is a leaf package: simulated time is raw
// uint64 ticks so internal/sim can depend on it.
//
// The hot-path contract: a nil *Tracer is valid and every method on it
// is a cheap no-op, so components guard emission with
//
//	if tr.On(trace.CatTLP) { tr.Emit(...) }
//
// and pay only a nil check plus a bit test when tracing is off —
// zero allocations.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Category is a bit flag selecting one class of events.
type Category uint32

const (
	// CatTLP covers transaction-layer packet lifecycle events.
	CatTLP Category = 1 << iota
	// CatDLLP covers data-link-layer packets (ACK/NAK).
	CatDLLP
	// CatDMA covers device DMA engine transfers and chunks.
	CatDMA
	// CatIRQ covers interrupt delivery.
	CatIRQ
	// CatFault covers injected faults, timeouts, and AER activity.
	CatFault
	// CatConfig covers PCI configuration-space accesses.
	CatConfig
	// CatSpan covers begin/end duration spans: the named segments
	// (tx-queue wait, fc-stall, wire, replay, switch arbitration,
	// completion turnaround) a TLP's latency decomposes into.
	CatSpan

	// CatAll enables every category.
	CatAll Category = 1<<iota - 1
)

var catNames = []struct {
	c    Category
	name string
}{
	{CatTLP, "tlp"},
	{CatDLLP, "dllp"},
	{CatDMA, "dma"},
	{CatIRQ, "irq"},
	{CatFault, "fault"},
	{CatConfig, "config"},
	{CatSpan, "span"},
}

// CategoryNames lists the parseable category names in declaration
// order, plus "all" — the vocabulary ParseCategories accepts.
func CategoryNames() []string {
	names := make([]string, 0, len(catNames)+1)
	for _, cn := range catNames {
		names = append(names, cn.name)
	}
	return append(names, "all")
}

// String names the set, e.g. "tlp|fault".
func (c Category) String() string {
	if c == 0 {
		return "none"
	}
	var parts []string
	for _, cn := range catNames {
		if c&cn.c != 0 {
			parts = append(parts, cn.name)
		}
	}
	return strings.Join(parts, "|")
}

// ParseCategories parses a comma-separated category list ("tlp,fault")
// or "all".
func ParseCategories(s string) (Category, error) {
	var c Category
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(strings.ToLower(part))
		if part == "" {
			continue
		}
		if part == "all" {
			c |= CatAll
			continue
		}
		found := false
		for _, cn := range catNames {
			if part == cn.name {
				c |= cn.c
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("trace: unknown category %q; valid names: %s",
				part, strings.Join(CategoryNames(), ", "))
		}
	}
	return c, nil
}

// Event is one recorded trace event.
type Event struct {
	Tick   uint64   // simulated time, picoseconds
	Cat    Category // exactly one category bit
	Comp   string   // emitting component, e.g. "pcie.disklink.up"
	Name   string   // event name, e.g. "replay"
	ID     uint64   // packet/transfer ID, 0 if not applicable
	Detail string   // free-form extra context, may be empty
	Phase  byte     // 0 = instant, 'b' = span begin, 'e' = span end
}

// Tracer records events for the enabled categories. The zero value
// with no categories records nothing; a nil *Tracer is also valid.
type Tracer struct {
	mask   Category
	events []Event
}

// New returns a tracer recording the given categories.
func New(mask Category) *Tracer {
	return &Tracer{mask: mask}
}

// On reports whether the category is being recorded. Callers must
// guard Emit with it so disabled tracing costs no argument evaluation.
func (t *Tracer) On(c Category) bool {
	return t != nil && t.mask&c != 0
}

// Emit records one event. Call only under On(cat).
func (t *Tracer) Emit(cat Category, tick uint64, comp, name string, id uint64, detail string) {
	if t == nil || t.mask&cat == 0 {
		return
	}
	t.events = append(t.events, Event{tick, cat, comp, name, id, detail, 0})
}

// Begin opens a duration span (CatSpan). The span is keyed by
// (name, id): End with the same pair closes it. Spans of distinct
// packets overlap freely — they render as async nestable tracks in
// Perfetto, paired by id. Call only under On(CatSpan).
func (t *Tracer) Begin(tick uint64, comp, name string, id uint64, detail string) {
	if t == nil || t.mask&CatSpan == 0 {
		return
	}
	t.events = append(t.events, Event{tick, CatSpan, comp, name, id, detail, 'b'})
}

// End closes the duration span opened by Begin with the same
// (name, id). Call only under On(CatSpan).
func (t *Tracer) End(tick uint64, comp, name string, id uint64, detail string) {
	if t == nil || t.mask&CatSpan == 0 {
		return
	}
	t.events = append(t.events, Event{tick, CatSpan, comp, name, id, detail, 'e'})
}

// Span records one completed duration span as a begin/end pair. It is
// the form instrumentation sites use: the pair is emitted at segment
// completion with the recorded begin tick, so every emitted span is
// closed by construction — begins and ends stay balanced under any
// fault path (flushed queues, dead links, dropped packets simply
// produce no span). Perfetto orders events by timestamp on import, so
// the out-of-emission-order begin renders correctly. Call only under
// On(CatSpan).
func (t *Tracer) Span(beginTick, endTick uint64, comp, name string, id uint64, detail string) {
	if t == nil || t.mask&CatSpan == 0 {
		return
	}
	t.events = append(t.events,
		Event{beginTick, CatSpan, comp, name, id, detail, 'b'},
		Event{endTick, CatSpan, comp, name, id, "", 'e'})
}

// SpanBalance returns the number of span begins and ends recorded —
// equal counts in a quiesced run mean every span was closed.
func (t *Tracer) SpanBalance() (begins, ends int) {
	for _, e := range t.Events() {
		switch e.Phase {
		case 'b':
			begins++
		case 'e':
			ends++
		}
	}
	return begins, ends
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Events returns the recorded events in emission order (which is
// tick order, since the engine is single-threaded).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// WriteText emits one line per event:
//
//	tick=1234567 cat=tlp comp=pcie.disklink.up event=accept id=42 detail...
func (t *Tracer) WriteText(w io.Writer) error {
	for _, e := range t.Events() {
		line := fmt.Sprintf("tick=%d cat=%s comp=%s event=%s", e.Tick, e.Cat, e.Comp, e.Name)
		if e.ID != 0 {
			line += fmt.Sprintf(" id=%d", e.ID)
		}
		if e.Detail != "" {
			line += " " + e.Detail
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// WriteChromeJSON emits the run as Chrome trace_event JSON (the format
// chrome://tracing and Perfetto open). Each emitting component becomes
// a named thread under pid 1; instant events render as "ph":"i" and
// duration spans as async nestable "ph":"b"/"e" pairs keyed by packet
// ID, so spans of different in-flight TLPs nest and overlap correctly
// instead of mispairing on one thread's begin/end stack. Events are
// stamped in microseconds with packet ID and detail in args. Thread
// IDs are assigned by sorted component name, so two identical runs
// emit byte-identical files.
func (t *Tracer) WriteChromeJSON(w io.Writer) error {
	comps := make(map[string]int)
	var names []string
	for _, e := range t.Events() {
		if _, ok := comps[e.Comp]; !ok {
			comps[e.Comp] = 0
			names = append(names, e.Comp)
		}
	}
	sort.Strings(names)
	for i, n := range names {
		comps[n] = i + 1
	}

	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(line string) error {
		if !first {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err := io.WriteString(w, line)
		return err
	}
	for _, n := range names {
		if err := emit(fmt.Sprintf(
			`{"name":"thread_name","ph":"M","pid":1,"tid":%d,"args":{"name":%q}}`,
			comps[n], n)); err != nil {
			return err
		}
	}
	for _, e := range t.Events() {
		// Ticks are picoseconds; trace_event ts is microseconds.
		ts := float64(e.Tick) / 1e6
		var line string
		switch e.Phase {
		case 'b', 'e':
			line = fmt.Sprintf(
				`{"name":%q,"cat":%q,"ph":%q,"id":%d,"pid":1,"tid":%d,"ts":%.6f,"args":{"detail":%q}}`,
				e.Name, e.Cat.String(), string(e.Phase), e.ID, comps[e.Comp], ts, e.Detail)
		default:
			line = fmt.Sprintf(
				`{"name":%q,"cat":%q,"ph":"i","s":"t","pid":1,"tid":%d,"ts":%.6f,"args":{"id":%d,"detail":%q}}`,
				e.Name, e.Cat.String(), comps[e.Comp], ts, e.ID, e.Detail)
		}
		if err := emit(line); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n]}\n")
	return err
}

// Package mem provides the memory-system substrate the PCIe models are
// built on: request/response packets, address ranges, and the two-sided
// timing port protocol with retry-based backpressure.
//
// The design mirrors the gem5 memory system that the paper targets. All
// transactions — CPU loads/stores, configuration accesses, MMIO, and
// device DMA — are Packets transported through ports. The paper's link
// model deliberately reuses these packets as its transaction layer
// packets (TLPs): "we use gem5 request and response packets as TLPs and
// do not introduce another packet type" (§V-C).
package mem

import "fmt"

// Cmd identifies the kind of memory transaction a packet carries.
type Cmd uint8

// Packet commands. Requests travel from masters toward slaves; responses
// travel the opposite way along the same path.
const (
	InvalidCmd Cmd = iota
	ReadReq
	ReadResp
	WriteReq
	WriteResp
)

// String implements fmt.Stringer.
func (c Cmd) String() string {
	switch c {
	case ReadReq:
		return "ReadReq"
	case ReadResp:
		return "ReadResp"
	case WriteReq:
		return "WriteReq"
	case WriteResp:
		return "WriteResp"
	default:
		return fmt.Sprintf("Cmd(%d)", uint8(c))
	}
}

// IsRequest reports whether the command is a request.
func (c Cmd) IsRequest() bool { return c == ReadReq || c == WriteReq }

// IsResponse reports whether the command is a response.
func (c Cmd) IsResponse() bool { return c == ReadResp || c == WriteResp }

// IsRead reports whether the command moves data toward the requestor.
func (c Cmd) IsRead() bool { return c == ReadReq || c == ReadResp }

// IsWrite reports whether the command moves data toward the completer.
func (c Cmd) IsWrite() bool { return c == WriteReq || c == WriteResp }

// NeedsResponse reports whether a completer must answer the request.
// Like the paper's gem5 model — and unlike real PCIe — writes are
// non-posted: every write request receives a write response. The paper
// calls this out as one source of its bandwidth gap versus hardware.
func (c Cmd) NeedsResponse() bool { return c.IsRequest() }

// ResponseFor returns the response command matching a request command.
func (c Cmd) ResponseFor() Cmd {
	switch c {
	case ReadReq:
		return ReadResp
	case WriteReq:
		return WriteResp
	default:
		panic(fmt.Sprintf("mem: no response command for %v", c))
	}
}

// NoBus is the initial value of Packet.BusNum: "we create a PCI bus
// number field in the packet class, and initialize it to -1" (§V-A).
const NoBus = -1

// Packet is one memory transaction. A request packet travels from its
// requestor to the completer identified by Addr; the completer turns it
// into a response (see MakeResponse) that retraces the path.
//
// Packets are mutated in place as they move: components that need
// per-hop state push onto the route stack on the request path and pop it
// on the response path, exactly like gem5 crossbars track their ingress
// port.
type Packet struct {
	// ID is a unique (per Allocator) packet identity, stable across the
	// request/response transformation. It exists for tracing and for
	// requestors that juggle multiple outstanding transactions.
	ID uint64

	Cmd  Cmd
	Addr uint64
	// Size is the number of bytes read or written. For the PCIe models
	// it doubles as the TLP payload size: writes carry Size bytes of
	// payload, read requests carry none, read responses carry Size.
	Size int

	// Data optionally carries the payload. Timing models in this
	// repository move sizes, not bytes, on the hot path; Data is
	// populated for configuration/MMIO traffic where values matter.
	Data []byte

	// BusNum is the PCI bus number field the paper adds to the gem5
	// packet class for routing completions back through the PCI-Express
	// fabric. It starts at NoBus and is stamped by the first root
	// complex or switch slave port the request enters (§V-A).
	BusNum int

	// Posted marks a write that needs no completion, like a real
	// PCI-Express memory-write TLP. The paper's gem5 model does not
	// support posted writes and names that as a bandwidth limiter
	// (§VI-B); the flag exists to quantify exactly that ablation.
	// Completers drop posted requests after applying them instead of
	// generating a response.
	Posted bool

	// Context is an opaque tag owned by the original requestor; the
	// interconnect carries it through untouched.
	Context any

	// Error marks a synthesized error completion: the completer never
	// answered (completion timeout, dead link) and the root complex or
	// a DMA engine fabricated the response. Like real PCIe, the data
	// of an errored read is all-ones.
	Error bool

	route []routeHop

	// pool, when non-nil, is the Pool this packet was drawn from;
	// Release returns it there. Nil for directly-allocated packets
	// (tests, error completions), for which Release is a no-op.
	pool *Pool
}

type routeHop struct {
	owner any
	port  int
}

// NewPacket builds a request packet. Most callers go through an
// Allocator so IDs stay unique; NewPacket itself is for tests.
func NewPacket(cmd Cmd, addr uint64, size int) *Packet {
	return &Packet{Cmd: cmd, Addr: addr, Size: size, BusNum: NoBus}
}

// Reinit turns a packet whose response has come home — every route hop
// popped — back into a fresh request, exactly as NewPacket builds one
// but keeping the route stack's backing array. It serves components
// that recycle their own internally issued packets outside any Pool.
func (p *Packet) Reinit(cmd Cmd, addr uint64, size int) {
	if len(p.route) != 0 {
		panic(fmt.Sprintf("mem: Reinit of packet %d with %d unpopped route hops", p.ID, len(p.route)))
	}
	*p = Packet{Cmd: cmd, Addr: addr, Size: size, BusNum: NoBus, route: p.route}
}

// IDSource hands out packet IDs. sim.Engine implements it; binding
// allocators to the engine makes IDs unique across every requestor of
// one simulation (monotonic per engine, no global state), so a trace
// can follow one TLP through CPU, fabric, and device by ID alone.
type IDSource interface {
	NextPacketID() uint64
}

// Allocator hands out packets with unique IDs. It is a value type owned
// by whichever component originates traffic (CPU model, DMA engines).
// An unbound Allocator numbers packets from its own counter — enough
// for single-requestor tests; components in an assembled system call
// Bind so IDs are unique engine-wide.
type Allocator struct {
	next uint64
	src  IDSource
	pool *Pool
}

// Bind makes the allocator draw IDs from src (normally the engine).
func (a *Allocator) Bind(src IDSource) { a.src = src }

// BindPool makes the allocator recycle packets through the given pool;
// consumers release them with Packet.Release. A nil pool reverts to
// per-request heap allocation.
func (a *Allocator) BindPool(p *Pool) { a.pool = p }

// NewRequest allocates a request packet with the next free ID.
func (a *Allocator) NewRequest(cmd Cmd, addr uint64, size int) *Packet {
	if !cmd.IsRequest() {
		panic(fmt.Sprintf("mem: NewRequest with %v", cmd))
	}
	var id uint64
	if a.src != nil {
		id = a.src.NextPacketID()
	} else {
		a.next++
		id = a.next
	}
	p := a.pool.get()
	p.ID = id
	p.Cmd = cmd
	p.Addr = addr
	p.Size = size
	p.BusNum = NoBus
	return p
}

// PoolStats is the pool's allocation accounting.
type PoolStats struct {
	// Allocs counts fresh heap allocations (pool misses).
	Allocs uint64
	// Reuses counts packets served from the free list.
	Reuses uint64
	// Releases counts packets returned by Release.
	Releases uint64
}

// Live returns the number of packets currently checked out — the
// leak-check metric: a drained, fault-free simulation must return to
// zero. Packets legitimately stranded by fault injection (black-holed
// on a dead link, abandoned by a DMA timeout) stay checked out forever
// and show up here, which is exactly what the accounting is for.
func (s PoolStats) Live() uint64 { return s.Allocs + s.Reuses - s.Releases }

// Pool is a free list of Packets private to one simulation. It removes
// the per-transaction heap allocation from the request hot path: the
// requestor's Allocator draws packets from the pool and whoever
// consumes a packet (the requestor for completions, the completer for
// posted writes) calls Release.
//
// A released packet may still be referenced by a link replay buffer
// until the cumulative ACK arrives; the DLL layer tolerates this by
// snapshotting wire sizes at admission (see pcie.PciePkt), so a
// recycled packet is never re-read for timing. Pools are engine-local
// and therefore need no locking — sharing one across concurrently
// running simulations would be a data race.
type Pool struct {
	free  []*Packet
	stats PoolStats
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// Stats returns the accounting counters.
func (pl *Pool) Stats() PoolStats { return pl.stats }

// get returns a recycled or fresh packet. A nil pool allocates.
func (pl *Pool) get() *Packet {
	if pl == nil {
		return &Packet{}
	}
	if n := len(pl.free); n > 0 {
		p := pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		pl.stats.Reuses++
		p.pool = pl
		return p
	}
	pl.stats.Allocs++
	return &Packet{pool: pl}
}

// Release returns a consumed packet to its pool. It is a no-op for
// packets that did not come from a pool (direct NewPacket allocations,
// synthesized error completions), so consumers can call it
// unconditionally. The caller must drop every reference: the packet's
// identity is dead and the object will be reissued. The route stack's
// backing array is kept so rerouted reuses do not reallocate it.
func (p *Packet) Release() {
	pl := p.pool
	if pl == nil {
		return
	}
	route := p.route[:0]
	*p = Packet{route: route}
	pl.free = append(pl.free, p)
	pl.stats.Releases++
}

// MakeResponse converts the request packet into its response in place.
// Identity, address, size, bus number, route stack and context are
// preserved so the response can retrace the request path.
func (p *Packet) MakeResponse() *Packet {
	if !p.Cmd.IsRequest() {
		panic(fmt.Sprintf("mem: MakeResponse on %v", p.Cmd))
	}
	p.Cmd = p.Cmd.ResponseFor()
	return p
}

// MakeErrorResponse builds a NEW packet that answers p with an error
// completion. It does not mutate p: the original request may still be
// sitting in a link replay buffer or a device queue, so the synthesized
// completion must be an independent object. The route stack is cloned
// so the error completion retraces the request path; read data is
// all-ones, the value a real root complex returns for a failed
// non-posted request.
func (p *Packet) MakeErrorResponse() *Packet {
	if !p.Cmd.IsRequest() {
		panic(fmt.Sprintf("mem: MakeErrorResponse on %v", p.Cmd))
	}
	r := &Packet{
		ID:      p.ID,
		Cmd:     p.Cmd.ResponseFor(),
		Addr:    p.Addr,
		Size:    p.Size,
		BusNum:  p.BusNum,
		Context: p.Context,
		Error:   true,
		route:   append([]routeHop(nil), p.route...),
	}
	if r.Cmd.IsRead() && r.Size > 0 {
		r.Data = make([]byte, r.Size)
		for i := range r.Data {
			r.Data[i] = 0xff
		}
	}
	return r
}

// PushRoute records that the packet entered through port index port of
// the given component. The matching PopRoute on the response path
// returns the index.
func (p *Packet) PushRoute(owner any, port int) {
	p.route = append(p.route, routeHop{owner, port})
}

// PopRoute removes and returns the port recorded by the most recent
// PushRoute. The owner must match; a mismatch means a component forgot
// to pop its hop and would misroute every response after it, so it
// panics immediately instead.
func (p *Packet) PopRoute(owner any) int {
	if len(p.route) == 0 {
		panic(fmt.Sprintf("mem: PopRoute(%T) on packet %d with empty route", owner, p.ID))
	}
	hop := p.route[len(p.route)-1]
	if hop.owner != owner {
		panic(fmt.Sprintf("mem: PopRoute owner mismatch on packet %d: have %T, want %T",
			p.ID, owner, hop.owner))
	}
	p.route = p.route[:len(p.route)-1]
	return hop.port
}

// RouteDepth returns the number of un-popped hops; zero on a response
// means the packet is back at its requestor.
func (p *Packet) RouteDepth() int { return len(p.route) }

// String implements fmt.Stringer for trace output.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d %v addr=%#x size=%d bus=%d", p.ID, p.Cmd, p.Addr, p.Size, p.BusNum)
}

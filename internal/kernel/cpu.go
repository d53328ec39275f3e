package kernel

import (
	"encoding/binary"
	"fmt"

	"pciesim/internal/mem"
	"pciesim/internal/sim"
	"pciesim/internal/stats"
	"pciesim/internal/trace"
)

// CPU is the processor-side injection point for kernel tasks: a master
// port (wired to the MemBus) issuing one timing transaction at a time
// per task, plus the interrupt entry point.
type CPU struct {
	eng   *sim.Engine
	name  string
	port  *mem.MasterPort
	alloc mem.Allocator

	// IRQLatency models interrupt dispatch cost (vector, context) from
	// device signal to handler execution.
	IRQLatency sim.Tick

	inflight map[uint64]*pendingOp
	sendQ    []*pendingOp // ops awaiting port acceptance
	blocked  bool
	opFree   []*pendingOp // recycled op records

	irqHandlers map[int]func()
	irqNames    map[int]string // cached "<cpu>.irq<N>" event names

	// Stats.
	reads, writes, irqs uint64
	opLat               *stats.Histogram
}

type pendingOp struct {
	task     *Task
	pkt      *mem.Packet
	buf      [4]byte
	issuedAt sim.Tick
}

// NewCPU creates the kernel's CPU-side port owner. Packet IDs come
// from the engine so they are unique across every requestor.
func NewCPU(eng *sim.Engine, name string) *CPU {
	c := &CPU{
		eng:         eng,
		name:        name,
		inflight:    make(map[uint64]*pendingOp),
		irqHandlers: make(map[int]func()),
		irqNames:    make(map[int]string),
	}
	c.alloc.Bind(eng)
	r := eng.Stats()
	r.CounterFunc(name+".reads", func() uint64 { return c.reads })
	r.CounterFunc(name+".writes", func() uint64 { return c.writes })
	r.CounterFunc(name+".irqs", func() uint64 { return c.irqs })
	c.opLat = r.Histogram(name + ".op_latency")
	return c
}

// Port returns the master port to wire to the MemBus.
func (c *CPU) Port() *mem.MasterPort {
	if c.port == nil {
		c.port = mem.NewMasterPort(c.name+".port", c)
	}
	return c.port
}

// UsePacketPool recycles the CPU's request packets through the given
// engine-local pool.
func (c *CPU) UsePacketPool(p *mem.Pool) { c.alloc.BindPool(p) }

// Stats returns (reads, writes, interrupts taken).
func (c *CPU) Stats() (reads, writes, irqs uint64) { return c.reads, c.writes, c.irqs }

func (c *CPU) issue(t *Task, req procReq) {
	var op *pendingOp
	if n := len(c.opFree); n > 0 {
		op = c.opFree[n-1]
		c.opFree[n-1] = nil
		c.opFree = c.opFree[:n-1]
		*op = pendingOp{}
	} else {
		op = &pendingOp{}
	}
	op.task = t
	switch req.kind {
	case opRead:
		c.reads++
		op.pkt = c.alloc.NewRequest(mem.ReadReq, req.addr, req.size)
		op.pkt.Data = op.buf[:req.size]
	case opWrite:
		c.writes++
		op.pkt = c.alloc.NewRequest(mem.WriteReq, req.addr, req.size)
		binary.LittleEndian.PutUint32(op.buf[:], req.value)
		op.pkt.Data = op.buf[:req.size]
	}
	op.issuedAt = c.eng.Now()
	c.inflight[op.pkt.ID] = op
	c.sendQ = append(c.sendQ, op)
	c.pump()
}

func (c *CPU) pump() {
	for !c.blocked && len(c.sendQ) > 0 {
		op := c.sendQ[0]
		if !c.port.SendTimingReq(op.pkt) {
			c.blocked = true
			return
		}
		c.sendQ = c.sendQ[1:]
	}
}

// RecvTimingResp implements mem.MasterOwner: complete the op and resume
// its task.
func (c *CPU) RecvTimingResp(_ *mem.MasterPort, pkt *mem.Packet) bool {
	op, ok := c.inflight[pkt.ID]
	if !ok {
		panic(fmt.Sprintf("kernel %s: response for unknown packet %v", c.name, pkt))
	}
	delete(c.inflight, pkt.ID)
	c.opLat.Observe(uint64(c.eng.Now() - op.issuedAt))
	var v uint32
	if pkt.Cmd == mem.ReadResp {
		var buf [4]byte
		copy(buf[:pkt.Size], pkt.Data)
		v = binary.LittleEndian.Uint32(buf[:])
	}
	task := op.task
	op.task = nil
	op.pkt = nil
	c.opFree = append(c.opFree, op)
	pkt.Release()
	c.resume(task, v)
	return true
}

// RecvReqRetry implements mem.MasterOwner.
func (c *CPU) RecvReqRetry(*mem.MasterPort) {
	c.blocked = false
	c.pump()
}

// RegisterIRQ installs a handler for a legacy interrupt line.
func (c *CPU) RegisterIRQ(line int, handler func()) {
	if _, dup := c.irqHandlers[line]; dup {
		panic(fmt.Sprintf("kernel %s: IRQ %d registered twice", c.name, line))
	}
	c.irqHandlers[line] = handler
}

// TriggerIRQ is the device-facing interrupt line: it dispatches the
// registered handler after IRQLatency. Unhandled lines are counted but
// otherwise ignored, like a spurious interrupt.
func (c *CPU) TriggerIRQ(line int) {
	c.irqs++
	h := c.irqHandlers[line]
	if tr := c.eng.Tracer(); tr.On(trace.CatIRQ) {
		detail := ""
		if h == nil {
			detail = "spurious (no handler)"
		}
		tr.Emit(trace.CatIRQ, uint64(c.eng.Now()), c.name,
			fmt.Sprintf("irq%d", line), 0, detail)
	}
	if h == nil {
		return
	}
	evname, ok := c.irqNames[line]
	if !ok {
		evname = fmt.Sprintf("%s.irq%d", c.name, line)
		c.irqNames[line] = evname
	}
	c.eng.Schedule(evname, c.IRQLatency, h)
}

package sim

import "math"

// Priority orders events that are scheduled for the same tick. Lower
// values run first, matching gem5's convention. The pre-defined bands
// keep unrelated models from racing at tick boundaries: e.g. DLLP ACK
// processing must observe a consistent replay-buffer state before new
// TLP transmissions at the same tick are attempted.
type Priority int

// Priority bands, lowest (earliest) first.
const (
	PriorityTimer    Priority = -20 // expiring protocol timers
	PriorityDelivery Priority = -10 // packet deliveries across links/ports
	PriorityDefault  Priority = 0
	PriorityRetry    Priority = 10 // retry notifications after refusals
	PriorityStats    Priority = 50 // end-of-interval statistics sampling
)

// Event is a scheduled callback. Events are created by Engine.Schedule
// and friends; the zero value is not useful. An Event may be descheduled
// before it fires and rescheduled afterwards, mirroring the gem5 event
// lifecycle that the PCIe replay/ACK timers depend on.
//
// Events created by the fire-and-forget Schedule/ScheduleAt forms are
// recycled through the engine's free list after they fire: their handle
// must not be retained past the callback's execution (descheduling one
// before it fires remains safe). Long-lived, repeatedly rescheduled
// events come from NewEvent and are never recycled.
type Event struct {
	name string
	fn   func()

	when Tick
	prio Priority
	seq  uint64 // insertion order; breaks (when, prio) ties deterministically
	idx  int    // heap index, hotIdx in the hot slot, -1 when not queued

	// oneShot marks a Schedule/ScheduleAt event eligible for recycling
	// after it fires; nextFree links the engine's free list.
	oneShot  bool
	nextFree *Event
}

// Name returns the diagnostic name given at creation time.
func (e *Event) Name() string { return e.name }

// Scheduled reports whether the event currently sits in an engine queue.
func (e *Event) Scheduled() bool { return e != nil && e.idx >= 0 }

// When returns the tick the event is scheduled for. It is only
// meaningful while Scheduled() is true.
func (e *Event) When() Tick { return e.when }

// hotIdx is the idx an event carries while it sits in the hot slot:
// non-negative, so Scheduled() stays true, and never a heap index.
const hotIdx = math.MaxInt

// eventHeap is a binary min-heap ordered by (when, prio, seq), plus a
// one-event hot slot in front of it. It is implemented directly rather
// than via container/heap to avoid the interface boxing on this
// extremely hot path.
//
// Invariant: hot, when set, is below every key in items, so the
// minimum is hot if set and items[0] otherwise. A push that is a new
// strict minimum lands in the slot with no sift, and the next pop takes
// it back out the same way. That is the common same-tick wake-up: a
// callback schedules a follow-up at Now() that runs before anything
// already queued, which would otherwise sift to the root and straight
// back down. Keys are unique by seq, so the pop order is exactly the
// plain heap's.
type eventHeap struct {
	hot   *Event
	items []*Event
}

func (h *eventHeap) len() int {
	if h.hot != nil {
		return len(h.items) + 1
	}
	return len(h.items)
}

// peek returns the minimum event without removing it. The queue must
// not be empty.
func (h *eventHeap) peek() *Event {
	if h.hot != nil {
		return h.hot
	}
	return h.items[0]
}

func (h *eventHeap) less(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e *Event) {
	if h.hot == nil {
		if len(h.items) == 0 || h.less(e, h.items[0]) {
			h.hot = e
			e.idx = hotIdx
			return
		}
	} else if h.less(e, h.hot) {
		// e undercuts the slot: demote the old minimum into the heap,
		// where it is still below every other key.
		old := h.hot
		h.hot = e
		e.idx = hotIdx
		h.pushItem(old)
		return
	}
	h.pushItem(e)
}

func (h *eventHeap) pushItem(e *Event) {
	e.idx = len(h.items)
	h.items = append(h.items, e)
	h.up(e.idx)
}

func (h *eventHeap) pop() *Event {
	if top := h.hot; top != nil {
		h.hot = nil
		top.idx = -1
		return top
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items[0].idx = 0
	h.items[last] = nil
	h.items = h.items[:last]
	if last > 0 {
		h.down(0)
	}
	top.idx = -1
	return top
}

// inItems reports whether e is queued in items (not the hot slot).
func (h *eventHeap) inItems(e *Event) bool {
	i := e.idx
	return i >= 0 && i < len(h.items) && h.items[i] == e
}

// remove extracts an arbitrary event from the slot or the heap.
func (h *eventHeap) remove(e *Event) {
	if e == h.hot {
		h.hot = nil
		e.idx = -1
		return
	}
	if !h.inItems(e) {
		return
	}
	i := e.idx
	last := len(h.items) - 1
	h.items[i] = h.items[last]
	h.items[i].idx = i
	h.items[last] = nil
	h.items = h.items[:last]
	if i < last {
		h.down(i)
		h.up(i)
	}
	e.idx = -1
}

// fix restores heap order after the key of e, queued in items, changed.
// A key that dropped below the hot slot's takes the slot, and the old
// slot event takes e's place at the root: it was below every other
// item, so the heap stays valid.
func (h *eventHeap) fix(e *Event) {
	i := e.idx
	h.down(i)
	if e.idx == i {
		h.up(i)
	}
	if h.hot != nil && e.idx == 0 && h.less(e, h.hot) {
		h.items[0] = h.hot
		h.hot.idx = 0
		h.hot = e
		e.idx = hotIdx
	}
}

func (h *eventHeap) up(i int) {
	item := h.items[i]
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(item, h.items[parent]) {
			break
		}
		h.items[i] = h.items[parent]
		h.items[i].idx = i
		i = parent
	}
	h.items[i] = item
	item.idx = i
}

func (h *eventHeap) down(i int) {
	item := h.items[i]
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		child := left
		if right := left + 1; right < n && h.less(h.items[right], h.items[left]) {
			child = right
		}
		if !h.less(h.items[child], item) {
			break
		}
		h.items[i] = h.items[child]
		h.items[i].idx = i
		i = child
	}
	h.items[i] = item
	item.idx = i
}

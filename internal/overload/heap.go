package overload

// ValueHeap is the per-operator priority structure of pattern-aware
// shedding: a min-heap of retained state units keyed by completion score,
// with handle-based O(log n) removal so operators can drop items as
// partial matches advance stages or expire. The heap
// stores upper-bound scores — completion probability only decreases as
// event time advances — so popping the minimum stored score yields a
// sound (approximate) lowest-value victim without rescoring every item.
// Not goroutine-safe: each operator instance owns its heap.
type ValueHeap struct {
	items []*HeapItem
}

// HeapItem is one scored unit of state. Payload identifies the unit to
// its operator; Score is the completion score it was last assigned.
type HeapItem struct {
	Score   float64
	Payload any
	index   int
}

// Len returns the number of live items.
func (h *ValueHeap) Len() int { return len(h.items) }

// Push inserts a unit with the given score and returns its handle.
func (h *ValueHeap) Push(score float64, payload any) *HeapItem {
	it := &HeapItem{Score: score, Payload: payload, index: len(h.items)}
	h.items = append(h.items, it)
	h.up(it.index)
	return it
}

// Remove detaches an item in O(log n). A nil or already-removed item is
// ignored, so operators can unconditionally Remove on every state
// death path.
func (h *ValueHeap) Remove(it *HeapItem) {
	if it == nil || it.index < 0 {
		return
	}
	i := it.index
	last := len(h.items) - 1
	h.swap(i, last)
	h.items = h.items[:last]
	it.index = -1
	if i < last {
		h.fix(i)
	}
}

// PeekMin returns the lowest-scored item without removing it, or nil
// when empty.
func (h *ValueHeap) PeekMin() *HeapItem {
	if len(h.items) == 0 {
		return nil
	}
	return h.items[0]
}

// PopMin removes and returns the lowest-scored item, or nil when empty.
func (h *ValueHeap) PopMin() *HeapItem {
	if len(h.items) == 0 {
		return nil
	}
	it := h.items[0]
	h.Remove(it)
	return it
}

func (h *ValueHeap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.items[i].index = i
	h.items[j].index = j
}

func (h *ValueHeap) fix(i int) {
	if !h.down(i) {
		h.up(i)
	}
}

func (h *ValueHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].Score <= h.items[i].Score {
			return
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *ValueHeap) down(i int) bool {
	moved := false
	n := len(h.items)
	for {
		left := 2*i + 1
		if left >= n {
			return moved
		}
		min := left
		if right := left + 1; right < n && h.items[right].Score < h.items[left].Score {
			min = right
		}
		if h.items[i].Score <= h.items[min].Score {
			return moved
		}
		h.swap(i, min)
		i = min
		moved = true
	}
}

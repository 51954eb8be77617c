package asp

import (
	"sync"

	"cep2asp/internal/obs"
)

// batchPool recycles the []Record slices that carry batched records across
// inter-instance channels. The lifecycle is fully engine-controlled: a
// sender gets a buffer, fills it and hands it to the channel; the receiver
// processes the records in place (operators borrow each for one OnRecord
// call, the barrier stash copies what it keeps) and puts the buffer back. No
// operator or sink ever holds a reference to a batch slice, so recycling
// cannot be observed outside the engine.
type batchPool struct {
	pool sync.Pool
	size int
	obs  *obs.PoolMetrics // nil without a metrics registry
}

func newBatchPool(size int, pm *obs.PoolMetrics) *batchPool {
	return &batchPool{size: size, obs: pm}
}

// get returns an empty buffer with capacity for one full batch.
func (p *batchPool) get() []Record {
	if v := p.pool.Get(); v != nil {
		p.obs.Hit()
		return (*(v.(*[]Record)))[:0]
	}
	p.obs.Miss()
	return make([]Record, 0, p.size)
}

// put recycles a buffer. Records are not zeroed: any Match pointers they
// carry stay reachable at most until the GC clears the pool, and the next
// get overwrites them before anything reads the slice.
func (p *batchPool) put(b []Record) {
	if cap(b) == 0 {
		return
	}
	b = b[:0]
	p.pool.Put(&b)
}

// Per-operator-instance free lists. Stateful operators buffer records and
// constituent slices whose lifetime the operator fully controls (evicted
// panes, deleted groups, dedup-rejected match buffers); instead of leaving
// them to the GC they return to a small per-instance free list. No locking:
// the engine serializes all calls to one instance.

// freeListCap bounds per-instance free lists; beyond it, slices are left to
// the GC rather than retained indefinitely after a burst.
const freeListCap = 256

// takeSlice pops a recycled slice (length 0) from the free list, or returns
// nil when the list is empty.
func takeSlice[T any](free *[][]T) []T {
	l := len(*free)
	if l == 0 {
		return nil
	}
	s := (*free)[l-1]
	*free = (*free)[:l-1]
	return s[:0]
}

// stashSlice returns a slice's storage to the free list. Elements are not
// zeroed; the next take truncates to length 0 and appends over them.
func stashSlice[T any](free *[][]T, s []T) {
	if cap(s) > 0 && len(*free) < freeListCap {
		*free = append(*free, s[:0])
	}
}

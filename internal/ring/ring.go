// Package ring provides the lock-free sharded drop-oldest ring buffer
// shared by the trace collector (finished spans) and the logging flight
// recorder (per-component records): bounded memory, writers that never
// block each other or a reader, and displacement reported to the caller so
// each plane keeps its own drop accounting.
package ring

import "sync/atomic"

// Shards is the number of independently advancing shards a ring spreads
// over, so concurrent writers (delivery shard workers, transport handlers)
// never contend on one counter. Power of two for cheap masking.
const Shards = 8

// Sharded is a lock-free sharded drop-oldest ring of *T. Writers pick a
// shard from a caller-supplied key and swap the value into the shard's next
// slot; an overwritten slot reports a displacement. Snapshot walks the
// slots with atomic loads, so a reader never blocks a writer. The zero
// value is unusable; call Init first.
type Sharded[T any] struct {
	shards [Shards]shard[T]
	perCap int
}

type shard[T any] struct {
	slots []atomic.Pointer[T]
	next  atomic.Uint64
	// pad out the hot counter so neighbouring shards do not false-share.
	_ [48]byte
}

// Init sizes the ring to hold about capacity values (rounded up to a
// multiple of the shard count).
func (r *Sharded[T]) Init(capacity int) {
	per := (capacity + Shards - 1) / Shards
	r.perCap = per
	for i := range r.shards {
		r.shards[i].slots = make([]atomic.Pointer[T], per)
	}
}

// Add stores v in the shard key selects, reporting whether an older value
// was displaced.
func (r *Sharded[T]) Add(v *T, key uint64) (displaced bool) {
	sh := &r.shards[key&(Shards-1)]
	idx := (sh.next.Add(1) - 1) % uint64(len(sh.slots))
	return sh.slots[idx].Swap(v) != nil
}

// Occupancy reports the number of values currently held.
func (r *Sharded[T]) Occupancy() int64 {
	var n int64
	for i := range r.shards {
		written := int64(r.shards[i].next.Load())
		if slots := int64(len(r.shards[i].slots)); written > slots {
			written = slots
		}
		n += written
	}
	return n
}

// Capacity reports the ring's value capacity.
func (r *Sharded[T]) Capacity() int { return r.perCap * Shards }

// Snapshot copies out every retained value, in no particular order. Values
// are shared, not copied: callers must treat them as read-only.
func (r *Sharded[T]) Snapshot() []*T {
	out := make([]*T, 0, r.Occupancy())
	for i := range r.shards {
		for j := range r.shards[i].slots {
			if v := r.shards[i].slots[j].Load(); v != nil {
				out = append(out, v)
			}
		}
	}
	return out
}

package ring

import (
	"sync"
	"testing"
)

func TestDropOldestAccounting(t *testing.T) {
	var r Sharded[int]
	r.Init(10) // rounds up to 2 slots per shard
	if got := r.Capacity(); got != 2*Shards {
		t.Fatalf("Capacity = %d, want %d", got, 2*Shards)
	}
	displaced := 0
	for i := 0; i < 5*Shards; i++ {
		v := i
		if r.Add(&v, uint64(i)) {
			displaced++
		}
	}
	if want := 5*Shards - r.Capacity(); displaced != want {
		t.Errorf("displaced %d, want %d", displaced, want)
	}
	if got := r.Occupancy(); got != int64(r.Capacity()) {
		t.Errorf("Occupancy = %d, want %d", got, r.Capacity())
	}
	// Each shard keeps its newest values: the last two rounds of keys.
	snap := r.Snapshot()
	if len(snap) != r.Capacity() {
		t.Fatalf("snapshot holds %d values, want %d", len(snap), r.Capacity())
	}
	for _, v := range snap {
		if *v < 3*Shards {
			t.Errorf("snapshot kept %d, older than the newest two per shard", *v)
		}
	}
}

func TestConcurrentAddSnapshot(t *testing.T) {
	var r Sharded[int]
	r.Init(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v := i
				r.Add(&v, uint64(w*1000+i))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Occupancy(); got != int64(r.Capacity()) {
		t.Errorf("Occupancy = %d, want full %d", got, r.Capacity())
	}
}

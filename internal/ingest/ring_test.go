package ingest

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// numbered is item i of a test sequence; its offset carries i.
func numbered(i uint64) item {
	return item{tag: "t", off: int32(i)}
}

func TestRingCapacityRounding(t *testing.T) {
	for _, c := range []struct{ in, want int }{
		{0, 2}, {1, 2}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {8, 8}, {1000, 1024},
	} {
		if got := newRing(c.in).capacity(); got != c.want {
			t.Errorf("newRing(%d).capacity() = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestRingFIFOAcrossWrap(t *testing.T) {
	// Push/pop in random-length runs for far more items than the
	// capacity, so the indices wrap many times; every popped item must
	// come out exactly once, in order.
	r := newRing(8)
	rng := rand.New(rand.NewSource(1))
	var pushed, popped uint64
	const total = 10000
	for popped < total {
		for k := rng.Intn(r.capacity() + 2); k > 0 && pushed < total; k-- {
			if !r.push(numbered(pushed)) {
				if r.len() != r.capacity() {
					t.Fatalf("push failed at len %d of %d", r.len(), r.capacity())
				}
				break
			}
			pushed++
		}
		for k := rng.Intn(r.capacity() + 2); k > 0; k-- {
			it, ok := r.pop()
			if !ok {
				if r.len() != 0 {
					t.Fatalf("pop failed at len %d", r.len())
				}
				break
			}
			if uint64(it.off) != popped {
				t.Fatalf("popped %d, want %d (lost or duplicated across wrap)", uint64(it.off), popped)
			}
			popped++
		}
	}
	if pushed != popped {
		t.Fatalf("pushed %d != popped %d", pushed, popped)
	}
}

func TestRingFullAndEmpty(t *testing.T) {
	r := newRing(4)
	for i := uint64(0); i < 4; i++ {
		if !r.push(numbered(i)) {
			t.Fatalf("push %d failed below capacity", i)
		}
	}
	if r.push(numbered(99)) {
		t.Fatalf("push succeeded on a full ring")
	}
	if r.len() != 4 {
		t.Fatalf("len = %d, want 4", r.len())
	}
	for i := uint64(0); i < 4; i++ {
		it, ok := r.pop()
		if !ok || uint64(it.off) != i {
			t.Fatalf("pop %d: ok=%v item %d", i, ok, it.off)
		}
	}
	if _, ok := r.pop(); ok {
		t.Fatalf("pop succeeded on an empty ring")
	}
	if r.len() != 0 {
		t.Fatalf("len = %d, want 0", r.len())
	}
}

// TestRingConcurrentSPSC validates the two-atomic protocol under the
// race detector: one producer, one consumer, no lost or duplicated or
// reordered items across thousands of wraps.
func TestRingConcurrentSPSC(t *testing.T) {
	r := newRing(64)
	const total = 200000
	done := make(chan error, 1)
	go func() {
		want := uint64(0)
		for want < total {
			it, ok := r.pop()
			if !ok {
				runtime.Gosched()
				continue
			}
			if uint64(it.off) != want {
				done <- errOutOfOrder(uint64(it.off), want)
				return
			}
			want++
		}
		done <- nil
	}()
	for i := uint64(0); i < total; i++ {
		it := numbered(i)
		for !r.push(it) {
			runtime.Gosched()
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if r.len() != 0 {
		t.Fatalf("ring not drained: len %d", r.len())
	}
}

type orderErr struct{ got, want uint64 }

func errOutOfOrder(got, want uint64) error { return orderErr{got, want} }

func (e orderErr) Error() string {
	return fmt.Sprintf("popped %d, want %d (lost, duplicated or reordered)", e.got, e.want)
}

package sim

import "testing"

// TestChanBoundedMemory drives a million Put/Get cycles through one Chan
// and asserts the ring never grows beyond its tiny high-water mark. The
// pre-ring implementation re-sliced a growing backing array on every
// Get, so a long-lived queue retained every value it had ever carried;
// this is the regression test for that leak.
func TestChanBoundedMemory(t *testing.T) {
	var c Chan[*int]
	const cycles = 1 << 20
	for i := 0; i < cycles; i++ {
		a, b := i, i+1
		c.Put(&a)
		c.Put(&b)
		if got := c.take(); *got != i {
			t.Fatalf("cycle %d: got %d", i, *got)
		}
		if got := c.take(); *got != i+1 {
			t.Fatalf("cycle %d: got %d", i, *got)
		}
	}
	if c.n != 0 {
		t.Fatalf("queue not drained: %d items", c.n)
	}
	// High-water mark was 2, so the power-of-two ring must still be at
	// its minimum size — a growing buffer here is the leak coming back.
	if len(c.buf) > 4 {
		t.Errorf("ring grew to %d slots after %d bounded cycles", len(c.buf), cycles)
	}
	// Consumed slots must be zeroed so the ring pins no dead values.
	for i, v := range c.buf {
		if v != nil {
			t.Errorf("slot %d retains a consumed value", i)
		}
	}
}

// TestChanBlockingFIFO checks the process-facing contract under the
// kernel: Get blocks until Put, items arrive in order, and interleaved
// wraparound keeps FIFO order intact.
func TestChanBlockingFIFO(t *testing.T) {
	k := New(1)
	var c Chan[int]
	const n = 10000
	var got []int
	k.Go("consumer", func(p *Proc) {
		for i := 0; i < n; i++ {
			got = append(got, c.Get(p))
		}
	})
	k.Go("producer", func(p *Proc) {
		for i := 0; i < n; i++ {
			c.Put(i)
			if i%3 == 0 {
				p.Sleep(0) // vary occupancy so the ring wraps
			}
		}
	})
	k.Run()
	if len(got) != n {
		t.Fatalf("consumed %d of %d items", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("item %d out of order: got %d", i, v)
		}
	}
}

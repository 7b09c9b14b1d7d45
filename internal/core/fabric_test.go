package core

import (
	"testing"

	"fxnet/internal/ethernet"
)

// TestTrunkRelayDoesNotAllocate: a frame bridged across a trunk travels
// as the engine message's argument to a handler bound once per trunk
// direction, so relaying it allocates nothing — no closure per frame.
// Each step sends a batch from a host on lan0 to a host on lan1 and runs
// the engine to quiescence: bridge hand-off, cross-partition message,
// barrier, injection, delivery on the far segment, capture merge.
func TestTrunkRelayDoesNotAllocate(t *testing.T) {
	topo, err := ParseTopology("lan0:0,lan1:1")
	if err != nil {
		t.Fatal(err)
	}
	f := newFabric(RunConfig{Seed: 1, Topology: topo}, 2)
	defer f.close()
	k0, tx := f.attach("host0", 0)
	k1, rx := f.attach("host1", 1)
	received := 0
	rx.OnReceive(func(*ethernet.Frame) { received++ })
	const batch = 64
	frames := make([]*ethernet.Frame, batch)
	for i := range frames {
		frames[i] = &ethernet.Frame{Src: 0, Dst: 1, NetLen: 1500}
	}
	send := func() {
		for _, fr := range frames {
			tx.Send(fr)
		}
	}
	step := func() {
		// Each batch starts once both partitions' clocks have passed the
		// last one, so its trunk messages land in lan1's future.
		k0.At(max(k0.Now(), k1.Now()), "send", send)
		f.run(RunOpts{PDES: PDESSerial})
	}
	step() // learn both hosts, grow the queues, outboxes and free lists
	if received != batch {
		t.Fatalf("warm-up relayed %d of %d frames", received, batch)
	}
	if allocs := testing.AllocsPerRun(20, step); allocs != 0 {
		t.Errorf("relaying %d frames across a trunk: %.1f allocs per batch, want 0", batch, allocs)
	}
	if cross := f.eng.Stats().CrossMessages; cross < 21*batch {
		t.Errorf("%d cross-partition messages for %d relayed frames", cross, 21*batch)
	}
}

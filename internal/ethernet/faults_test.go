package ethernet

import (
	"testing"

	"fxnet/internal/sim"
)

// countReceivers wires a delivery counter onto every station.
func countReceivers(sts []*Station) []*int {
	counts := make([]*int, len(sts))
	for i, st := range sts {
		n := new(int)
		counts[i] = n
		st.OnReceive(func(f *Frame) { *n++ })
	}
	return counts
}

func TestLinkDownDropsThenRestores(t *testing.T) {
	k, seg, sts := newTestSegment(t, 2)
	counts := countReceivers(sts)

	sts[0].Send(dataFrame(1, 100))
	k.Run()
	if *counts[1] != 1 {
		t.Fatalf("baseline delivery = %d, want 1", *counts[1])
	}

	seg.SetLinkDown(1, true)
	sts[0].Send(dataFrame(1, 100))
	k.Run()
	if *counts[1] != 1 {
		t.Errorf("delivery to downed link = %d, want still 1", *counts[1])
	}
	if st := seg.Stats(); st.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", st.Dropped)
	}

	seg.SetLinkDown(1, false)
	sts[0].Send(dataFrame(1, 100))
	k.Run()
	if *counts[1] != 2 {
		t.Errorf("delivery after restore = %d, want 2", *counts[1])
	}
}

func TestLinkDownGatesSenderToo(t *testing.T) {
	k, seg, sts := newTestSegment(t, 2)
	counts := countReceivers(sts)

	seg.SetLinkDown(0, true)
	sts[0].Send(dataFrame(1, 100))
	k.Run()
	if *counts[1] != 0 {
		t.Errorf("frame from downed station delivered %d times", *counts[1])
	}
	if st := seg.Stats(); st.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", st.Dropped)
	}
}

// Satellite check: fault-gate drops are accounted separately from
// injected FCS corruption.
func TestDroppedCountedSeparatelyFromCorrupted(t *testing.T) {
	k, seg, sts := newTestSegment(t, 2)
	countReceivers(sts)

	seg.SetDropProb(1)
	sts[0].Send(dataFrame(1, 100))
	k.Run()
	if st := seg.Stats(); st.Corrupted != 1 || st.Dropped != 0 {
		t.Errorf("after corruption: Corrupted=%d Dropped=%d, want 1, 0",
			st.Corrupted, st.Dropped)
	}

	seg.SetDropProb(0)
	seg.SetSegmentDown(true)
	sts[0].Send(dataFrame(1, 100))
	k.Run()
	if st := seg.Stats(); st.Corrupted != 1 || st.Dropped != 1 {
		t.Errorf("after segment cut: Corrupted=%d Dropped=%d, want 1, 1",
			st.Corrupted, st.Dropped)
	}
}

func TestPartitionIsolatesGroupsUntilHeal(t *testing.T) {
	k, seg, sts := newTestSegment(t, 4)
	counts := countReceivers(sts)

	seg.SetPartition([][]int{{0, 1}, {2, 3}})
	sts[0].Send(dataFrame(1, 100)) // same side: delivered
	sts[0].Send(dataFrame(2, 100)) // across the cut: dropped
	k.Run()
	if *counts[1] != 1 || *counts[2] != 0 {
		t.Errorf("partitioned deliveries: to 1 = %d (want 1), to 2 = %d (want 0)",
			*counts[1], *counts[2])
	}
	if st := seg.Stats(); st.Dropped != 1 {
		t.Errorf("Dropped = %d, want 1", st.Dropped)
	}

	seg.Heal()
	sts[0].Send(dataFrame(2, 100))
	k.Run()
	if *counts[2] != 1 {
		t.Errorf("delivery after heal = %d, want 1", *counts[2])
	}
}

func TestBitRateDegradeStretchesOccupancy(t *testing.T) {
	elapsed := func(rate float64) sim.Time {
		k, seg, sts := newTestSegment(t, 2)
		countReceivers(sts)
		if rate > 0 {
			seg.SetBitRate(rate)
		}
		sts[0].Send(dataFrame(1, 1500))
		return k.Run()
	}
	fast := elapsed(0)         // default 10 Mb/s
	slow := elapsed(1_000_000) // degraded to 1 Mb/s
	if slow < 9*fast || slow > 11*fast {
		t.Errorf("degraded delivery took %v vs %v at full rate, want ~10×", slow, fast)
	}
}

func TestDuplicateDeliversTwice(t *testing.T) {
	k, seg, sts := newTestSegment(t, 2)
	counts := countReceivers(sts)

	seg.SetDuplicateProb(1)
	sts[0].Send(dataFrame(1, 100))
	k.Run()
	if *counts[1] != 2 {
		t.Errorf("deliveries = %d, want 2", *counts[1])
	}
	if st := seg.Stats(); st.Duplicated != 1 {
		t.Errorf("Duplicated = %d, want 1", st.Duplicated)
	}
}

func TestReorderSwapsAdjacentFrames(t *testing.T) {
	k, seg, sts := newTestSegment(t, 2)
	var order []int
	sts[1].OnReceive(func(f *Frame) { order = append(order, f.NetLen) })

	seg.SetReorderProb(1)
	sts[0].Send(dataFrame(1, 100))
	k.Run()
	if len(order) != 0 {
		t.Fatalf("held frame delivered early: %v", order)
	}
	seg.SetReorderProb(0)
	sts[0].Send(dataFrame(1, 200))
	k.Run()
	if len(order) != 2 || order[0] != 200 || order[1] != 100 {
		t.Errorf("delivery order = %v, want [200 100]", order)
	}
	if st := seg.Stats(); st.Reordered != 1 {
		t.Errorf("Reordered = %d, want 1", st.Reordered)
	}
}

// Enabling fault injection must not perturb the base RNG streams: the
// same workload with and without an (unused) fault hook armed yields the
// same event timing.
func TestFaultStreamsIsolatedFromBaseline(t *testing.T) {
	run := func(arm bool) sim.Time {
		k, seg, sts := newTestSegment(t, 3)
		countReceivers(sts)
		if arm {
			seg.SetDuplicateProb(0.5) // draws from ethernet.fault only on delivery
			seg.SetDuplicateProb(0)
		}
		for i := 0; i < 20; i++ {
			sts[0].Send(dataFrame(1, 400))
			sts[2].Send(dataFrame(1, 400))
		}
		return k.Run()
	}
	if a, b := run(false), run(true); a != b {
		t.Errorf("fault stream perturbed baseline: %v vs %v", a, b)
	}
}

// A silenced port — a crashed host's adaptor — sends nothing it had not
// finished sending: the frame on its link is cut short, the frames queued
// behind it are discarded, and it sends again once given a new frame. On
// the segment, a station that deferred to the cut frame gets the idle
// medium.
func TestSilenceDropsUnsentFrames(t *testing.T) {
	segK, _, sts := newTestSegment(t, 3)
	swK, _, ports := newTestSwitch(t, 2)
	for _, tc := range []struct {
		name      string
		k         *sim.Kernel
		from, to  Port
		bystander Port
	}{
		{"segment", segK, sts[0], sts[1], sts[2]},
		{"switch", swK, ports[0], ports[1], nil},
	} {
		var from []int
		tc.to.OnReceive(func(f *Frame) { from = append(from, f.Src) })
		for i := 0; i < 3; i++ {
			tc.from.Send(dataFrame(tc.to.ID(), 1000))
		}
		if tc.bystander != nil {
			tc.k.After(100*sim.Microsecond, "bystander", func() { tc.bystander.Send(dataFrame(tc.to.ID(), 100)) })
		}
		tc.k.After(200*sim.Microsecond, "crash", tc.from.Silence)
		tc.k.Run()
		want := 0
		if tc.bystander != nil {
			want = 1
			if len(from) != 1 || from[0] != tc.bystander.ID() {
				t.Errorf("%s: delivered from %v, want only the bystander %d", tc.name, from, tc.bystander.ID())
			}
		} else if len(from) != 0 {
			t.Errorf("%s: delivered from %v after Silence, want nothing", tc.name, from)
		}
		tc.from.Send(dataFrame(tc.to.ID(), 1000))
		tc.k.Run()
		if len(from) != want+1 || from[want] != tc.from.ID() {
			t.Errorf("%s: after a new send, delivered from %v", tc.name, from)
		}
	}
}

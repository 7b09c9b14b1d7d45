package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if got := TimeOf(1.5); got != Time(1500*Millisecond) {
		t.Errorf("TimeOf(1.5) = %d, want %d", got, Time(1500*Millisecond))
	}
	if got := Time(250 * Millisecond).Seconds(); got != 0.25 {
		t.Errorf("Seconds() = %v, want 0.25", got)
	}
	if got := Time(1500 * Microsecond).Sub(0).Milliseconds(); got != 1.5 {
		t.Errorf("Milliseconds() = %v, want 1.5", got)
	}
	if got := DurationOf(0.001); got != Millisecond {
		t.Errorf("DurationOf(0.001) = %d, want %d", got, Millisecond)
	}
	if got := Time(2 * Second).Add(500 * Millisecond); got != Time(2500*Millisecond) {
		t.Errorf("Add = %d", got)
	}
	if got := Time(2 * Second).Sub(Time(500 * Millisecond)); got != 1500*Millisecond {
		t.Errorf("Sub = %d", got)
	}
	if s := Time(1234567 * Nanosecond).String(); s != "0.001235s" {
		t.Errorf("String = %q", s)
	}
}

func TestEventOrdering(t *testing.T) {
	k := New(1)
	var order []int
	k.After(20*Millisecond, "b", func() { order = append(order, 2) })
	k.After(10*Millisecond, "a", func() { order = append(order, 1) })
	k.After(30*Millisecond, "c", func() { order = append(order, 3) })
	k.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v, want [1 2 3]", order)
	}
	if k.Now() != Time(30*Millisecond) {
		t.Errorf("final time = %v", k.Now())
	}
}

func TestEventTieBreakBySequence(t *testing.T) {
	k := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(Time(Millisecond), "e", func() { order = append(order, i) })
	}
	k.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break violated: order = %v", order)
		}
	}
}

func TestEventCancel(t *testing.T) {
	k := New(1)
	fired := false
	e := k.After(Millisecond, "x", func() { fired = true })
	e.Cancel()
	if e.Pending() {
		t.Error("Pending() = true after Cancel")
	}
	k.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestRunUntil(t *testing.T) {
	k := New(1)
	var fired []int
	k.After(10*Millisecond, "a", func() { fired = append(fired, 1) })
	k.After(30*Millisecond, "b", func() { fired = append(fired, 2) })
	now := k.RunUntil(Time(20 * Millisecond))
	if now != Time(20*Millisecond) {
		t.Errorf("RunUntil returned %v", now)
	}
	if len(fired) != 1 {
		t.Errorf("fired = %v, want only first event", fired)
	}
	k.Run()
	if len(fired) != 2 {
		t.Errorf("fired = %v after Run", fired)
	}
}

func TestNestedScheduling(t *testing.T) {
	k := New(1)
	depth := 0
	var schedule func()
	schedule = func() {
		depth++
		if depth < 100 {
			k.After(Microsecond, "nest", schedule)
		}
	}
	k.After(0, "root", schedule)
	k.Run()
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if k.Executed() != 100 {
		t.Errorf("Executed = %d", k.Executed())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := New(1)
	k.After(10*Millisecond, "later", func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic scheduling in the past")
			}
		}()
		k.At(Time(5*Millisecond), "past", func() {})
	})
	k.Run()
}

func TestNamedRandDeterminism(t *testing.T) {
	k1 := New(42)
	k2 := New(42)
	r1 := k1.Rand("mac")
	r2 := k2.Rand("mac")
	for i := 0; i < 100; i++ {
		if r1.Int63() != r2.Int63() {
			t.Fatal("same seed+name produced different streams")
		}
	}
	ra := New(42).Rand("a")
	rb := New(42).Rand("b")
	same := true
	for i := 0; i < 10; i++ {
		if ra.Int63() != rb.Int63() {
			same = false
		}
	}
	if same {
		t.Error("different names produced identical streams")
	}
}

func TestQuickEventOrderInvariant(t *testing.T) {
	// Property: for any set of non-negative delays, events fire in
	// nondecreasing time order and the kernel clock never goes backwards.
	f := func(delays []uint16) bool {
		k := New(7)
		var times []Time
		for _, d := range delays {
			k.After(Duration(d)*Microsecond, "e", func() {
				times = append(times, k.Now())
			})
		}
		k.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return len(times) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

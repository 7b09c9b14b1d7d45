package farm

import "testing"

// TestMemoLRUEntriesCap: with a 2-entry cap, running 3 distinct configs
// evicts the oldest; resubmitting it re-executes while the newer two
// still answer from memory.
func TestMemoLRUEntriesCap(t *testing.T) {
	f := New(Options{Workers: 1, Memoize: true, MemoMaxEntries: 2})
	for seed := int64(1); seed <= 3; seed++ {
		if _, _, err := f.Run(tinyConfig(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if s := f.Stats(); s.Executed != 3 || s.MemoEvicted != 1 {
		t.Fatalf("stats %+v, want 3 executed / 1 evicted", s)
	}
	// Seeds 2 and 3 are still memoized.
	for seed := int64(2); seed <= 3; seed++ {
		if _, _, err := f.Run(tinyConfig(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if s := f.Stats(); s.Executed != 3 {
		t.Fatalf("memoized reruns executed: %+v", s)
	}
	// Seed 1 was evicted: it must re-execute (correct, just not cached).
	if _, _, err := f.Run(tinyConfig(1)); err != nil {
		t.Fatal(err)
	}
	if s := f.Stats(); s.Executed != 4 {
		t.Fatalf("evicted key did not re-execute: %+v", s)
	}
}

// TestMemoLRUBytesCap: a byte cap far below one result's footprint
// still retains the most recent entry (the cap never evicts the newest
// result, or memoization would be useless) but evicts predecessors.
func TestMemoLRUBytesCap(t *testing.T) {
	f := New(Options{Workers: 1, Memoize: true, MemoMaxBytes: 1})
	if _, _, err := f.Run(tinyConfig(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.Run(tinyConfig(1)); err != nil {
		t.Fatal(err)
	}
	if s := f.Stats(); s.Executed != 1 || s.Deduped != 1 {
		t.Fatalf("newest entry not retained under byte cap: %+v", s)
	}
	if _, _, err := f.Run(tinyConfig(2)); err != nil {
		t.Fatal(err)
	}
	if s := f.Stats(); s.MemoEvicted != 1 {
		t.Fatalf("predecessor not evicted under byte cap: %+v", s)
	}
}

// TestMemoUncappedByDefault preserves the pre-LRU contract: zero caps
// never evict.
func TestMemoUncappedByDefault(t *testing.T) {
	f := New(Options{Workers: 1, Memoize: true})
	for seed := int64(1); seed <= 4; seed++ {
		if _, _, err := f.Run(tinyConfig(seed)); err != nil {
			t.Fatal(err)
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		if _, _, err := f.Run(tinyConfig(seed)); err != nil {
			t.Fatal(err)
		}
	}
	if s := f.Stats(); s.Executed != 4 || s.MemoEvicted != 0 {
		t.Fatalf("stats %+v, want 4 executed / 0 evicted", s)
	}
}

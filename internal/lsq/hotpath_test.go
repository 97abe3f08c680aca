package lsq

import (
	"testing"
	"unsafe"
)

// trackerChurn drives one add/address/place/forward/commit wave of n
// memory instructions through the tracker, like the CPU does.
func trackerChurn(t *Tracker, startSeq uint64, n int) {
	for i := 0; i < n; i++ {
		seq := startSeq + uint64(i)
		op := t.Add(seq, i%3 != 0) // every third op a store
		t.SetPlaced(op)
		t.SetAddress(op, 0x1000+uint64(i%64)*8, 8)
	}
	for i := 0; i < n; i++ {
		seq := startSeq + uint64(i)
		if op := t.Get(seq); op.IsLoad {
			t.ForwardingSource(seq)
			t.CountOlderKnownStores(seq)
		} else {
			t.CountYoungerKnownLoads(seq)
		}
	}
	for i := 0; i < n; i++ {
		t.Remove(startSeq + uint64(i))
	}
}

// TestTrackerZeroAllocSteadyState guards the tracker's hot paths: once
// the op and store rings have grown to the working-set size, the
// add/lookup/count/forward/remove cycle must not allocate.
func TestTrackerZeroAllocSteadyState(t *testing.T) {
	tr := NewTracker()
	seq := uint64(0)
	trackerChurn(tr, seq, 128) // grow the op and store rings
	seq += 128
	if n := testing.AllocsPerRun(10, func() {
		trackerChurn(tr, seq, 128)
		seq += 128
	}); n > 0 {
		t.Errorf("tracker churn allocates %.1f per wave, want 0", n)
	}
}

// TestOpSlotSize pins a tracker ring slot at one cache line: a field
// added in the wrong place would pad every op into a second.
func TestOpSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(Op{}); n > 64 {
		t.Fatalf("Op is %d bytes, want at most 64", n)
	}
}

func BenchmarkHotPathTrackerChurn(b *testing.B) {
	tr := NewTracker()
	seq := uint64(0)
	trackerChurn(tr, seq, 128)
	seq += 128
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trackerChurn(tr, seq, 128)
		seq += 128
	}
}

// BenchmarkHotPathForwardingSource times the first probe of a fresh
// load behind a 64-op window of alternating stores and loads, all
// placed with known addresses. No store overlaps the probed load, so
// every probe examines every older store. Each iteration retires the
// oldest store/load pair and dispatches a new one to keep the window
// size fixed.
func BenchmarkHotPathForwardingSource(b *testing.B) {
	tr := NewTracker()
	seq := uint64(0)
	addPair := func() uint64 {
		st := tr.Add(seq, false)
		tr.SetAddress(st, 0x1000+(seq%64)*8, 8)
		tr.SetPlaced(st)
		ld := tr.Add(seq+1, true)
		tr.SetAddress(ld, 0x8000, 8)
		tr.SetPlaced(ld)
		seq += 2
		return seq - 1
	}
	for i := 0; i < 32; i++ {
		addPair()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		front := seq - 64
		tr.Remove(front)
		tr.Remove(front + 1)
		if _, ok := tr.ForwardingSource(addPair()); ok {
			b.Fatal("non-overlapping load forwarded")
		}
	}
}

// BenchmarkHotPathARBTick times the per-cycle retry of an ARB whose
// banks are full while instructions wait for a free address entry and
// none is released.
func BenchmarkHotPathARBTick(b *testing.B) {
	a := NewARB(8, 2, 128)
	seq := uint64(0)
	for i := 0; i < 64; i++ {
		a.Dispatch(seq, i%2 == 0)
		a.AddressReady(seq, i%2 == 0, uint64(i)*8, 8) // 8 distinct words per bank
		seq++
	}
	if len(a.pending) == 0 {
		b.Fatal("no instruction is waiting for a bank")
	}
	a.Tick()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if placed := a.Tick(); len(placed) != 0 {
			b.Fatalf("placed %v without a release", placed)
		}
	}
}

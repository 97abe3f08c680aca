package obs

import (
	"testing"
)

func TestSamplerDueAndStride(t *testing.T) {
	s := NewIntervalSampler(100, 8)
	if s.Enabled() {
		t.Fatal("sampler starts enabled")
	}
	if s.Due(1_000_000) {
		t.Fatal("disabled sampler reported due")
	}
	s.SetEnabled(true)
	if s.Due(99) {
		t.Fatal("due before the first stride boundary")
	}
	if !s.Due(100) || !s.Due(150) {
		t.Fatal("not due at/after the stride boundary")
	}
	s.Record(TimelineSample{Cycle: 150, IPC: 2})
	if s.Due(249) {
		t.Fatal("due again before a full stride elapsed")
	}
	if !s.Due(250) {
		t.Fatal("not due one stride after the last sample")
	}
	if s.Stride() != 100 {
		t.Fatalf("stride = %d, want 100", s.Stride())
	}

	// Defaults kick in for zero arguments; odd capacities round up so
	// pairwise compaction stays exact.
	d := NewIntervalSampler(0, 0)
	if d.Stride() != DefaultSampleStride {
		t.Fatalf("default stride = %d", d.Stride())
	}
	odd := NewIntervalSampler(1, 7)
	if odd.capacity != 8 {
		t.Fatalf("odd capacity rounded to %d, want 8", odd.capacity)
	}
	// The buffer holds exactly that many samples: the eighth record
	// fits without compaction, the ninth compacts to four and appends,
	// and the buffer never grows past the capacity.
	odd.SetEnabled(true)
	for i := uint64(1); i <= 9; i++ {
		odd.Record(TimelineSample{Cycle: i})
		if cap(odd.samples) > 8 {
			t.Fatalf("buffer capacity %d after %d records, want <= 8", cap(odd.samples), i)
		}
		want, stride := int(i), uint64(1)
		if i == 9 {
			want, stride = 5, 2
		}
		if len(odd.samples) != want || odd.Stride() != stride {
			t.Fatalf("after %d records: %d samples at stride %d, want %d at stride %d",
				i, len(odd.samples), odd.Stride(), want, stride)
		}
	}
}

// TestSamplerAllocatesOnDemand: a sampler that records no sample, like
// that of a run shorter than one stride, allocates no sample buffer,
// and the first Record allocates a small one, not the full capacity.
func TestSamplerAllocatesOnDemand(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		s := NewIntervalSampler(0, 0)
		s.SetEnabled(true)
		for cycle := uint64(0); cycle < DefaultSampleStride; cycle++ {
			if s.Due(cycle) {
				t.Fatal("due before the first stride")
			}
		}
		s.Reset(DefaultSampleStride - 1)
		if s.Snapshot() != nil {
			t.Fatal("a sampler with no sample produced a timeline")
		}
	})
	if allocs != 0 { // the sampler itself does not escape
		t.Fatalf("a run with no sample made %v allocations, want 0", allocs)
	}
	s := NewIntervalSampler(0, 0)
	s.SetEnabled(true)
	if s.samples != nil {
		t.Fatal("sample buffer allocated before the first Record")
	}
	s.Record(TimelineSample{Cycle: DefaultSampleStride})
	if c := cap(s.samples); c != minSampleBuf {
		t.Fatalf("first buffer holds %d samples, want %d", c, minSampleBuf)
	}
}

func TestSamplerNilIsNoop(t *testing.T) {
	var s *IntervalSampler
	s.SetEnabled(true)
	if s.Due(123) || s.Enabled() || s.Stride() != 0 {
		t.Fatal("nil sampler not inert")
	}
	s.Record(TimelineSample{Cycle: 1})
	s.Reset(0)
	if s.Snapshot() != nil {
		t.Fatal("nil sampler produced a timeline")
	}
}

// TestSamplerCompaction: filling the buffer halves it pairwise and
// doubles the stride, so an arbitrarily long run fits in a fixed
// buffer while deltas stay conserved and rates stay unbiased.
func TestSamplerCompaction(t *testing.T) {
	s := NewIntervalSampler(10, 4)
	s.SetEnabled(true)
	for i := uint64(1); i <= 4; i++ {
		s.Record(TimelineSample{Cycle: i * 10, IPC: float64(i), BusPJ: 1})
	}
	// Buffer full; the 5th record compacts [1,2],[3,4] then appends.
	s.Record(TimelineSample{Cycle: 50, IPC: 5, BusPJ: 1})
	tl := s.Snapshot()
	if tl == nil || len(tl.Samples) != 3 {
		t.Fatalf("post-compaction samples = %+v, want 3", tl)
	}
	if tl.Stride != 20 {
		t.Fatalf("stride = %d after one compaction, want 20", tl.Stride)
	}
	// Merged pairs: IPC averages, energy deltas sum, the later sample's
	// cycle/occupancy wins.
	if got := tl.Samples[0]; got.Cycle != 20 || got.IPC != 1.5 || got.BusPJ != 2 {
		t.Fatalf("merged sample 0 = %+v", got)
	}
	if got := tl.Samples[1]; got.Cycle != 40 || got.IPC != 3.5 || got.BusPJ != 2 {
		t.Fatalf("merged sample 1 = %+v", got)
	}
	if got := tl.Samples[2]; got.Cycle != 50 || got.IPC != 5 || got.BusPJ != 1 {
		t.Fatalf("appended sample = %+v", got)
	}
	// Total energy is conserved across compaction.
	var pj float64
	for _, ts := range tl.Samples {
		pj += ts.BusPJ
	}
	if pj != 5 {
		t.Fatalf("energy not conserved: %v pJ, want 5", pj)
	}
	// The next due point honors the doubled stride.
	if s.Due(69) || !s.Due(70) {
		t.Fatal("next due point ignores the doubled stride")
	}
}

// TestSamplerReset: the warmup boundary discards samples and restores
// the base stride so a timeline covers only the measured portion.
func TestSamplerReset(t *testing.T) {
	s := NewIntervalSampler(10, 4)
	s.SetEnabled(true)
	for i := uint64(1); i <= 5; i++ { // force one compaction
		s.Record(TimelineSample{Cycle: i * 10})
	}
	if s.Stride() != 20 {
		t.Fatalf("setup: stride = %d, want 20", s.Stride())
	}
	s.Reset(1000)
	if s.Snapshot() != nil {
		t.Fatal("samples survived reset")
	}
	if s.Stride() != 10 {
		t.Fatalf("stride after reset = %d, want base 10", s.Stride())
	}
	if s.Due(1009) || !s.Due(1010) {
		t.Fatal("next due point not rescheduled from the reset cycle")
	}
}

// TestSamplerDisabledPathZeroAllocs is the hot-loop guard: the
// per-cycle Due check (and a stray Record) on a disabled or nil
// sampler must not allocate — the hook lives in the simulator's step()
// permanently.
func TestSamplerDisabledPathZeroAllocs(t *testing.T) {
	s := NewIntervalSampler(0, 0)
	var nilS *IntervalSampler
	ts := TimelineSample{Cycle: 42}
	allocs := testing.AllocsPerRun(1000, func() {
		if s.Due(1 << 20) {
			t.Fatal("disabled sampler due")
		}
		s.Record(ts)
		if nilS.Due(1 << 20) {
			t.Fatal("nil sampler due")
		}
		nilS.Record(ts)
	})
	if allocs != 0 {
		t.Fatalf("disabled sampler path allocates: %v allocs/op", allocs)
	}
}

func TestOccupancyAggObserveAndAdd(t *testing.T) {
	var a OccupancyAgg
	a.Observe(nil) // ignored
	a.Observe(&Timeline{Samples: []TimelineSample{
		{IPC: 1, LSQ: 10, ROB: 20, AddrBuf: 2},
		{IPC: 3, LSQ: 30, ROB: 40, AddrBuf: 6},
	}})
	if a.Runs != 1 || a.Samples != 2 {
		t.Fatalf("agg counts %+v", a)
	}
	if a.MeanIPC() != 2 || a.MeanLSQ() != 20 || a.MeanROB() != 30 || a.MeanAddrBuf() != 4 {
		t.Fatalf("means wrong: %+v", a)
	}
	if a.PeakLSQ != 30 || a.PeakROB != 40 || a.PeakAddrBuf != 6 {
		t.Fatalf("peaks wrong: %+v", a)
	}

	var b OccupancyAgg
	b.Observe(&Timeline{Samples: []TimelineSample{{IPC: 5, LSQ: 50, ROB: 10}}})
	a.Add(b)
	if a.Runs != 2 || a.Samples != 3 || a.PeakLSQ != 50 || a.PeakROB != 40 {
		t.Fatalf("merged agg wrong: %+v", a)
	}
	if (OccupancyAgg{}).MeanIPC() != 0 {
		t.Fatal("empty agg mean not 0")
	}
}

package obs

// Interval telemetry: the cycle core snapshots its microarchitectural
// state (IPC, queue occupancies, issue-scheduler load, per-structure
// energy deltas) every stride cycles into a bounded, self-compacting
// ring. A non-nil sampler samples; a nil one is the off state, a total
// no-op that allocates nothing, so the hook can live in the
// simulator's per-cycle hot loop permanently.

// DefaultSampleStride is the default sampling interval in cycles.
const DefaultSampleStride = 4096

// DefaultTimelineCap bounds how many samples a timeline retains; when
// the buffer fills, adjacent samples merge pairwise and the stride
// doubles, so a run of any length fits.
const DefaultTimelineCap = 512

// TimelineSample is one interval snapshot. Occupancies are
// point-in-time values at the sample cycle; IPC and the *PJ fields
// are deltas over the interval since the previous sample.
type TimelineSample struct {
	Cycle   uint64  `json:"cycle"`
	IPC     float64 `json:"ipc"`
	ROB     int     `json:"rob"`
	FetchQ  int     `json:"fetch_q"`
	ReplayQ int     `json:"replay_q"`
	LSQ     int     `json:"lsq"`
	AddrBuf int     `json:"addr_buf,omitempty"`

	// Issue-scheduler load: the wakeup scheduler's waiter lists, timing
	// wheel and attention set.
	Waiters int `json:"waiters,omitempty"`
	Wheel   int `json:"wheel,omitempty"`
	Attn    int `json:"attn,omitempty"`

	// Per-structure dynamic-energy deltas over the interval, pJ.
	ConvLSQPJ float64 `json:"conv_lsq_pj,omitempty"`
	DistribPJ float64 `json:"distrib_pj,omitempty"`
	SharedPJ  float64 `json:"shared_pj,omitempty"`
	AddrBufPJ float64 `json:"addr_buf_pj,omitempty"`
	BusPJ     float64 `json:"bus_pj,omitempty"`
	DcachePJ  float64 `json:"dcache_pj,omitempty"`
	DTLBPJ    float64 `json:"dtlb_pj,omitempty"`
}

// Timeline is the wire form of a completed run's interval samples.
// Stride is the final sampling interval (it doubles every time the
// buffer compacted, so long runs report a coarser stride than they
// started with).
type Timeline struct {
	Stride  uint64           `json:"stride"`
	Samples []TimelineSample `json:"samples"`
}

// IntervalSampler collects TimelineSamples at a fixed cycle stride
// into a bounded buffer. It is single-goroutine like the CPU core that
// feeds it. A nil sampler is never due and records nothing.
type IntervalSampler struct {
	baseStride uint64
	stride     uint64
	next       uint64 // first cycle at or after which Due fires

	// samples is allocated by the first Record and grows geometrically
	// up to capacity; a full buffer compacts instead of growing.
	capacity int
	samples  []TimelineSample
}

// minSampleBuf is the size of the first sample buffer a sampler
// allocates (or its capacity, if smaller).
const minSampleBuf = 16

// NewIntervalSampler builds a sampler with the given stride in cycles
// (<=0 means DefaultSampleStride) and sample capacity (<=0 means
// DefaultTimelineCap; odd capacities round up so pairwise compaction
// stays exact). It allocates no sample buffer until the first Record.
func NewIntervalSampler(stride uint64, capacity int) *IntervalSampler {
	if stride == 0 {
		stride = DefaultSampleStride
	}
	if capacity <= 0 {
		capacity = DefaultTimelineCap
	}
	if capacity%2 != 0 {
		capacity++
	}
	return &IntervalSampler{
		baseStride: stride,
		stride:     stride,
		next:       stride,
		capacity:   capacity,
	}
}

// Stride returns the current sampling interval in cycles.
func (s *IntervalSampler) Stride() uint64 {
	if s == nil {
		return 0
	}
	return s.stride
}

// Due reports whether the caller should snapshot at this cycle. This
// is the per-cycle gate: a nil check and a compare, allocating nothing.
//
//samie:hotpath
func (s *IntervalSampler) Due(cycle uint64) bool { return s != nil && cycle >= s.next }

// Next returns the first cycle at or after which Due fires (^0 for a
// nil sampler), so a caller that skips cycles can stop at a sample.
//
//samie:hotpath
func (s *IntervalSampler) Next() uint64 {
	if s == nil {
		return ^uint64(0)
	}
	return s.next
}

// Record appends one sample. When the buffer holds capacity samples,
// adjacent samples merge pairwise (energy deltas sum, IPC averages,
// occupancies keep the later point) and the stride doubles —
// halve-stride compaction — so the buffer never exceeds its capacity.
// Below capacity a full buffer grows instead: the first Record
// allocates it and later ones double it, so once a sampler has held
// capacity samples, Record never allocates again.
//
//samie:hotpath
func (s *IntervalSampler) Record(ts TimelineSample) {
	if s == nil {
		return
	}
	if len(s.samples) == s.capacity {
		half := len(s.samples) / 2
		for i := 0; i < half; i++ {
			s.samples[i] = mergeSamples(s.samples[2*i], s.samples[2*i+1])
		}
		s.samples = s.samples[:half]
		s.stride *= 2
	}
	if len(s.samples) == cap(s.samples) {
		s.grow()
	}
	//lint:ignore hotalloc grow above guarantees len < cap here; never reallocates
	s.samples = append(s.samples, ts)
	s.next = ts.Cycle + s.stride
}

// grow doubles the sample buffer (allocating the first one), never past
// capacity. Record calls it at most log2(capacity/minSampleBuf)+1 times
// per sampler and only on sample cycles (once per stride); Reset keeps
// the buffer, so the measured phase reuses what warm-up grew.
func (s *IntervalSampler) grow() {
	n := min(max(2*cap(s.samples), minSampleBuf), s.capacity)
	grown := make([]TimelineSample, len(s.samples), n)
	copy(grown, s.samples)
	s.samples = grown
}

// mergeSamples folds two adjacent equal-width intervals into one:
// deltas sum, rates average, occupancies take the later (pure
// downsampling, so means over the retained samples stay unbiased).
func mergeSamples(a, b TimelineSample) TimelineSample {
	b.IPC = (a.IPC + b.IPC) / 2
	b.ConvLSQPJ += a.ConvLSQPJ
	b.DistribPJ += a.DistribPJ
	b.SharedPJ += a.SharedPJ
	b.AddrBufPJ += a.AddrBufPJ
	b.BusPJ += a.BusPJ
	b.DcachePJ += a.DcachePJ
	b.DTLBPJ += a.DTLBPJ
	return b
}

// Reset discards collected samples and restores the base stride,
// scheduling the next sample one stride past the given cycle. The CPU
// calls this at the warmup/measurement boundary so a timeline covers
// only the measured portion.
func (s *IntervalSampler) Reset(cycle uint64) {
	if s == nil {
		return
	}
	s.samples = s.samples[:0]
	s.stride = s.baseStride
	s.next = cycle + s.stride
}

// Snapshot copies the collected samples into a Timeline, or nil when
// nothing was collected.
func (s *IntervalSampler) Snapshot() *Timeline {
	if s == nil || len(s.samples) == 0 {
		return nil
	}
	out := make([]TimelineSample, len(s.samples))
	copy(out, s.samples)
	return &Timeline{Stride: s.stride, Samples: out}
}

// OccupancyAgg accumulates occupancy/IPC statistics over many
// timelines — the per-personality rows of samie-bench -server -stats
// and the samie_lsq_occupancy metric family. Add merges two aggregates,
// so per-replica stats fold into a cluster view.
type OccupancyAgg struct {
	Runs    int64 `json:"runs"`
	Samples int64 `json:"samples"`

	SumIPC      float64 `json:"sum_ipc"`
	SumLSQ      float64 `json:"sum_lsq"`
	PeakLSQ     int     `json:"peak_lsq"`
	SumROB      float64 `json:"sum_rob"`
	PeakROB     int     `json:"peak_rob"`
	SumAddrBuf  float64 `json:"sum_addr_buf"`
	PeakAddrBuf int     `json:"peak_addr_buf"`
}

// Observe folds one run's timeline into the aggregate. Nil timelines
// are ignored.
func (a *OccupancyAgg) Observe(t *Timeline) {
	if t == nil || len(t.Samples) == 0 {
		return
	}
	a.Runs++
	for _, ts := range t.Samples {
		a.Samples++
		a.SumIPC += ts.IPC
		a.SumLSQ += float64(ts.LSQ)
		a.SumROB += float64(ts.ROB)
		a.SumAddrBuf += float64(ts.AddrBuf)
		if ts.LSQ > a.PeakLSQ {
			a.PeakLSQ = ts.LSQ
		}
		if ts.ROB > a.PeakROB {
			a.PeakROB = ts.ROB
		}
		if ts.AddrBuf > a.PeakAddrBuf {
			a.PeakAddrBuf = ts.AddrBuf
		}
	}
}

// Add merges another aggregate into this one (cluster-level rollup).
func (a *OccupancyAgg) Add(o OccupancyAgg) {
	a.Runs += o.Runs
	a.Samples += o.Samples
	a.SumIPC += o.SumIPC
	a.SumLSQ += o.SumLSQ
	a.SumROB += o.SumROB
	a.SumAddrBuf += o.SumAddrBuf
	if o.PeakLSQ > a.PeakLSQ {
		a.PeakLSQ = o.PeakLSQ
	}
	if o.PeakROB > a.PeakROB {
		a.PeakROB = o.PeakROB
	}
	if o.PeakAddrBuf > a.PeakAddrBuf {
		a.PeakAddrBuf = o.PeakAddrBuf
	}
}

// MeanIPC returns the mean per-interval IPC, or 0 with no samples.
func (a OccupancyAgg) MeanIPC() float64 { return a.mean(a.SumIPC) }

// MeanLSQ returns the mean sampled LSQ occupancy.
func (a OccupancyAgg) MeanLSQ() float64 { return a.mean(a.SumLSQ) }

// MeanROB returns the mean sampled ROB occupancy.
func (a OccupancyAgg) MeanROB() float64 { return a.mean(a.SumROB) }

// MeanAddrBuf returns the mean sampled AddrBuffer occupancy.
func (a OccupancyAgg) MeanAddrBuf() float64 { return a.mean(a.SumAddrBuf) }

func (a OccupancyAgg) mean(sum float64) float64 {
	if a.Samples == 0 {
		return 0
	}
	return sum / float64(a.Samples)
}

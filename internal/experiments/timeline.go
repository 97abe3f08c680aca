package experiments

// Telemetry rollups: everything the batch learns from the timelines
// of runs it simulated itself. Fed by jobFor's simulate branch, read
// by /v1/stats, /metrics and samie-bench -timeline-out. Tier-served
// results (disk, peer) carry no timeline and contribute nothing, so
// the rollups count each simulation's telemetry exactly once
// fabric-wide — on the replica that performed it.

import (
	"context"
	"time"

	"samielsq/internal/obs"
)

// maxRetainedTimelines bounds the raw timelines a batch keeps for
// -timeline-out; a full 148-spec sweep fits with room to spare, and a
// long-lived server stops retaining (the aggregates keep counting)
// rather than growing without bound.
const maxRetainedTimelines = 512

// RunTimeline pairs one simulated run's identity with its timeline.
type RunTimeline struct {
	Key       string               `json:"key"`
	Benchmark string               `json:"benchmark"`
	Model     string               `json:"model"`
	Stride    uint64               `json:"stride"`
	Samples   []obs.TimelineSample `json:"samples"`
}

// noteSimulated folds one freshly simulated run into the batch's
// telemetry rollups and, when the owning request is traced, records
// the run's occupancy/IPC curves as a counter track on that trace so
// -trace-out renders them under the span tree.
func (b *Batch) noteSimulated(ctx context.Context, n RunSpec, r RunResult, start time.Time, dur time.Duration) {
	t := r.Timeline
	if t == nil || len(t.Samples) == 0 {
		return
	}
	key := keyOf(n)

	b.occMu.Lock()
	agg := b.occ[n.Benchmark]
	if agg == nil {
		agg = &obs.OccupancyAgg{}
		b.occ[n.Benchmark] = agg
	}
	agg.Observe(t)
	if r.Meter != nil {
		m := r.Meter
		b.energyPJ["conv_lsq"] += m.ConvLSQ
		b.energyPJ["distrib"] += m.Distrib
		b.energyPJ["shared"] += m.Shared
		b.energyPJ["addr_buffer"] += m.AddrBuffer
		b.energyPJ["bus"] += m.Bus
		b.energyPJ["dcache"] += m.Dcache
		b.energyPJ["dtlb"] += m.DTLB
	}
	if len(b.timelines) < maxRetainedTimelines {
		b.timelines = append(b.timelines, RunTimeline{
			Key:       key,
			Benchmark: n.Benchmark,
			Model:     ModelName(n.Model),
			Stride:    t.Stride,
			Samples:   t.Samples,
		})
	}
	b.occMu.Unlock()

	obs.RecordCounters(ctx, counterTrack(n, t, start, dur))
}

// counterTrack converts a run's timeline into a Chrome counter track:
// the simulated cycles map linearly onto the simulate span's
// wall-clock window, so the curves line up under the run's spans in
// Perfetto. Occupancies and IPC become the series; energy stays in
// the timeline endpoint (a pJ-per-interval curve has no natural
// counter scale next to entry counts).
func counterTrack(n RunSpec, t *obs.Timeline, start time.Time, dur time.Duration) obs.CounterTrack {
	name := "occ " + n.Benchmark + "/" + ModelName(n.Model)
	samples := make([]obs.CounterSample, 0, len(t.Samples))
	lastCycle := t.Samples[len(t.Samples)-1].Cycle
	firstCycle := t.Samples[0].Cycle
	span := lastCycle - firstCycle
	for _, ts := range t.Samples {
		frac := 1.0
		if span > 0 {
			frac = float64(ts.Cycle-firstCycle) / float64(span)
		}
		samples = append(samples, obs.CounterSample{
			TS: start.Add(time.Duration(frac * float64(dur))).UnixMicro(),
			Values: map[string]float64{
				"lsq":      float64(ts.LSQ),
				"rob":      float64(ts.ROB),
				"addr_buf": float64(ts.AddrBuf),
				"ipc":      ts.IPC,
			},
		})
	}
	return obs.CounterTrack{Name: name, Samples: samples}
}

// TimelineStats snapshots the per-benchmark occupancy aggregates of
// every run this batch simulated. Exposed through /v1/stats
// ("timeline_stats") and the samie_lsq_occupancy metric family;
// cluster tooling merges per-replica maps with OccupancyAgg.Add.
func (b *Batch) TimelineStats() map[string]obs.OccupancyAgg {
	b.occMu.Lock()
	defer b.occMu.Unlock()
	out := make(map[string]obs.OccupancyAgg, len(b.occ))
	for k, v := range b.occ {
		out[k] = *v
	}
	return out
}

// EnergyPJ snapshots the per-structure dynamic energy (pJ) summed
// over every run this batch simulated — the source of
// samie_energy_joules_total{structure}.
func (b *Batch) EnergyPJ() map[string]float64 {
	b.occMu.Lock()
	defer b.occMu.Unlock()
	out := make(map[string]float64, len(b.energyPJ))
	for k, v := range b.energyPJ {
		out[k] = v
	}
	return out
}

// Timelines returns the retained raw timelines, one per simulated
// run, up to the retention bound (oldest retained first). The backing
// sample slices are shared — treat them as read-only.
func (b *Batch) Timelines() []RunTimeline {
	b.occMu.Lock()
	defer b.occMu.Unlock()
	return append([]RunTimeline(nil), b.timelines...)
}

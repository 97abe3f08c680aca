package experiments

import (
	"fmt"
	"testing"

	"samielsq/internal/core"
	"samielsq/internal/energy"
	"samielsq/internal/lsq"
)

// contractModels is one row per ModelKind: the spec runNormalized
// builds it from, the same construction done directly, and what the
// model promises about dispatch and the conventional energy account.
var contractModels = []struct {
	kind ModelKind
	spec RunSpec
	mk   func(s RunSpec, m *energy.Meter) lsq.Model
	// capacity is how many dispatches the model takes before it
	// refuses one; 0 means it never refuses.
	capacity int
	// convCharged: the model charges the conventional LSQ's CAM
	// searches, datum traffic and area to the meter.
	convCharged bool
	// bufferLine is the address of the k-th access of a stream that
	// the model cannot place once it is full (nil: nothing buffers).
	bufferLine func(k int) uint64
}{
	{
		kind:        ModelConventional,
		spec:        RunSpec{Model: ModelConventional, ConvEntries: 16},
		mk:          func(s RunSpec, m *energy.Meter) lsq.Model { return lsq.NewConventional(s.ConvEntries, m) },
		capacity:    16,
		convCharged: true,
	},
	{
		kind: ModelUnbounded,
		spec: RunSpec{Model: ModelUnbounded},
		mk:   func(RunSpec, *energy.Meter) lsq.Model { return lsq.NewUnbounded() },
	},
	{
		kind:     ModelARB,
		spec:     RunSpec{Model: ModelARB, ARBBanks: 64, ARBAddrs: 2, ARBInflight: 32},
		mk:       func(s RunSpec, m *energy.Meter) lsq.Model { return lsq.NewARB(s.ARBBanks, s.ARBAddrs, s.ARBInflight) },
		capacity: 32,
		// Distinct words of bank 0: two fit, the rest wait.
		bufferLine: func(k int) uint64 { return 0x100000 + uint64(k)*64*8 },
	},
	{
		kind: ModelSAMIE,
		spec: RunSpec{Model: ModelSAMIE},
		mk:   func(s RunSpec, m *energy.Meter) lsq.Model { return core.New(*s.SAMIE, m) },
		// Distinct lines of bank 0: two DistribLSQ entries and eight
		// SharedLSQ entries fill, the rest wait in the AddrBuffer.
		bufferLine: func(k int) uint64 { return 0x100000 + uint64(k)*64*32 },
	},
}

// TestModelContract (P00012) holds every LSQ model to the contract the
// CPU and the harness rely on, through the constructors and through
// Run: which models refuse dispatch and charge the conventional energy
// account, that a Flush leaves a model whose Ticks place and change
// nothing (the lsq.Model.Tick contract), and that the unbounded LSQ is
// the conventional one without its bound.
func TestModelContract(t *testing.T) {
	for _, row := range contractModels {
		name := ModelName(row.kind)
		spec := Normalize(row.spec)
		t.Run(name+"/dispatch", func(t *testing.T) {
			m := energy.NewMeter()
			model := row.mk(spec, m)
			limit := row.capacity
			if limit == 0 {
				limit = 1000
			}
			for seq := uint64(0); seq < uint64(limit); seq++ {
				if !model.Dispatch(seq, seq%2 == 0) {
					t.Fatalf("dispatch %d refused below capacity %d", seq, row.capacity)
				}
			}
			if got := model.Dispatch(uint64(limit), true); got != (row.capacity == 0) {
				t.Fatalf("dispatch %d accepted=%v with %d in flight (capacity %d)", limit, got, model.InFlight(), row.capacity)
			}
		})
		t.Run(name+"/energy", func(t *testing.T) {
			m := energy.NewMeter()
			model := row.mk(spec, m)
			// A store, then a load of the same bytes that it forwards to.
			model.Dispatch(1, false)
			model.AddressReady(1, false, 0x2000, 8)
			model.Dispatch(2, true)
			model.AddressReady(2, true, 0x2000, 8)
			if src, ok := model.ForwardingSource(2); !ok || src != 1 {
				t.Fatalf("forwarding source = %d, %v; want the store", src, ok)
			}
			model.NotePerformed(2)
			model.AccountCycle()
			model.Commit(1)
			charged := m.NConvCompares > 0 && m.ConvLSQ > 0 && m.ConvArea > 0
			untouched := m.NConvCompares == 0 && m.ConvLSQ == 0 && m.ConvArea == 0
			if row.convCharged && !charged || !row.convCharged && !untouched {
				t.Fatalf("conventional account: %d compares, %g pJ, area %g; want charged=%v",
					m.NConvCompares, m.ConvLSQ, m.ConvArea, row.convCharged)
			}
		})
		t.Run(name+"/flush", func(t *testing.T) {
			m := energy.NewMeter()
			model := row.mk(spec, m)
			fresh := model.FreeCapacity()
			waiting := false
			for k := 0; k < 16; k++ {
				seq := uint64(k)
				if !model.Dispatch(seq, true) {
					break
				}
				addr := 0x3000 + uint64(k)*8
				if row.bufferLine != nil {
					addr = row.bufferLine(k)
				}
				waiting = model.AddressReady(seq, true, addr, 8).Buffered || waiting
			}
			if want := row.bufferLine != nil; waiting != want {
				t.Fatalf("an instruction waited for placement: %v, want %v", waiting, want)
			}
			model.Flush()
			if model.InFlight() != 0 || model.FreeCapacity() != fresh {
				t.Fatalf("after Flush: %d in flight, free capacity %d (fresh %d)",
					model.InFlight(), model.FreeCapacity(), fresh)
			}
			state := func() string {
				return fmt.Sprintf("%+v %d %d", *m, model.InFlight(), model.FreeCapacity())
			}
			before := state()
			for i := 0; i < 3; i++ {
				if got := model.Tick(); len(got) != 0 {
					t.Fatalf("Tick %d after Flush placed %v", i, got)
				}
			}
			if after := state(); after != before {
				t.Fatalf("Ticks after Flush changed the model:\nbefore %s\nafter  %s", before, after)
			}
			model.Dispatch(100, true)
			if pl := model.AddressReady(100, true, 0x4000, 8); !pl.Placed {
				t.Fatalf("first access after Flush not placed: %+v", pl)
			}
		})
		t.Run(name+"/run", func(t *testing.T) {
			spec := row.spec
			spec.Benchmark, spec.Insts = "gzip", 10_000
			r := Run(spec)
			charged := r.Meter.NConvCompares > 0 && r.Meter.ConvLSQ > 0 && r.Meter.ConvArea > 0 && r.Conv.Cycles > 0
			untouched := r.Meter.NConvCompares == 0 && r.Meter.ConvLSQ == 0 && r.Meter.ConvArea == 0 && r.Conv == lsq.OccupancyStats{}
			if row.convCharged && !charged || !row.convCharged && !untouched {
				t.Fatalf("Run: %d compares, %g pJ, area %g, Conv %+v; want charged=%v",
					r.Meter.NConvCompares, r.Meter.ConvLSQ, r.Meter.ConvArea, r.Conv, row.convCharged)
			}
			if r.CPU.Committed < spec.Insts {
				t.Fatalf("committed %d of %d instructions", r.CPU.Committed, spec.Insts)
			}
		})
	}
	// A 256-entry conventional LSQ never fills behind the 128-entry
	// ROB, so it must time every program exactly as the unbounded LSQ
	// does.
	for _, bench := range []string{"gzip", "facerec", "store-burst", "ammp"} {
		t.Run("unbounded=conventional-256/"+bench, func(t *testing.T) {
			u := Run(RunSpec{Benchmark: bench, Insts: 20_000, Model: ModelUnbounded})
			c := Run(RunSpec{Benchmark: bench, Insts: 20_000, Model: ModelConventional, ConvEntries: 256})
			if u.CPU != c.CPU {
				t.Errorf("unbounded %+v\nconventional-256 %+v", u.CPU, c.CPU)
			}
		})
	}
}

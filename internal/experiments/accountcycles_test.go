package experiments

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"samielsq/internal/core"
	"samielsq/internal/energy"
	"samielsq/internal/lsq"
)

// accountedStats returns what a model's AccountCycles accumulates
// besides the meter, in a comparable form.
func accountedStats(m lsq.Model) any {
	switch m := m.(type) {
	case *core.SAMIE:
		return m.Stats()
	case *lsq.Conventional:
		return m.Occupancy()
	}
	return nil
}

// TestAccountCyclesMatchesRepeatedCycles (P00015) holds every LSQ
// model to the lsq.Model.AccountCycles contract the quiescent-span
// skip relies on: accounting k cycles in one call leaves the model's
// statistics and its energy.Meter exactly equal (==, no tolerance) to
// k calls that account one cycle each. Two twins of each ModelKind are
// driven by the same calls from one PCG stream — random Dispatch,
// AddressReady, Tick and Commit traffic, with a Flush when a placement
// fails, as the CPU would — into reachable states, accounting one
// cycle after half the steps like a stepped cycle; at random steps one twin
// accounts k ∈ {0, 1, 2, 37, random ≤ 10 000} cycles at once and the
// other k times one.
func TestAccountCyclesMatchesRepeatedCycles(t *testing.T) {
	for i, row := range contractModels {
		t.Run(ModelName(row.kind), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(0xacc0, uint64(i)))
			spec := Normalize(row.spec)
			ma, mb := energy.NewMeter(), energy.NewMeter()
			a, b := row.mk(spec, ma), row.mk(spec, mb)
			both := func(f func(m lsq.Model)) { f(a); f(b) }

			var live []uint64 // dispatched and not retired, oldest first
			addressed := map[uint64]bool{}
			placed := map[uint64]bool{}
			flush := func() {
				both(lsq.Model.Flush)
				live = live[:0]
				clear(addressed)
				clear(placed)
			}
			next := uint64(1)
			checks, occupied, waiting := 0, 0, 0
			for step := 0; step < 4000; step++ {
				switch r := rng.IntN(100); {
				case r < 35:
					isLoad := rng.IntN(3) != 0
					okA, okB := a.Dispatch(next, isLoad), b.Dispatch(next, isLoad)
					if okA != okB {
						t.Fatalf("step %d: twins disagree on Dispatch", step)
					}
					if okA {
						live = append(live, next)
					}
					next++
				case r < 70 && len(live) > 0:
					seq := live[rng.IntN(len(live))]
					if addressed[seq] || a.FreeCapacity() == 0 {
						break
					}
					addressed[seq] = true
					addr := 0x10000 + uint64(rng.IntN(24))*32 + uint64(rng.IntN(8))*4
					if row.bufferLine != nil && rng.IntN(2) == 0 {
						addr = row.bufferLine(rng.IntN(24))
					}
					isLoad := rng.IntN(3) != 0
					pa, pb := a.AddressReady(seq, isLoad, addr, 4), b.AddressReady(seq, isLoad, addr, 4)
					if pa != pb {
						t.Fatalf("step %d: twins placed %+v and %+v", step, pa, pb)
					}
					if pa.Failed {
						flush()
					} else if pa.Placed {
						placed[seq] = true
					}
				case r < 90 && len(live) > 0 && placed[live[0]]:
					both(func(m lsq.Model) { m.Commit(live[0]) })
					delete(placed, live[0])
					live = live[1:]
				}
				ta := a.Tick()
				for _, seq := range ta {
					placed[seq] = true
				}
				if got := fmt.Sprint(b.Tick()); got != fmt.Sprint(ta) {
					t.Fatalf("step %d: twins' Ticks placed %v and %s", step, ta, got)
				}
				if rng.IntN(2) == 0 {
					both(func(m lsq.Model) { m.AccountCycles(1) })
				}

				if rng.IntN(4) != 0 {
					continue
				}
				k := [...]uint64{0, 1, 2, 37, rng.Uint64N(10_001)}[rng.IntN(5)]
				a.AccountCycles(k)
				for j := uint64(0); j < k; j++ {
					b.AccountCycles(1)
				}
				if sa, sb := accountedStats(a), accountedStats(b); sa != sb || *ma != *mb {
					t.Fatalf("step %d, %d in flight: AccountCycles(%d) differs from %d calls of AccountCycles(1)\n"+
						"at once:  %+v %+v\none by one: %+v %+v", step, a.InFlight(), k, k, sa, *ma, sb, *mb)
				}
				checks++
				if a.InFlight() > 0 && k > 1 {
					occupied++
				}
				for _, seq := range live {
					if addressed[seq] && !placed[seq] {
						waiting++
						break
					}
				}
			}
			if checks == 0 || occupied == 0 {
				t.Fatalf("%d checks, %d with a multi-cycle span over an occupied model", checks, occupied)
			}
			if row.bufferLine != nil && waiting == 0 {
				t.Fatal("no check had an instruction waiting for placement")
			}
		})
	}
}

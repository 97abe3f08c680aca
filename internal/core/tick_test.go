package core

import (
	"fmt"
	"math/rand"
	"testing"

	"samielsq/internal/energy"
	"samielsq/internal/lsq"
)

// blockedSAMIE returns a tiny SAMIE-LSQ whose bank 0 and SharedLSQ are
// full of loads 1-3, with load 4 (bank 0 again) blocked at the head of
// the AddrBuffer.
func blockedSAMIE(t testing.TB, m *energy.Meter) *SAMIE {
	t.Helper()
	s := New(tiny(), m)
	for seq := uint64(1); seq <= 4; seq++ {
		s.Dispatch(seq, true)
		pl := s.AddressReady(seq, true, addrForBank(0, int(seq-1)), 4)
		if want := seq == 4; pl.Buffered != want {
			t.Fatalf("seq %d: placement %+v, want buffered=%v", seq, pl, want)
		}
	}
	return s
}

// TestSAMIEReleaseGatedRetry pins the SAMIE side of the lsq.Model.Tick
// contract: with the AddrBuffer head blocked, Ticks place nothing and
// charge nothing, whatever non-retiring traffic arrives, until a
// Commit frees room; the first Tick after it places the head.
func TestSAMIEReleaseGatedRetry(t *testing.T) {
	m := energy.NewMeter()
	s := blockedSAMIE(t, m)
	tickIdle := func(why string) {
		t.Helper()
		before, stats := *m, s.Stats()
		if got := s.Tick(); len(got) != 0 {
			t.Fatalf("%s: Tick placed %v without a release", why, got)
		}
		if *m != before || s.Stats() != stats || s.AddrBufferLen() != 1 {
			t.Fatalf("%s: an idle Tick changed the meter, the statistics or the AddrBuffer", why)
		}
	}
	for i := 0; i < 3; i++ {
		tickIdle("blocked head")
	}
	// Non-retiring traffic: a load that places in another bank and
	// performs, and a presentBit flush.
	s.Dispatch(5, true)
	if pl := s.AddressReady(5, true, addrForBank(1, 0), 4); !pl.Placed {
		t.Fatalf("seq 5 not placed: %+v", pl)
	}
	s.ForwardingSource(5)
	s.Plan(5)
	s.RecordAccess(5, 3, 1, 0x10)
	s.NotePerformed(5)
	s.ClearCachedLocations()
	tickIdle("after non-retiring traffic")

	s.Commit(1)
	if got := s.Tick(); len(got) != 1 || got[0] != 4 {
		t.Fatalf("first Tick after the release placed %v, want [4]", got)
	}
	if s.AddrBufferLen() != 0 {
		t.Fatalf("AddrBuffer still holds %d after the drain", s.AddrBufferLen())
	}
}

// tickModels are the four LSQ organizations under the Tick contract,
// each sized small enough for a short random stream to fill it.
var tickModels = []struct {
	name string
	mk   func(m *energy.Meter) lsq.Model
}{
	{"samie", func(m *energy.Meter) lsq.Model { return New(tiny(), m) }},
	{"conventional", func(m *energy.Meter) lsq.Model { return lsq.NewConventional(16, m) }},
	{"arb", func(m *energy.Meter) lsq.Model { return lsq.NewARB(2, 1, 32) }},
	{"unbounded", func(m *energy.Meter) lsq.Model { return lsq.NewUnbounded() }},
}

// modelState is everything a Tick could change that a caller can
// observe: the meter, the model's own statistics and its occupancy.
func modelState(model lsq.Model, m *energy.Meter) string {
	var stats any
	switch x := model.(type) {
	case *SAMIE:
		stats = []any{x.Stats(), x.AddrBufferLen()}
	case *lsq.Conventional:
		stats = x.Occupancy()
	}
	return fmt.Sprintf("%+v %v %d %d", *m, stats, model.InFlight(), model.FreeCapacity())
}

// TestTickContract is the seeded conformance test of the lsq.Model.Tick
// contract over all four models: after a Tick that placed nothing, any
// mix of Dispatch, AddressReady, ForwardingSource, NotePerformed, Plan,
// RecordAccess and ClearCachedLocations without a Commit or Flush
// leaves the next Tick placing nothing and changing nothing.
func TestTickContract(t *testing.T) {
	for _, mc := range tickModels {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed %d", mc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				m := energy.NewMeter()
				model := mc.mk(m)
				var live []uint64 // dispatched and not retired, oldest first
				addressed := map[uint64]bool{}
				// placed holds what the AddressReady and Tick results
				// reported, as the CPU sees it.
				placed := map[uint64]bool{}
				tick := func() []uint64 {
					got := model.Tick()
					for _, seq := range got {
						placed[seq] = true
					}
					return got
				}
				next := uint64(1)
				pick := func() uint64 { return live[rng.Intn(len(live))] }
				// traffic issues one random call that is neither a
				// Commit nor a Flush.
				traffic := func() {
					switch r := rng.Intn(10); {
					case r < 3 || len(live) == 0:
						if len(live) < 24 && model.Dispatch(next, rng.Intn(2) == 0) {
							live = append(live, next)
						}
						next++
					case r < 6:
						// Like the CPU, deliver each address once.
						if seq := pick(); !addressed[seq] {
							addressed[seq] = true
							addr := 0x10000 + uint64(rng.Intn(24))*32 + uint64(rng.Intn(8))*4
							if model.AddressReady(seq, rng.Intn(2) == 0, addr, 4).Placed {
								placed[seq] = true
							}
						}
					case r < 7:
						model.ForwardingSource(pick())
					case r < 8:
						model.NotePerformed(pick())
					case r < 9:
						seq := pick()
						model.Plan(seq)
						model.RecordAccess(seq, rng.Intn(64), rng.Intn(4), uint64(rng.Intn(8)))
					default:
						model.ClearCachedLocations()
					}
				}
				checked, blocked := 0, 0
				for step := 0; step < 3000; step++ {
					switch r := rng.Intn(100); {
					case r < 2:
						model.Flush()
						live = live[:0]
						clear(addressed)
						clear(placed)
					case r < 20 && len(live) > 0 && placed[live[0]]:
						model.Commit(live[0])
						delete(placed, live[0])
						live = live[1:]
					default:
						traffic()
					}
					model.AccountCycles(1)
					if len(tick()) != 0 {
						continue
					}
					for k := rng.Intn(8); k > 0; k-- {
						traffic()
					}
					before := modelState(model, m)
					if got := tick(); len(got) != 0 {
						t.Fatalf("step %d: Tick placed %v after an idle Tick with no Commit or Flush", step, got)
					}
					if after := modelState(model, m); after != before {
						t.Fatalf("step %d: idle Tick changed the model:\nbefore %s\nafter  %s", step, before, after)
					}
					checked++
					for _, seq := range live {
						if !placed[seq] {
							blocked++
							break
						}
					}
				}
				if checked == 0 {
					t.Fatal("no idle Tick was checked")
				}
				if (mc.name == "samie" || mc.name == "arb") && blocked == 0 {
					t.Fatal("no idle Tick was checked with an instruction waiting for placement")
				}
			})
		}
	}
}

// BenchmarkHotPathSAMIETick times the per-cycle Tick of a SAMIE-LSQ
// whose AddrBuffer head is blocked and nothing retires.
func BenchmarkHotPathSAMIETick(b *testing.B) {
	s := blockedSAMIE(b, nil)
	s.Tick()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if placed := s.Tick(); len(placed) != 0 {
			b.Fatalf("placed %v without a release", placed)
		}
	}
}

package cacti

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestGeometryValidate(t *testing.T) {
	for _, g := range []Geometry{
		{Rows: 0, Bits: 8, Assoc: 1, Ports: 1},
		{Rows: 8, Bits: 0, Assoc: 1, Ports: 1},
		{Rows: 8, Bits: 8, Assoc: 0, Ports: 1},
		{Rows: 8, Bits: 8, Assoc: 1, Ports: 0},
	} {
		if err := g.Validate(); err == nil {
			t.Errorf("invalid geometry accepted: %+v", g)
		}
	}
}

func TestDelayMonotonicInRows(t *testing.T) {
	tech := Tech100nm()
	prev := 0.0
	for rows := 2; rows <= 512; rows *= 2 {
		d := tech.AccessDelay(Geometry{Rows: rows, Bits: 32, Assoc: 1, Ports: 2, CAM: true})
		if d <= prev {
			t.Fatalf("delay not increasing at %d rows: %v <= %v", rows, d, prev)
		}
		prev = d
	}
}

func TestDelayMonotonicInPorts(t *testing.T) {
	tech := Tech100nm()
	prev := 0.0
	for ports := 1; ports <= 8; ports++ {
		d := tech.AccessDelay(Geometry{Rows: 64, Bits: 32, Assoc: 1, Ports: ports})
		if d <= prev {
			t.Fatalf("delay not increasing at %d ports", ports)
		}
		prev = d
	}
}

func TestCAMSlowerThanRAM(t *testing.T) {
	tech := Tech100nm()
	ram := tech.AccessDelay(Geometry{Rows: 64, Bits: 32, Assoc: 1, Ports: 2})
	cam := tech.AccessDelay(Geometry{Rows: 64, Bits: 32, Assoc: 1, Ports: 2, CAM: true})
	if cam <= ram {
		t.Fatalf("CAM (%v) not slower than RAM (%v)", cam, ram)
	}
	eRAM := tech.AccessEnergy(Geometry{Rows: 64, Bits: 32, Assoc: 1, Ports: 2})
	eCAM := tech.AccessEnergy(Geometry{Rows: 64, Bits: 32, Assoc: 1, Ports: 2, CAM: true})
	if eCAM <= eRAM {
		t.Fatalf("CAM energy (%v) not above RAM (%v)", eCAM, eRAM)
	}
}

func TestPositiveOutputs(t *testing.T) {
	tech := Tech100nm()
	f := func(rows, bits, ports uint8, cam bool) bool {
		g := Geometry{
			Rows:  int(rows%200) + 1,
			Bits:  int(bits%200) + 1,
			Assoc: 1,
			Ports: int(ports%8) + 1,
			CAM:   cam,
		}
		return tech.AccessDelay(g) > 0 && tech.AccessEnergy(g) > 0 && tech.Area(g) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCacheAccessWayKnownNeverSlower(t *testing.T) {
	tech := Tech100nm()
	for _, p := range PaperTable1 {
		d := tech.CacheAccess(p.SizeKB<<10, p.Ways, 32, p.Ports)
		if d.WayKnown > d.Conventional {
			t.Errorf("%dKB %dw %dp: way-known %.3f > conventional %.3f",
				p.SizeKB, p.Ways, p.Ports, d.WayKnown, d.Conventional)
		}
		if d.Conventional <= 0 {
			t.Errorf("non-positive delay for %+v", p)
		}
	}
}

func TestTable1Trends(t *testing.T) {
	tech := Tech100nm()
	// Trend 1: bigger cache is slower (same assoc/ports).
	d8 := tech.CacheAccess(8<<10, 2, 32, 2)
	d32 := tech.CacheAccess(32<<10, 2, 32, 2)
	if d32.Conventional <= d8.Conventional {
		t.Error("32KB not slower than 8KB")
	}
	// Trend 2: more ports are slower.
	d8p4 := tech.CacheAccess(8<<10, 2, 32, 4)
	if d8p4.Conventional <= d8.Conventional {
		t.Error("4 ports not slower than 2 ports")
	}
	// Trend 3 (the paper's key observation): the way-known improvement
	// shrinks as the data path grows; the 8KB 2-way 2-port improvement
	// exceeds the 32KB 4-way 4-port improvement.
	imprSmall := 1 - d8.WayKnown/d8.Conventional
	big := tech.CacheAccess(32<<10, 4, 32, 4)
	imprBig := 1 - big.WayKnown/big.Conventional
	if imprSmall <= imprBig {
		t.Errorf("improvement trend inverted: small %.3f <= big %.3f", imprSmall, imprBig)
	}
}

func TestModelNearPaperAnchors(t *testing.T) {
	tech := Tech100nm()
	within := func(name string, got, want, tol float64) {
		if got < want*(1-tol) || got > want*(1+tol) {
			t.Errorf("%s: model %.3f vs paper %.3f (tolerance %.0f%%)", name, got, want, tol*100)
		}
	}
	// §3.6 anchors within 35% (the model is trend-calibrated, not
	// point-fitted; a failure reports the model and paper values).
	within("conv 128-entry LSQ", tech.LSQDelay(128, 32, 4), DelayConv128, 0.35)
	within("DistribLSQ bank", tech.LSQDelay(2, 27, 2), DelayDistribCompare, 0.35)
	within("SharedLSQ", tech.LSQDelay(8, 27, 2), DelayShared, 0.35)
	// Table 1 anchors within 45%; more importantly the improvement
	// (conv - known) must track the paper row by row within 7 points
	// of percentage — that pattern is the paper's claim.
	for _, p := range PaperTable1 {
		d := tech.CacheAccess(p.SizeKB<<10, p.Ways, 32, p.Ports)
		within("table1 conv", d.Conventional, p.Conventional, 0.45)
		within("table1 known", d.WayKnown, p.WayKnown, 0.45)
		gotImpr := 1 - d.WayKnown/d.Conventional
		wantImpr := 1 - p.WayKnown/p.Conventional
		if math.Abs(gotImpr-wantImpr) > 0.07 {
			t.Errorf("%dKB %dw %dp: improvement %.1f%% vs paper %.1f%%",
				p.SizeKB, p.Ways, p.Ports, gotImpr*100, wantImpr*100)
		}
	}
}

func TestAreaScaling(t *testing.T) {
	tech := Tech100nm()
	a1 := tech.Area(Geometry{Rows: 64, Bits: 32, Assoc: 1, Ports: 1})
	a2 := tech.Area(Geometry{Rows: 128, Bits: 32, Assoc: 1, Ports: 1})
	if a2 != 2*a1 {
		t.Fatalf("area not linear in rows: %v vs %v", a1, a2)
	}
	ap := tech.Area(Geometry{Rows: 64, Bits: 32, Assoc: 1, Ports: 4})
	if ap <= a1 {
		t.Fatal("ports do not grow area")
	}
}

func TestBusDelayGrowsWithCapacity(t *testing.T) {
	tech := Tech100nm()
	small := tech.BusDelay(16, 32)
	big := tech.BusDelay(1024, 64)
	if big <= small {
		t.Fatalf("bus delay not increasing: %v <= %v", big, small)
	}
}

func TestPublishedConstantsSanity(t *testing.T) {
	// Spot-check the transcription of the paper's tables.
	if ConvLSQ.CmpBase != 452 || ConvLSQ.CmpPerAddr != 3.53 {
		t.Fatal("Table 4 transcription wrong")
	}
	if DistribLSQ.CmpBase != 4.33 || SharedLSQ.CmpBase != 22.7 {
		t.Fatal("Table 5 transcription wrong")
	}
	if DcacheFullAccess != 1009 || DcacheWayKnown != 276 || DTLBAccess != 273 {
		t.Fatal("cache/TLB energies wrong")
	}
	if len(PaperTable1) != 8 {
		t.Fatalf("Table 1 has %d rows, want 8", len(PaperTable1))
	}
	// Paper invariant: way-known never slower, and the 32KB 4-way
	// 4-port row shows zero improvement.
	last := PaperTable1[7]
	if last.Conventional != last.WayKnown {
		t.Fatal("32KB/4w/4p row should show no improvement")
	}
}

// TestCellAreasAreIntegers: every Table 6 cell area is a whole number
// of µm². energy.Meter.AccumulateArea multiplies a one-cycle area by a
// cycle count instead of adding it once per cycle, which is exact, and
// equal to the per-cycle sum, only while every term is an integer.
func TestCellAreasAreIntegers(t *testing.T) {
	for name, cells := range map[string]CellAreas{
		"ConvAreas": ConvAreas, "DistribAreas": DistribAreas,
		"SharedAreas": SharedAreas, "AddrBufferAreas": AddrBufferAreas,
	} {
		v := reflect.ValueOf(cells)
		for i := range v.NumField() {
			if a := v.Field(i).Float(); a != math.Trunc(a) {
				t.Errorf("%s.%s = %v µm², not an integer", name, v.Type().Field(i).Name, a)
			}
		}
	}
}

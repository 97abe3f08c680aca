package experiments

import (
	"fmt"
	"strings"

	"samielsq/internal/cacti"
	"samielsq/internal/stats"
)

// Table1Row compares the analytical model against a published Table 1
// row.
type Table1Row struct {
	SizeKB, Ways, Ports int

	ModelConv, ModelKnown float64 // analytical model, ns
	PaperConv, PaperKnown float64 // published, ns

	ModelImprovement float64 // 1 - known/conv (model)
	PaperImprovement float64
}

// Table1Result holds the Table 1 reproduction.
type Table1Result struct{ Rows []Table1Row }

// Table1 reproduces Table 1 with the analytical CACTI-style model and
// lists the published values next to it.
func Table1() Table1Result {
	tech := cacti.Tech100nm()
	var res Table1Result
	for _, p := range cacti.PaperTable1 {
		d := tech.CacheAccess(p.SizeKB<<10, p.Ways, 32, p.Ports)
		row := Table1Row{
			SizeKB: p.SizeKB, Ways: p.Ways, Ports: p.Ports,
			ModelConv: d.Conventional, ModelKnown: d.WayKnown,
			PaperConv: p.Conventional, PaperKnown: p.WayKnown,
		}
		if d.Conventional > 0 {
			row.ModelImprovement = 1 - d.WayKnown/d.Conventional
		}
		if p.Conventional > 0 {
			row.PaperImprovement = 1 - p.WayKnown/p.Conventional
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// String renders the comparison.
//
//samie:deterministic
func (t Table1Result) String() string {
	tb := stats.NewTable("size", "assoc", "ports",
		"model conv (ns)", "model known (ns)", "model improv",
		"paper conv (ns)", "paper known (ns)", "paper improv")
	for _, r := range t.Rows {
		tb.AddRow(fmt.Sprintf("%dKB", r.SizeKB), fmt.Sprintf("%d way", r.Ways), r.Ports,
			fmt.Sprintf("%.3f", r.ModelConv), fmt.Sprintf("%.3f", r.ModelKnown),
			stats.Percent(r.ModelImprovement),
			fmt.Sprintf("%.3f", r.PaperConv), fmt.Sprintf("%.3f", r.PaperKnown),
			stats.Percent(r.PaperImprovement))
	}
	return "Table 1: cache access time, conventional vs physical-line-known\n" + tb.String()
}

// DelayRow compares one §3.6 structure delay against the model.
type DelayRow struct {
	Structure string
	Model     float64
	Paper     float64
}

// DelayResult holds the §3.6 delay analysis.
type DelayResult struct{ Rows []DelayRow }

// Delays reproduces the §3.6 delay analysis with the analytical model:
// DistribLSQ bank compare + bus, SharedLSQ, AddrBuffer and the
// 128-entry and 16-entry conventional LSQs (the paper quotes the
// 16-entry delay as ~4% above the SAMIE-LSQ total).
func Delays() DelayResult {
	tech := cacti.Tech100nm()
	const addrBits = 27 // line address bits compared by the CAMs

	bankCmp := tech.LSQDelay(2, addrBits, 2)
	bus := tech.BusDelay(128, addrBits+64)
	shared := tech.LSQDelay(8, addrBits, 2)
	addrBuf := tech.AccessDelay(cacti.Geometry{Rows: 64, Bits: 41, Assoc: 1, Ports: 2})
	conv128 := tech.LSQDelay(128, 32, 4)
	conv16 := tech.LSQDelay(16, 32, 4)

	return DelayResult{Rows: []DelayRow{
		{"DistribLSQ bank compare", bankCmp, cacti.DelayDistribCompare},
		{"DistribLSQ bus", bus, cacti.DelayDistribBus},
		{"DistribLSQ total", bankCmp + bus, cacti.DelayDistribTotal},
		{"SharedLSQ", shared, cacti.DelayShared},
		{"AddrBuffer", addrBuf, cacti.DelayAddrBuffer},
		{"Conventional LSQ (128)", conv128, cacti.DelayConv128},
		{"Conventional LSQ (16)", conv16, cacti.DelayDistribTotal * 1.04},
	}}
}

// String renders the delay comparison.
//
//samie:deterministic
func (d DelayResult) String() string {
	t := stats.NewTable("structure", "model (ns)", "paper (ns)")
	for _, r := range d.Rows {
		t.AddRow(r.Structure, fmt.Sprintf("%.3f", r.Model), fmt.Sprintf("%.3f", r.Paper))
	}
	return "Section 3.6: structure delays\n" + t.String()
}

// Tables456Result is the Table 4/5/6 artefact: the published energy
// and area constants that drive the accounting (internal/cacti), next
// to the analytical model's estimates for the same geometries. It
// carries no data of its own; String renders the constants.
type Tables456Result struct{}

// Tables456 returns the Table 4/5/6 artefact.
func Tables456() Tables456Result { return Tables456Result{} }

// String renders Tables 4, 5 and 6 and the model cross-check.
//
//samie:deterministic
func (Tables456Result) String() string {
	var b strings.Builder
	tech := cacti.Tech100nm()

	b.WriteString("Table 4: conventional 128-entry LSQ energies (pJ)\n")
	t4 := stats.NewTable("activity", "paper")
	t4.AddRow("address comparison (base)", cacti.ConvLSQ.CmpBase)
	t4.AddRow("address comparison (per addr)", cacti.ConvLSQ.CmpPerAddr)
	t4.AddRow("read/write an address", cacti.ConvLSQ.RWAddr)
	t4.AddRow("read/write a datum", cacti.ConvLSQ.RWDatum)
	b.WriteString(t4.String())

	b.WriteString("\nTable 5: SAMIE-LSQ energies (pJ)\n")
	t5 := stats.NewTable("activity", "DistribLSQ", "SharedLSQ")
	t5.AddRow("address comparison (base)", cacti.DistribLSQ.CmpBase, cacti.SharedLSQ.CmpBase)
	t5.AddRow("address comparison (per addr)", cacti.DistribLSQ.CmpPerAddr, cacti.SharedLSQ.CmpPerAddr)
	t5.AddRow("read/write an address", cacti.DistribLSQ.RWAddr, cacti.SharedLSQ.RWAddr)
	t5.AddRow("age comparison (base/entry)", cacti.DistribLSQ.AgeCmpBase, cacti.SharedLSQ.AgeCmpBase)
	t5.AddRow("age comparison (per id)", cacti.DistribLSQ.AgeCmpPerID, cacti.SharedLSQ.AgeCmpPerID)
	t5.AddRow("read/write an age id", cacti.DistribLSQ.RWAge, cacti.SharedLSQ.RWAge)
	t5.AddRow("read/write a datum", cacti.DistribLSQ.RWDatum, cacti.SharedLSQ.RWDatum)
	t5.AddRow("read/write a TLB translation", cacti.DistribLSQ.RWTLB, cacti.SharedLSQ.RWTLB)
	t5.AddRow("read/write a cache line id", cacti.DistribLSQ.RWLineID, cacti.SharedLSQ.RWLineID)
	b.WriteString(t5.String())
	fmt.Fprintf(&b, "bus send: %.1f pJ; AddrBuffer datum/age: %.1f/%.1f pJ\n",
		cacti.BusSendAddr, cacti.AddrBufferDatum, cacti.AddrBufferAgeID)
	fmt.Fprintf(&b, "Dcache access full/way-known: %d/%d pJ; DTLB access: %d pJ\n",
		cacti.DcacheFullAccess, cacti.DcacheWayKnown, cacti.DTLBAccess)

	b.WriteString("\nTable 6: cell areas (µm²)\n")
	t6 := stats.NewTable("structure", "cell", "paper")
	t6.AddRow("conventional LSQ", "address CAM", cacti.ConvAreas.AddrCAM)
	t6.AddRow("conventional LSQ", "datum RAM", cacti.ConvAreas.Datum)
	t6.AddRow("DistribLSQ/SharedLSQ", "address CAM", cacti.DistribAreas.AddrCAM)
	t6.AddRow("DistribLSQ/SharedLSQ", "age id CAM", cacti.DistribAreas.AgeCAM)
	t6.AddRow("DistribLSQ/SharedLSQ", "datum RAM", cacti.DistribAreas.Datum)
	t6.AddRow("AddrBuffer", "datum/age RAM", cacti.AddrBufferAreas.Datum)
	b.WriteString(t6.String())

	// Model cross-check: energy per activity from the analytical model
	// for the corresponding geometries.
	b.WriteString("\nAnalytical-model cross-check (pJ per access)\n")
	tc := stats.NewTable("structure", "model estimate")
	tc.AddRow("conventional LSQ CAM search (128x32, 4 ports)",
		tech.AccessEnergy(cacti.Geometry{Rows: 128, Bits: 32, Assoc: 1, Ports: 4, CAM: true}))
	tc.AddRow("DistribLSQ bank CAM search (2x27, 2 ports)",
		tech.AccessEnergy(cacti.Geometry{Rows: 2, Bits: 27, Assoc: 1, Ports: 2, CAM: true}))
	tc.AddRow("SharedLSQ CAM search (8x27, 2 ports)",
		tech.AccessEnergy(cacti.Geometry{Rows: 8, Bits: 27, Assoc: 1, Ports: 2, CAM: true}))
	b.WriteString(tc.String())
	return b.String()
}

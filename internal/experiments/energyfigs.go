package experiments

import (
	"context"
	"fmt"
	"strings"

	"samielsq/internal/stats"
)

// EnergyRow is one benchmark's energy comparison, used by Figures
// 7-12 (all derive from the same conventional/SAMIE simulation pair).
type EnergyRow struct {
	Benchmark string

	// Figure 7: LSQ dynamic energy (pJ).
	ConvLSQ  float64
	SAMIELSQ float64

	// Figure 8: SAMIE breakdown (pJ).
	Distrib, Shared, AddrBuffer, Bus float64

	// Figures 9 and 10: Dcache and DTLB dynamic energy (pJ).
	ConvDcache, SAMIEDcache float64
	ConvDTLB, SAMIEDTLB     float64

	// Figures 11 and 12: accumulated active area (µm²·cycles).
	ConvArea                                float64
	SAMIEArea                               float64
	DistribArea, SharedArea, AddrBufferArea float64
}

// EnergyResult bundles Figures 7-12.
type EnergyResult struct {
	Rows  []EnergyRow
	Insts uint64
}

// Energy runs the conventional/SAMIE pair per benchmark and extracts
// every energy and active-area series of §4.4-§4.5. The pair is the
// same one Figure56 uses, so a shared batch simulates it once for
// both harnesses.
func (bt *Batch) Energy(benchmarks []string, insts uint64) EnergyResult {
	return mustFigure(bt.energy(context.Background(), benchmarks, insts))
}

// energy is Energy with cancellation (see figure1).
func (bt *Batch) energy(ctx context.Context, benchmarks []string, insts uint64) (EnergyResult, error) {
	conv, samie, err := bt.runPair(ctx, benchmarks, insts)
	if err != nil {
		return EnergyResult{}, err
	}
	res := EnergyResult{Insts: insts}
	for i, b := range benchmarks {
		cm, sm := conv[i].Meter, samie[i].Meter
		res.Rows = append(res.Rows, EnergyRow{
			Benchmark:      b,
			ConvLSQ:        cm.ConvLSQ,
			SAMIELSQ:       sm.SAMIETotal(),
			Distrib:        sm.Distrib,
			Shared:         sm.Shared,
			AddrBuffer:     sm.AddrBuffer,
			Bus:            sm.Bus,
			ConvDcache:     cm.Dcache,
			SAMIEDcache:    sm.Dcache,
			ConvDTLB:       cm.DTLB,
			SAMIEDTLB:      sm.DTLB,
			ConvArea:       cm.ConvArea,
			SAMIEArea:      sm.SAMIEArea(),
			DistribArea:    sm.DistribArea,
			SharedArea:     sm.SharedArea,
			AddrBufferArea: sm.AddrBufferArea,
		})
	}
	return res, nil
}

// savings returns 1 - sum(new)/sum(old) over all rows.
func savings(rows []EnergyRow, old, new func(EnergyRow) float64) float64 {
	var o, n float64
	for _, r := range rows {
		o += old(r)
		n += new(r)
	}
	if o == 0 {
		return 0
	}
	return 1 - n/o
}

// LSQSavings returns the suite-wide LSQ dynamic-energy saving: ledger
// claim C00002 (claims.go) holds the paper's value.
func (e EnergyResult) LSQSavings() float64 {
	return savings(e.Rows, func(r EnergyRow) float64 { return r.ConvLSQ },
		func(r EnergyRow) float64 { return r.SAMIELSQ })
}

// DcacheSavings returns the suite-wide L1 Dcache saving: ledger claim
// C00003.
func (e EnergyResult) DcacheSavings() float64 {
	return savings(e.Rows, func(r EnergyRow) float64 { return r.ConvDcache },
		func(r EnergyRow) float64 { return r.SAMIEDcache })
}

// DTLBSavings returns the suite-wide DTLB saving: ledger claim C00004.
func (e EnergyResult) DTLBSavings() float64 {
	return savings(e.Rows, func(r EnergyRow) float64 { return r.ConvDTLB },
		func(r EnergyRow) float64 { return r.SAMIEDTLB })
}

// AreaSavings returns the accumulated-active-area saving: ledger claim
// C00005.
func (e EnergyResult) AreaSavings() float64 {
	return savings(e.Rows, func(r EnergyRow) float64 { return r.ConvArea },
		func(r EnergyRow) float64 { return r.SAMIEArea })
}

// Figure7String renders Figure 7 (LSQ dynamic energy).
//
//samie:deterministic
func (e EnergyResult) Figure7String() string {
	t := stats.NewTable("benchmark", "conventional (nJ)", "SAMIE (nJ)", "saving")
	for _, r := range e.Rows {
		t.AddRow(r.Benchmark, r.ConvLSQ/1e3, r.SAMIELSQ/1e3, stats.Percent(1-r.SAMIELSQ/r.ConvLSQ))
	}
	return fmt.Sprintf("Figure 7: LSQ dynamic energy (suite saving %s, paper %s)\n%s",
		stats.Percent(e.LSQSavings()), claimLSQ.paper, t.String())
}

// Figure8String renders Figure 8 (SAMIE energy breakdown).
//
//samie:deterministic
func (e EnergyResult) Figure8String() string {
	t := stats.NewTable("benchmark", "DistribLSQ", "SharedLSQ", "AddrBuffer", "Bus")
	for _, r := range e.Rows {
		tot := r.Distrib + r.Shared + r.AddrBuffer + r.Bus
		if tot == 0 {
			tot = 1
		}
		t.AddRow(r.Benchmark, stats.Percent(r.Distrib/tot), stats.Percent(r.Shared/tot),
			stats.Percent(r.AddrBuffer/tot), stats.Percent(r.Bus/tot))
	}
	return "Figure 8: SAMIE-LSQ dynamic energy breakdown\n" + t.String()
}

// Figure9String renders Figure 9 (L1 Dcache energy).
//
//samie:deterministic
func (e EnergyResult) Figure9String() string {
	t := stats.NewTable("benchmark", "conventional (nJ)", "SAMIE (nJ)", "saving")
	for _, r := range e.Rows {
		t.AddRow(r.Benchmark, r.ConvDcache/1e3, r.SAMIEDcache/1e3, stats.Percent(1-r.SAMIEDcache/r.ConvDcache))
	}
	return fmt.Sprintf("Figure 9: L1 Dcache dynamic energy (suite saving %s, paper %s)\n%s",
		stats.Percent(e.DcacheSavings()), claimDcache.paper, t.String())
}

// Figure10String renders Figure 10 (DTLB energy).
//
//samie:deterministic
func (e EnergyResult) Figure10String() string {
	t := stats.NewTable("benchmark", "conventional (nJ)", "SAMIE (nJ)", "saving")
	for _, r := range e.Rows {
		t.AddRow(r.Benchmark, r.ConvDTLB/1e3, r.SAMIEDTLB/1e3, stats.Percent(1-r.SAMIEDTLB/r.ConvDTLB))
	}
	return fmt.Sprintf("Figure 10: DTLB dynamic energy (suite saving %s, paper %s)\n%s",
		stats.Percent(e.DTLBSavings()), claimDTLB.paper, t.String())
}

// Figure11String renders Figure 11 (accumulated active area).
//
//samie:deterministic
func (e EnergyResult) Figure11String() string {
	t := stats.NewTable("benchmark", "conventional", "SAMIE", "SAMIE/conv")
	for _, r := range e.Rows {
		ratio := 0.0
		if r.ConvArea > 0 {
			ratio = r.SAMIEArea / r.ConvArea
		}
		t.AddRow(r.Benchmark, r.ConvArea, r.SAMIEArea, ratio)
	}
	return fmt.Sprintf("Figure 11: accumulated active LSQ area, µm²·cycles (suite saving %s, paper %s)\n%s",
		stats.Percent(e.AreaSavings()), claimArea.paper, t.String())
}

// Figure12String renders Figure 12 (active-area breakdown).
//
//samie:deterministic
func (e EnergyResult) Figure12String() string {
	t := stats.NewTable("benchmark", "DistribLSQ", "SharedLSQ", "AddrBuffer")
	for _, r := range e.Rows {
		tot := r.DistribArea + r.SharedArea + r.AddrBufferArea
		if tot == 0 {
			tot = 1
		}
		t.AddRow(r.Benchmark, stats.Percent(r.DistribArea/tot),
			stats.Percent(r.SharedArea/tot), stats.Percent(r.AddrBufferArea/tot))
	}
	return "Figure 12: SAMIE-LSQ active-area breakdown\n" + t.String()
}

// String renders all six energy/area figures.
//
//samie:deterministic
func (e EnergyResult) String() string {
	var b strings.Builder
	for _, s := range []string{
		e.Figure7String(), e.Figure8String(), e.Figure9String(),
		e.Figure10String(), e.Figure11String(), e.Figure12String(),
	} {
		b.WriteString(s)
		b.WriteByte('\n')
	}
	return b.String()
}

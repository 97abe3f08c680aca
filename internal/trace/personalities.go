package trace

// This file defines the calibrated personalities for the 26 SPEC
// CPU2000 programs used in the paper's evaluation. The parameters are
// chosen to reproduce the qualitative per-benchmark facts the paper
// reports (the comment on each personality names them); absolute
// values are synthetic.
//
// Notation used in the comments:
//   concentrated = streams pinned to few DistribLSQ banks (BankSpread)
//   even         = unit-line strides, streams spread over all banks

// fpBase and intBase are templates; each personality overrides fields.
func fpBase(name string) Params {
	return Params{
		Name:             name,
		FP:               true,
		LoadFrac:         0.28,
		StoreFrac:        0.12,
		BranchFrac:       0.06,
		MulFrac:          0.12,
		DivFrac:          0.01,
		Streams:          6,
		StrideBytes:      LineBytes,
		RunLen:           4,
		RandFrac:         0.10,
		Revisit:          0.20,
		WorkingSet:       2 << 20,
		AccessSize:       8,
		StaticBranches:   32,
		RandomBranchFrac: 0.04,
		TakenBias:        0.72,
		DepGeom:          0.45,
		FarSrcFrac:       0.50,
	}
}

func intBase(name string) Params {
	return Params{
		Name:             name,
		FP:               false,
		LoadFrac:         0.24,
		StoreFrac:        0.10,
		BranchFrac:       0.18,
		MulFrac:          0.04,
		DivFrac:          0.01,
		Streams:          3,
		StrideBytes:      LineBytes,
		RunLen:           4,
		RandFrac:         0.30,
		Revisit:          0.30,
		WorkingSet:       256 << 10,
		AccessSize:       4,
		StaticBranches:   64,
		RandomBranchFrac: 0.10,
		TakenBias:        0.72,
		DepGeom:          0.58,
		FarSrcFrac:       0.38,
	}
}

// bankStride is the smallest stride that keeps a stream inside one
// DistribLSQ bank (64 banks x 32-byte lines).
const bankStride = 64 * LineBytes

var personalities = map[string]Params{
	// ---- Floating point -------------------------------------------------
	// ammp: heavily concentrated lines (worst SharedLSQ pressure and the
	// only program with many deadlock flushes, Fig. 6), yet high line
	// reuse (top Dcache savings, Fig. 9).
	"ammp": func() Params {
		p := fpBase("ammp")
		p.LoadFrac, p.StoreFrac = 0.30, 0.10
		p.Streams, p.BankSpread = 8, 7
		p.StrideBytes = bankStride
		p.RunLen = 5
		p.Revisit = 0.30
		p.RandFrac = 0.02
		p.WorkingSet = 2 << 20
		return p
	}(),
	// applu: even-spread dense solver, moderate pressure.
	"applu": func() Params {
		p := fpBase("applu")
		p.Streams = 8
		p.LoadFrac, p.StoreFrac = 0.28, 0.14
		p.RunLen = 4
		return p
	}(),
	// apsi: concentrated (high SharedLSQ needs, Fig. 3), mild IPC loss.
	"apsi": func() Params {
		p := fpBase("apsi")
		p.Streams, p.BankSpread = 10, 10
		p.StrideBytes = bankStride
		p.RunLen = 5
		p.LoadFrac = 0.30
		p.RandFrac = 0.04
		return p
	}(),
	// art: concentrated and cache-hostile (large working set, low IPC).
	"art": func() Params {
		p := fpBase("art")
		p.Streams, p.BankSpread = 6, 6
		p.StrideBytes = bankStride
		p.RunLen = 5
		p.WorkingSet = 8 << 20
		p.LoadFrac = 0.32
		p.RandFrac = 0.30
		return p
	}(),
	// equake: sparse solver, even spread, some random gathers.
	"equake": func() Params {
		p := fpBase("equake")
		p.Streams = 6
		p.RandFrac = 0.25
		p.LoadFrac = 0.30
		p.WorkingSet = 2 << 20
		return p
	}(),
	// facerec: concentrated *and* very high LSQ pressure with strong
	// line sharing — gains IPC under SAMIE (Fig. 5) because well-shared
	// entries hold more than 128 in-flight memory instructions.
	"facerec": func() Params {
		p := fpBase("facerec")
		p.Streams, p.BankSpread = 16, 16
		p.StrideBytes = bankStride
		p.RunLen = 6
		p.LoadFrac, p.StoreFrac = 0.38, 0.18
		p.RandFrac = 0.02
		p.DepGeom = 0.35
		return p
	}(),
	// fma3d: even spread, very high memory pressure, gains IPC.
	"fma3d": func() Params {
		p := fpBase("fma3d")
		p.Streams = 16
		p.RunLen = 8
		p.LoadFrac, p.StoreFrac = 0.36, 0.18
		p.WorkingSet = 1 << 20
		p.DepGeom = 0.35
		return p
	}(),
	// galgel: blocked linear algebra, high reuse, even spread.
	"galgel": func() Params {
		p := fpBase("galgel")
		p.Streams = 8
		p.RunLen = 6
		p.LoadFrac = 0.30
		p.WorkingSet = 512 << 10
		p.Revisit = 0.30
		return p
	}(),
	// lucas: FFT-style power-of-two strides, two-line jumps, even.
	"lucas": func() Params {
		p := fpBase("lucas")
		p.Streams = 4
		p.StrideBytes = 2 * LineBytes
		p.WorkingSet = 4 << 20
		return p
	}(),
	// mesa: FP but branchy and small-footprint (renders scanlines).
	"mesa": func() Params {
		p := fpBase("mesa")
		p.CodeBytes = 48 << 10
		p.BranchFrac = 0.12
		p.LoadFrac = 0.24
		p.WorkingSet = 256 << 10
		p.Streams = 4
		p.RandomBranchFrac = 0.10
		return p
	}(),
	// mgrid: concentrated multigrid strides, high SharedLSQ needs, some
	// IPC loss (Fig. 5).
	"mgrid": func() Params {
		p := fpBase("mgrid")
		p.Streams, p.BankSpread = 8, 9
		p.StrideBytes = bankStride
		p.RunLen = 6
		p.LoadFrac = 0.32
		p.RandFrac = 0.03
		return p
	}(),
	// sixtrack: lowest line reuse of the FP suite (lowest Dcache
	// savings, Fig. 9): short runs, little revisit, much randomness.
	"sixtrack": func() Params {
		p := fpBase("sixtrack")
		p.RunLen = 2
		p.Revisit = 0.25
		p.RandFrac = 0.30
		p.WorkingSet = 1 << 20
		p.LoadFrac = 0.26
		return p
	}(),
	// swim: textbook unit-stride streaming with long runs (top Dcache
	// savings alongside ammp, Fig. 9).
	"swim": func() Params {
		p := fpBase("swim")
		p.Streams = 6
		p.RunLen = 8
		p.LoadFrac, p.StoreFrac = 0.30, 0.14
		p.WorkingSet = 4 << 20
		p.Revisit = 0.15
		return p
	}(),
	// wupwise: even spread, good reuse.
	"wupwise": func() Params {
		p := fpBase("wupwise")
		p.Streams = 6
		p.RunLen = 6
		p.WorkingSet = 1 << 20
		return p
	}(),

	// ---- Integer --------------------------------------------------------
	// bzip2: buffer-oriented compression, modest LSQ needs (a worst
	// case for SAMIE active area, Fig. 11).
	"bzip2": func() Params {
		p := intBase("bzip2")
		p.WorkingSet = 4 << 20
		p.RunLen = 5
		p.Streams = 3
		return p
	}(),
	// crafty: branch-heavy chess search, tiny footprint.
	"crafty": func() Params {
		p := intBase("crafty")
		p.CodeBytes = 48 << 10
		p.BranchFrac = 0.20
		p.WorkingSet = 128 << 10
		p.RandomBranchFrac = 0.15
		return p
	}(),
	// eon: C++ ray tracer; stores relatively frequent.
	"eon": func() Params {
		p := intBase("eon")
		p.CodeBytes = 48 << 10
		p.StoreFrac = 0.16
		p.BranchFrac = 0.14
		p.WorkingSet = 64 << 10
		return p
	}(),
	// gap: group theory; list walking with medium footprint.
	"gap": func() Params {
		p := intBase("gap")
		p.Streams = 4
		p.BranchFrac = 0.14
		p.WorkingSet = 512 << 10
		return p
	}(),
	// gcc: large code/data footprint, very branchy.
	"gcc": func() Params {
		p := intBase("gcc")
		p.CodeBytes = 128 << 10
		p.BranchFrac = 0.20
		p.RandFrac = 0.40
		p.WorkingSet = 1 << 20
		p.RandomBranchFrac = 0.15
		return p
	}(),
	// gzip: small dictionary compression.
	"gzip": func() Params {
		p := intBase("gzip")
		p.WorkingSet = 512 << 10
		p.RunLen = 5
		return p
	}(),
	// mcf: pointer-chasing over a huge arc network: almost no line
	// sharing (lowest DTLB savings, Fig. 10) and long dependence chains.
	"mcf": func() Params {
		p := intBase("mcf")
		p.LoadFrac = 0.34
		p.RandFrac = 0.50
		p.RunLen = 2
		p.Revisit = 0.30
		p.WorkingSet = 16 << 20
		p.DepGeom = 0.75
		p.FarSrcFrac = 0.15
		return p
	}(),
	// parser: dictionary lookups, scattered accesses.
	"parser": func() Params {
		p := intBase("parser")
		p.RandFrac = 0.45
		p.BranchFrac = 0.20
		p.WorkingSet = 512 << 10
		return p
	}(),
	// perlbmk: interpreter dispatch, branchiest of the suite.
	"perlbmk": func() Params {
		p := intBase("perlbmk")
		p.CodeBytes = 96 << 10
		p.CodeBytes = 128 << 10
		p.BranchFrac = 0.22
		p.RandFrac = 0.35
		p.WorkingSet = 256 << 10
		p.RandomBranchFrac = 0.15
		return p
	}(),
	// twolf: place-and-route, scattered small structures.
	"twolf": func() Params {
		p := intBase("twolf")
		p.RandFrac = 0.40
		p.BranchFrac = 0.16
		p.WorkingSet = 256 << 10
		return p
	}(),
	// vortex: OO database, store-rich.
	"vortex": func() Params {
		p := intBase("vortex")
		p.CodeBytes = 64 << 10
		p.LoadFrac, p.StoreFrac = 0.26, 0.16
		p.BranchFrac = 0.16
		p.WorkingSet = 1 << 20
		return p
	}(),
	// vpr: FPGA place/route, scattered.
	"vpr": func() Params {
		p := intBase("vpr")
		p.LoadFrac = 0.26
		p.RandFrac = 0.35
		p.BranchFrac = 0.16
		p.WorkingSet = 256 << 10
		return p
	}(),
}

package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"samielsq/internal/experiments"
	"samielsq/internal/experiments/engine"
	"samielsq/internal/obs"
	"samielsq/pkg/client"
	"samielsq/pkg/cluster"
)

// The serve-zipf traffic replays the repository's own sweep drivers:
// the paper suite (what samie-cluster and samie-bench request) and every
// registered scenario (samie-bench -scenario), each over the golden
// programs at serveInsts. A client picks a driver uniformly from its
// seeded source and requests that driver's specs in the driver's order,
// waiting for each reply, then picks the next. Key popularity is not
// chosen here: it follows from how many drivers share a spec. The
// baselines every scenario compares against are requested by up to ten
// drivers, most specs by one, a Zipf-like skew.
const (
	// serveInsts keeps each simulation at a few milliseconds, so the
	// simulator does little and the service layers do most of the work.
	serveInsts   = 2000
	serveClients = 2
	// serveRound is the requests per round. Every round starts on a
	// fresh replica, so the first request of each key in a round is a
	// write: a simulate + persist, or a peer fetch + install.
	serveRound = 8192
	// serveBlock is the requests between two reference-kernel samples;
	// the clients pause while the kernel runs.
	serveBlock  = 1024
	serveSample = 6 // responses re-checked against a direct Batch run
	// warmChunk is the sibling's warm-up simulations per normalized
	// set-up step.
	warmChunk = 8
)

// serveKey is one spec of the key space with what a correct response
// must echo.
type serveKey struct {
	spec    experiments.RunSpec
	req     client.RunRequest
	key     string
	stepped uint64
}

// serveDriver is one sweep driver: the key indices it requests, in
// order.
type serveDriver struct {
	name string
	keys []int
}

// serveTraffic builds the key space (in first-request order) and the
// drivers over it; the suite comes first.
func serveTraffic() ([]serveKey, []serveDriver, error) {
	var ks []serveKey
	var ds []serveDriver
	index := map[string]int{}
	add := func(name string, specs []experiments.RunSpec) {
		d := serveDriver{name: name}
		for _, s := range specs {
			n := experiments.Normalize(s)
			key := experiments.Key(n)
			i, ok := index[key]
			if !ok {
				i = len(ks)
				index[key] = i
				ks = append(ks, serveKey{spec: n, req: client.RequestFor(n), key: key, stepped: n.Warmup + n.Insts})
			}
			d.keys = append(d.keys, i)
		}
		ds = append(ds, d)
	}
	add("suite", experiments.SuiteSpecs(goldenBenchmarks, serveInsts))
	for _, name := range experiments.ScenarioNames() {
		specs, _, err := experiments.ScenarioSpecs(name, goldenBenchmarks, serveInsts)
		if err != nil {
			return nil, nil, err
		}
		add(name, specs)
	}
	return ks, ds, nil
}

// serveMemLimit sizes the loaded replica's memo to the largest scenario
// sweep: a scenario re-run can stay in memory, the suite (148 specs)
// cannot, so its tail reloads from the disk tier.
func serveMemLimit(ds []serveDriver) int {
	n := 0
	for _, d := range ds[1:] {
		n = max(n, len(d.keys))
	}
	return n
}

// sweepStream is one client's request sequence: whole driver sweeps,
// the drivers drawn from a seeded source.
type sweepStream struct {
	rng     *rand.Rand
	drivers []serveDriver
	left    []int
}

func (s *sweepStream) next() int {
	if len(s.left) == 0 {
		s.left = s.drivers[s.rng.Intn(len(s.drivers))].keys
	}
	k := s.left[0]
	s.left = s.left[1:]
	return k
}

// serveRig is the replica under load (a) and its peer sibling (b).
type serveRig struct {
	a, b   *replica
	peer   *timedPeer
	aOpts  replicaOpts
	aDir   string // parent of the loaded replica's per-round directories
	rounds int
	// warmS is the sibling's simulation time (warmup + measured phases)
	// over its warm half, in normalized seconds.
	warmS float64
}

func (r *serveRig) close() error {
	var errs []error
	for _, rep := range []*replica{r.a, r.b} {
		if rep != nil {
			errs = append(errs, rep.retire())
			rep.ep.close()
		}
	}
	return errors.Join(errs...)
}

// renew replaces the loaded replica with a fresh one, with an empty
// memo and an empty cache directory, behind the same URL.
func (r *serveRig) renew() error {
	if err := r.a.retire(); err != nil {
		return err
	}
	r.rounds++
	a, err := bootReplica(r.a.ep, filepath.Join(r.aDir, fmt.Sprintf("a%d", r.rounds)), r.aOpts)
	if err != nil {
		return err
	}
	r.a = a
	return nil
}

// bootServeRig boots the sibling, warms it with the seeded half of the
// key space, then boots the replica under load with the sibling as its
// peer tier. It returns the set-up time in normalized seconds: each step
// is normalized by the reference kernel runs around it, so the kernel
// stays out of the set-up time and tracks the machine's speed closely.
func bootServeRig(cfg segCfg, keys []serveKey, warm []int, memLimit int, dir string, parent int64) (*serveRig, float64, error) {
	rig := &serveRig{aDir: filepath.Join(dir, "a")}
	norm := cfg.ref.normalizer(1)
	var setupS float64
	timed := func(step func() error) (float64, error) {
		t0 := time.Now()
		err := step()
		d := time.Since(t0).Seconds()
		f := norm.next()
		setupS += d * f
		return f, err
	}
	boot := func(dir string, o replicaOpts) (*replica, error) {
		var r *replica
		_, err := timed(func() error {
			ep, err := listen("127.0.0.1:0")
			if err != nil {
				return err
			}
			if r, err = bootReplica(ep, dir, o); err != nil {
				ep.close()
			}
			return err
		})
		return r, err
	}
	var err error
	if rig.b, err = boot(filepath.Join(dir, "b"), replicaOpts{}); err != nil {
		return nil, 0, err
	}
	// The warm-up simulations are timed in chunks, each normalized by the
	// kernel runs around it: short intervals track the machine's speed.
	for len(warm) > 0 {
		chunk := warm[:min(len(warm), warmChunk)]
		warm = warm[len(chunk):]
		var phases float64
		f, _ := timed(func() error {
			for _, i := range chunk {
				sp := cfg.tr.begin("experiments.Batch.Run", parent)
				r := rig.b.batch.Run(keys[i].spec)
				sp.end()
				phases += r.Phases.Warmup + r.Phases.Measured
			}
			return nil
		})
		rig.warmS += phases * f
	}
	rig.peer = &timedPeer{pf: cluster.NewPeerFetcher([]string{rig.b.ep.url}), tr: cfg.tr}
	rig.aOpts = replicaOpts{memLimit: memLimit, peer: rig.peer}
	if rig.a, err = boot(filepath.Join(rig.aDir, "a0"), rig.aOpts); err != nil {
		return nil, 0, errors.Join(err, rig.close())
	}
	return rig, setupS, nil
}

// serveTally sums the loaded replicas' accounting over the rounds.
type serveTally struct {
	engine engine.Stats
	store  experiments.StoreStats
	phases obs.PhaseStats
}

func (t *serveTally) add(b *experiments.Batch) {
	es := b.Stats()
	t.engine.Requests += es.Requests
	t.engine.Executed += es.Executed
	t.engine.Hits += es.Hits
	t.engine.Evictions += es.Evictions
	t.store.Add(b.StoreStats())
	if t.phases == nil {
		t.phases = obs.PhaseStats{}
	}
	t.phases.Add(b.PhaseStats())
}

// mix splits the requests by the tier that answered them: mem (memo
// hits, including requests that joined an in-flight job), disk, peer
// (fetch + install) and sim (simulate + persist).
func (t *serveTally) mix() map[string]float64 {
	total := float64(t.engine.Requests)
	return map[string]float64{
		"mem":  float64(t.store.Mem.Hits) / total,
		"disk": float64(t.store.Disk.Hits) / total,
		"peer": float64(t.store.Peer.Hits) / total,
		"sim":  float64(t.engine.Executed) / total,
	}
}

// runServeZipf drives the replica with two closed-loop clients, each
// sending the next POST /v1/runs only after the previous reply.
func runServeZipf(cfg segCfg) (segResult, error) {
	var res segResult
	ctx := context.Background()
	keys, drivers, err := serveTraffic()
	if err != nil {
		return res, err
	}
	memLimit := serveMemLimit(drivers)
	rng := rand.New(rand.NewSource(cfg.seed))
	warm := rng.Perm(len(keys))[:len(keys)/2]
	sort.Ints(warm)
	streams := make([]*sweepStream, serveClients)
	for c := range streams {
		streams[c] = &sweepStream{rng: rand.New(rand.NewSource(cfg.seed*1000 + int64(c) + 1)), drivers: drivers}
	}

	// sim_ips comes from the sibling's warm-up simulations, run without
	// competing load in every set-up: the simulations the replica under
	// load performs share the two cores with request handling.
	var setups []float64
	var warmStepped uint64
	for _, i := range warm {
		warmStepped += keys[i].stepped
	}
	var simS float64 // normalized seconds
	var rig *serveRig
	defer func() {
		if rig != nil {
			rig.close()
		}
	}()
	for i := 0; i < setupReps; i++ {
		sp := cfg.tr.begin("setup", 0)
		r, d, err := bootServeRig(cfg, keys, warm, memLimit, filepath.Join(cfg.work, fmt.Sprintf("serve-%d", i)), sp.id)
		sp.end()
		if err != nil {
			return res, err
		}
		setups = append(setups, d)
		simS += r.warmS
		if i < setupReps-1 {
			if err := r.close(); err != nil {
				return res, err
			}
		} else {
			rig = r
		}
	}

	// The measured closed loop, in rounds of serveRound requests, each
	// on a fresh loaded replica. Between blocks, while nothing is
	// serving, the reference kernel runs; between rounds the rig also
	// renews the replica.
	type clientOut struct {
		lat       []float64
		attempted int
		failed    int
	}
	outs := make([]clientOut, serveClients)
	clients := make([]*client.Client, serveClients)
	for c := range clients {
		clients[c] = client.New(rig.a.ep.url)
	}
	var tally serveTally
	var lat, rounds []float64
	var loopNorm float64
	norm := cfg.ref.normalizer(1)
	start := time.Now()
	for len(rounds) == 0 || time.Since(start) < cfg.dur {
		if len(rounds) > 0 {
			tally.add(rig.a.batch)
			if err := rig.renew(); err != nil {
				return res, err
			}
		}
		var round float64
		for b := 0; b < serveRound/serveBlock; b++ {
			var wg sync.WaitGroup
			t0 := time.Now()
			for c := range clients {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					o := &outs[c]
					for n := 0; n < serveBlock/serveClients; n++ {
						k := streams[c].next()
						sp := cfg.tr.begin("client.Client.Run", 0)
						t1 := time.Now()
						resp, err := clients[c].Run(ctx, keys[k].req)
						d := time.Since(t1)
						sp.end()
						o.attempted++
						if err != nil || resp.Key != keys[k].key {
							o.failed++
						}
						o.lat = append(o.lat, float64(d.Nanoseconds())/1e6)
					}
				}(c)
			}
			wg.Wait()
			block := time.Since(t0).Seconds()
			f := norm.next()
			round += block * f
			for c := range outs {
				o := &outs[c]
				for _, ms := range o.lat {
					lat = append(lat, ms*f)
				}
				o.lat = o.lat[:0]
			}
		}
		rounds = append(rounds, round)
		loopNorm += round
	}
	tally.add(rig.a.batch)
	for _, o := range outs {
		res.attempted += o.attempted
		res.failed += o.failed
	}
	mix := tally.mix()
	res.summary = fmt.Sprintf(" rounds=%d mix: mem=%.4f disk=%.4f peer=%.4f sim=%.4f",
		len(rounds), mix["mem"], mix["disk"], mix["peer"], mix["sim"])
	st, err := client.New(rig.a.ep.url).Stats(ctx)
	if err != nil {
		return res, err
	}

	// Key-space pass: every key once, in fixed order, for the responses
	// the gaps and the sampled cross-check use.
	cl := client.New(rig.a.ep.url)
	resps := make([]client.RunResponse, len(keys))
	for i, k := range keys {
		resp, err := cl.Run(ctx, k.req)
		res.attempted++
		if err != nil || resp.Key != k.key {
			res.failed++
			continue
		}
		resps[i] = resp
	}
	// Seeded sample: the served result must equal a direct Batch run.
	direct := experiments.NewBatch(1)
	for _, i := range rng.Perm(len(keys))[:serveSample] {
		r, err := direct.RunCtx(ctx, keys[i].spec)
		res.attempted++
		got := resps[i].Result()
		if err != nil || got.Meter == nil || r.CPU != got.CPU || *r.Meter != *got.Meter {
			res.failed++
		}
	}
	var gapRuns []experiments.RunResult
	for i, k := range keys {
		if resps[i].Meter != nil {
			r := resps[i].Result()
			r.Spec = k.spec
			gapRuns = append(gapRuns, r)
		}
	}
	gaps, err := gapsOf(gapRuns, serveInsts)
	if err != nil {
		return res, err
	}

	res.samples = len(lat)
	res.unitCost = loopNorm / float64(len(lat))
	res.e2e = map[string]float64{
		"sim_ips":    float64(warmStepped) * setupReps / simS,
		"sweep_s":    median(rounds),
		"run_p50_ms": quantile(lat, 0.50),
		"run_p99_ms": quantile(lat, 0.99),
		"runs_per_s": float64(len(lat)) / loopNorm,
		"setup_s":    median(setups),
	}
	for k, v := range gaps {
		res.e2e[k] = v
	}
	if cfg.tr == nil {
		return res, nil
	}

	store, phases := tally.store, tally.phases
	l := map[string]float64{
		"engine.requests":         float64(tally.engine.Requests),
		"engine.executed":         float64(tally.engine.Executed),
		"engine.hits":             float64(tally.engine.Hits),
		"engine.evictions":        float64(tally.engine.Evictions),
		"store.disk_hits":         float64(store.Disk.Hits),
		"store.peer_hits":         float64(store.Peer.Hits),
		"store.peer_installs":     float64(store.PeerInstalls),
		"store.mem_hit_ratio":     ratio(int(store.Mem.Hits), int(store.Mem.Hits+store.Mem.Misses)),
		"server.throttled":        float64(st.Throttled),
		"phase.queue_wait_p95_ms": phases["queue_wait"].Quantile(0.95) * 1e3,
		"phase.disk_tier_p50_ms":  phases["disk_tier"].Quantile(0.5) * 1e3,
		"phase.persist_p50_ms":    phases["persist"].Quantile(0.5) * 1e3,
		"phase.peer_tier_p50_ms":  phases["peer_tier"].Quantile(0.5) * 1e3,
	}
	for tier, share := range mix {
		l["serve.mix."+tier] = share
	}
	probes, err := serveProbes(cfg, rig, keys, warm, hottest(keys, drivers))
	if err != nil {
		return res, err
	}
	res.attempted += probes.attempted
	res.failed += probes.failed
	for k, v := range probes.layer {
		l[k] = v
	}
	l["cluster.peer_fetch_ms"] = median(rig.peer.latencies())
	res.layer = l
	return res, nil
}

// hottest is the key the most drivers request (the first such key).
func hottest(keys []serveKey, drivers []serveDriver) int {
	count := make([]int, len(keys))
	for _, d := range drivers {
		for _, k := range d.keys {
			count[k]++
		}
	}
	best := 0
	for k, n := range count {
		if n > count[best] {
			best = k
		}
	}
	return best
}

// serveProbes measures each store tier alone: class-pure passes over
// HTTP (every request in a pass resolves at the same tier) and the
// same classes through direct Batch calls.
func serveProbes(cfg segCfg, rig *serveRig, keys []serveKey, warm []int, hot int) (segResult, error) {
	var res segResult
	ctx := context.Background()
	// pass sends every key of ks once per round through a fresh client
	// and returns the latencies in ms.
	pass := func(url, name string, ks []int, rounds int) []float64 {
		cl := client.New(url)
		var ms []float64
		for r := 0; r < rounds; r++ {
			for _, k := range ks {
				sp := cfg.tr.begin(name, 0)
				t0 := time.Now()
				resp, err := cl.Run(ctx, keys[k].req)
				d := time.Since(t0)
				sp.end()
				res.attempted++
				if err != nil || resp.Key != keys[k].key {
					res.failed++
				}
				ms = append(ms, float64(d.Nanoseconds())/1e6)
			}
		}
		return ms
	}
	// direct does the same through Batch.RunCtx.
	direct := func(b *experiments.Batch, name string, ks []int, rounds int) []float64 {
		var ms []float64
		for r := 0; r < rounds; r++ {
			for _, k := range ks {
				sp := cfg.tr.begin(name, 0)
				t0 := time.Now()
				_, err := b.RunCtx(ctx, keys[k].spec)
				d := time.Since(t0)
				sp.end()
				res.attempted++
				if err != nil {
					res.failed++
				}
				ms = append(ms, float64(d.Nanoseconds())/1e6)
			}
		}
		return ms
	}
	// fresh boots a throwaway replica for one pass.
	var extra []*replica
	defer func() {
		for _, r := range extra {
			r.retire()
			r.ep.close()
		}
	}()
	fresh := func(dir string, o replicaOpts) (*replica, error) {
		ep, err := listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		r, err := bootReplica(ep, dir, o)
		if err != nil {
			ep.close()
			return nil, err
		}
		extra = append(extra, r)
		return r, nil
	}
	all := make([]int, len(keys))
	for i := range all {
		all[i] = i
	}
	sims := all[:24] // the suite's first 24 specs

	// mem tier: the hottest key, memoized on the loaded replica.
	memHTTP := median(pass(rig.a.ep.url, "server.mem_hit", []int{hot}, 300))
	memDirect := median(direct(rig.a.batch, "experiments.mem_hit", []int{hot}, 3000))

	// disk tier: a replica sharing the loaded replica's cache directory
	// (which holds every key after the key-space pass) with a one-entry
	// memo, so round-robin requests all reload from disk.
	dDisk, err := fresh(rig.a.dir, replicaOpts{workers: 1, memLimit: 1})
	if err != nil {
		return res, err
	}
	dDisk.dir = "" // shared with the loaded replica; not this probe's to delete
	diskHTTP := median(pass(dDisk.ep.url, "server.disk_hit", all, 2))
	db, err := experiments.NewBatchWithCache(1, rig.a.dir)
	if err != nil {
		return res, err
	}
	db.SetCacheLimit(1)
	diskDirect := median(direct(db, "experiments.disk_hit", all, 2))

	// peer tier: an empty replica whose peer is the warm sibling,
	// requesting each warmed key once.
	pr := &timedPeer{pf: cluster.NewPeerFetcher([]string{rig.b.ep.url}), tr: cfg.tr}
	dPeer, err := fresh(filepath.Join(cfg.work, "probe-peer"), replicaOpts{workers: 1, peer: pr})
	if err != nil {
		return res, err
	}
	peerHTTP := median(pass(dPeer.ep.url, "server.peer_hit", warm, 1))
	rig.peer.mu.Lock()
	rig.peer.ms = append(rig.peer.ms, pr.latencies()...)
	rig.peer.mu.Unlock()

	// simulate: an empty replica with no peer tier.
	dSim, err := fresh(filepath.Join(cfg.work, "probe-sim"), replicaOpts{workers: 1})
	if err != nil {
		return res, err
	}
	simHTTP := median(pass(dSim.ep.url, "server.sim", sims, 1))
	simDirect := median(direct(experiments.NewBatch(1), "experiments.sim", sims, 1))

	// Each pass must have resolved at its tier alone.
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"disk", dDisk.batch.StoreStats().Disk.Hits, int64(2 * len(all))},
		{"peer", dPeer.batch.StoreStats().Peer.Hits, int64(len(warm))},
		{"simulate", dSim.batch.Stats().Executed, int64(len(sims))},
	} {
		if c.got != c.want {
			return res, fmt.Errorf("serve-zipf %s probe: %d of %d requests resolved at the tier", c.name, c.got, c.want)
		}
	}
	res.layer = map[string]float64{
		"server.mem_hit_ms":       memHTTP,
		"server.disk_hit_ms":      diskHTTP,
		"server.peer_hit_ms":      peerHTTP,
		"server.sim_ms":           simHTTP,
		"server.http_overhead_ms": memHTTP - memDirect,
		"experiments.mem_hit_us":  memDirect * 1e3,
		"experiments.disk_hit_ms": diskDirect,
		"experiments.sim_ms":      simDirect,
	}
	return res, nil
}

// Package cluster is the client-side fabric that scales samie-serve
// horizontally: deterministic rendezvous (HRW) hashing partitions the
// canonical run-key space over a set of replica URLs, so every replica
// owns a stable shard of the simulation space and concurrent
// coordinators agree on placement with no coordination service.
//
// The pieces compose bottom-up:
//
//   - Rendezvous ranks replicas per key with highest-random-weight
//     hashing: adding or removing a replica moves only the keys it
//     owns (~1/N of the space), everything else stays put.
//   - ShardedClient.RunSpecs fans an explicit spec set out as
//     per-replica shards through POST /v1/suite, each spec to its
//     key's owner behind a per-replica circuit breaker, honoring
//     429/Retry-After and re-sharding a failed replica's remaining
//     work onto the survivors mid-sweep.
//   - Assemble offers the collected results into a local batch, so
//     any harness (Suite, a figure-table row) renders from
//     it byte-identical to the single-node output; PlanCovered checks
//     the rendering executed nothing locally.
package cluster

import (
	"hash/fnv"
	"io"
	"slices"
	"sort"
)

// Rendezvous deterministically ranks a replica set per key using
// highest-random-weight hashing. The weight function is pinned (FNV-1a
// over "replica\x00key"), so shard ownership is reproducible across
// processes, restarts and independently-configured coordinators — the
// property that lets any number of clients agree on which replica owns
// a canonical run key with no shared state.
type Rendezvous struct {
	replicas []string
}

// NewRendezvous builds a ring over the replica identifiers (typically
// base URLs), deduplicated; input order does not matter.
func NewRendezvous(replicas []string) *Rendezvous {
	seen := map[string]bool{}
	rs := make([]string, 0, len(replicas))
	for _, r := range replicas {
		if r != "" && !seen[r] {
			seen[r] = true
			rs = append(rs, r)
		}
	}
	sort.Strings(rs)
	return &Rendezvous{replicas: rs}
}

// Replicas returns the ring members, sorted.
func (r *Rendezvous) Replicas() []string { return slices.Clone(r.replicas) }

// weight is the pinned HRW weight: FNV-1a over replica, a zero
// separator, and the key. Do not change it — every deployed
// coordinator must compute identical weights.
//
//samie:deterministic
func weight(replica, key string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, replica)
	h.Write([]byte{0})
	io.WriteString(h, key)
	return h.Sum64()
}

// Owner returns the replica with the highest weight for key (ties, of
// probability ~2^-64, break toward the lexicographically smaller
// replica). Empty string only for an empty ring.
func (r *Rendezvous) Owner(key string) string {
	var best string
	var bestW uint64
	for _, rep := range r.replicas {
		if w := weight(rep, key); best == "" || w > bestW {
			best, bestW = rep, w
		}
	}
	return best
}

// Ranked returns every replica ordered by descending weight for key:
// the failover order. Ranked(key)[0] == Owner(key).
func (r *Rendezvous) Ranked(key string) []string {
	type rw struct {
		rep string
		w   uint64
	}
	rws := make([]rw, 0, len(r.replicas))
	for _, rep := range r.replicas {
		rws = append(rws, rw{rep, weight(rep, key)})
	}
	sort.Slice(rws, func(i, j int) bool {
		if rws[i].w != rws[j].w {
			return rws[i].w > rws[j].w
		}
		return rws[i].rep < rws[j].rep
	})
	out := make([]string, len(rws))
	for i, x := range rws {
		out[i] = x.rep
	}
	return out
}

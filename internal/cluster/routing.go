package cluster

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"time"
)

// Routing policy names accepted by Config.Routing.
const (
	// RoutingLeastInflight routes each attempt to the least-loaded
	// candidate, ties broken by a seeded per-gateway LCG so equally
	// idle replicas share traffic evenly. The default.
	RoutingLeastInflight = "least-inflight"
	// RoutingRendezvous routes by rendezvous (highest-random-weight)
	// hashing on the request's canonical content key (staleKey: the
	// route plus a hash of the body insensitive to JSON field order),
	// so each replica's caches specialize on a stable shard of the key
	// space. N replicas become an N×-larger effective cache with no
	// resharding step: when a replica dies only its ~1/N of keys remap
	// (to the runner-up by hash weight), and they return when it comes
	// back. Keyless requests (non-canonical bodies) fall back to
	// least-inflight.
	RoutingRendezvous = "rendezvous"
)

// A RoutingPolicy picks the replica for the next attempt.
//
// The gateway narrows the replica set to the best non-empty health
// tier first (see Gateway.pick); the policy chooses within it.
// candidates is never empty. key is the request's canonical content
// hash (staleKey), or "" when the body has no canonical form.
// Implementations must be safe for concurrent use.
type RoutingPolicy interface {
	Name() string
	Pick(key string, candidates []*replica) *replica
}

// newRoutingPolicy resolves a Config.Routing name.
func newRoutingPolicy(name string, seed uint64) (RoutingPolicy, error) {
	li := &leastInflight{}
	li.lcg.Store(seed)
	switch name {
	case "", RoutingLeastInflight:
		return li, nil
	case RoutingRendezvous:
		return &rendezvous{fallback: li}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown routing policy %q (want %s or %s)",
			name, RoutingLeastInflight, RoutingRendezvous)
	}
}

// leastInflight picks the candidate with the fewest attempts in
// flight. Ties are broken by a seeded LCG rather than scan order:
// always taking the first minimum would bias equal replicas toward low
// indices, giving replica0 all the traffic on an idle fleet.
type leastInflight struct{ lcg atomic.Uint64 }

func (p *leastInflight) Name() string { return RoutingLeastInflight }

// next advances the LCG (Knuth's MMIX constants) and returns the high
// bits, which are far better distributed than the low ones.
func (p *leastInflight) next() uint64 {
	for {
		old := p.lcg.Load()
		next := old*6364136223846793005 + 1442695040888963407
		if p.lcg.CompareAndSwap(old, next) {
			return next >> 33
		}
	}
}

func (p *leastInflight) Pick(_ string, candidates []*replica) *replica {
	low := candidates[0].inflight.Load()
	ties := 1
	for _, rep := range candidates[1:] {
		switch n := rep.inflight.Load(); {
		case n < low:
			low, ties = n, 1
		case n == low:
			ties++
		}
	}
	// Reservoir over the minimum set without allocating: the k-th tied
	// candidate is chosen with the LCG draw taken modulo its position.
	pick := int(p.next()) % ties
	for _, rep := range candidates {
		if rep.inflight.Load() == low {
			if pick == 0 {
				return rep
			}
			pick--
		}
	}
	return candidates[0] // inflight moved under us; any candidate is valid
}

// rendezvous implements highest-random-weight hashing: every replica
// scores hash(key, replica-id) and the highest score owns the key.
// Because scores are independent per replica, removing one reassigns
// only the keys it owned (~1/N of them, to their second-highest
// scorer) and adding it back reclaims exactly those — minimal
// disruption with no coordination or resharding step.
type rendezvous struct{ fallback *leastInflight }

func (p *rendezvous) Name() string { return RoutingRendezvous }

func (p *rendezvous) Pick(key string, candidates []*replica) *replica {
	if key == "" {
		return p.fallback.Pick(key, candidates)
	}
	best := candidates[0]
	bestScore := hrwScore(key, best.id)
	for _, rep := range candidates[1:] {
		if s := hrwScore(key, rep.id); s > bestScore {
			best, bestScore = rep, s
		}
	}
	return best
}

// hrwScore is the rendezvous weight of a (key, replica) pair: FNV-1a
// over the key and the replica id with a separator so concatenation
// ambiguities cannot alias pairs.
func hrwScore(key, id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write([]byte(id))
	return h.Sum64()
}

// pick chooses the replica for the next attempt, excluding those in
// tried. Candidates are taken from the best non-empty tier:
//
//  1. available — probe-healthy and not ejected
//  2. not ejected — probes say down, but ejection hasn't confirmed it;
//     better a suspect replica than a certain failure
//  3. anything untried — last resort while the budget still allows
//
// Within the tier the configured RoutingPolicy decides: least-inflight
// with seeded-LCG tie-breaks by default, or rendezvous hashing on key.
// Returns nil only when every replica has been tried.
func (g *Gateway) pick(key string, tried map[*replica]bool) *replica {
	now := time.Now()
	var tiers [3][]*replica
	for _, rep := range g.replicas {
		if tried[rep] {
			continue
		}
		switch {
		case rep.available(now):
			tiers[0] = append(tiers[0], rep)
		case !rep.ejected(now):
			tiers[1] = append(tiers[1], rep)
		default:
			tiers[2] = append(tiers[2], rep)
		}
	}
	for _, tier := range tiers {
		if len(tier) > 0 {
			return g.routing.Pick(key, tier)
		}
	}
	return nil
}

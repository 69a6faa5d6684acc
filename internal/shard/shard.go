// Package shard builds a sharded replicated key-value service out of the
// single-group machinery the rest of the repository proves: every shard is
// its own virtually synchronous group running the internal/rsm state
// machine, a meta-group RSM maintains the shard map (hash slots → shard →
// replica group), clients route by key hash against a cached map epoch, and
// live resharding is expressed as paired reconfigurations in which the
// transitional set delivered with each view drives the key-range state
// handoff — the paper's guarantees doing production work.
//
// The package has four layers:
//
//   - Map (this file): the versioned routing table. Keys hash to one of a
//     fixed number of slots; slots map to shards; shards map to replica
//     groups. Every committed reshard bumps the epoch.
//   - MetaMachine (meta.go): the shard map as a replicated state machine on
//     its own meta-group, serializing reshard proposals (a concurrent
//     proposal for a busy shard is deterministically rejected).
//   - Router (router.go): the client side — epoch-cached routing with
//     retry-on-ErrWrongShard and a bounded redirect loop.
//   - World + Resharder (world.go, reshard.go): the deployment harness on
//     the deterministic simulator, and the step-wise resharding state
//     machine (so chaos can interleave with a handoff in flight).
package shard

import (
	"fmt"
	"hash/fnv"
	"sort"

	"vsgm/internal/types"
)

// DefaultSlots is the default size of the hash-slot space. Keys hash to a
// slot, slots map to shards; moving a contiguous slot range is the unit of
// keyspace rebalancing.
const DefaultSlots = 64

// Map is the shard map: the routing table every server holds and every
// client caches. It is immutable by convention — mutations go through the
// meta-group RSM, which installs a new map with a bumped Epoch.
type Map struct {
	// Epoch versions the map; it increments on every committed reshard.
	// Clients cache a map together with its epoch and refresh on
	// ErrWrongShard.
	Epoch int64 `json:"epoch"`
	// Slots maps hash slot → owning shard id. len(Slots) is the slot-space
	// size and never changes after creation.
	Slots []int `json:"slots"`
	// Groups maps shard id → the sorted replica group serving it.
	Groups map[int][]types.ProcID `json:"groups"`
}

// NewUniformMap builds an epoch-1 map with shards owning contiguous,
// near-equal slot ranges and the given replica groups.
func NewUniformMap(slots int, groups map[int][]types.ProcID) (Map, error) {
	if slots <= 0 {
		slots = DefaultSlots
	}
	if len(groups) == 0 {
		return Map{}, fmt.Errorf("shard: map needs at least one group")
	}
	if slots < len(groups) {
		return Map{}, fmt.Errorf("shard: %d slots cannot cover %d shards", slots, len(groups))
	}
	m := Map{Epoch: 1, Slots: make([]int, slots), Groups: make(map[int][]types.ProcID, len(groups))}
	ids := make([]int, 0, len(groups))
	for id, g := range groups {
		if len(g) == 0 {
			return Map{}, fmt.Errorf("shard: shard %d has an empty group", id)
		}
		ids = append(ids, id)
		sorted := append([]types.ProcID(nil), g...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		m.Groups[id] = sorted
	}
	sort.Ints(ids)
	for s := 0; s < slots; s++ {
		m.Slots[s] = ids[s*len(ids)/slots]
	}
	return m, nil
}

// Clone deep-copies the map.
func (m Map) Clone() Map {
	out := Map{Epoch: m.Epoch, Slots: append([]int(nil), m.Slots...), Groups: make(map[int][]types.ProcID, len(m.Groups))}
	for id, g := range m.Groups {
		out.Groups[id] = append([]types.ProcID(nil), g...)
	}
	return out
}

// SlotForKey hashes a key into the slot space of size nslots (FNV-1a; the
// same function everywhere, so routing is deterministic across clients,
// servers, and the prune command a reshard leaves behind).
func SlotForKey(key string, nslots int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(nslots))
}

// SlotOf hashes key into this map's slot space.
func (m Map) SlotOf(key string) int { return SlotForKey(key, len(m.Slots)) }

// ShardForKey returns the shard owning key under this map.
func (m Map) ShardForKey(key string) int { return m.Slots[m.SlotOf(key)] }

// Group returns the replica group of a shard (nil if unknown).
func (m Map) Group(id int) []types.ProcID { return m.Groups[id] }

// ShardIDs returns the shard ids in sorted order.
func (m Map) ShardIDs() []int {
	ids := make([]int, 0, len(m.Groups))
	for id := range m.Groups {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// SlotsOwned returns the sorted slots a shard currently owns.
func (m Map) SlotsOwned(id int) []int {
	var out []int
	for s, owner := range m.Slots {
		if owner == id {
			out = append(out, s)
		}
	}
	return out
}

// Validate checks internal consistency: every slot's owner has a group and
// every group is non-empty.
func (m Map) Validate() error {
	if len(m.Slots) == 0 {
		return fmt.Errorf("shard: map has no slots")
	}
	for s, owner := range m.Slots {
		if g, ok := m.Groups[owner]; !ok || len(g) == 0 {
			return fmt.Errorf("shard: slot %d owned by shard %d which has no replica group", s, owner)
		}
	}
	return nil
}

func (m Map) String() string {
	out := fmt.Sprintf("epoch %d:", m.Epoch)
	for _, id := range m.ShardIDs() {
		out += fmt.Sprintf(" s%d(%d slots, group %v)", id, len(m.SlotsOwned(id)), m.Groups[id])
	}
	return out
}

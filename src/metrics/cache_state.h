#pragma once

// Per-node caching storage state (paper §III-B). Tracks which chunks each
// node stores against a fixed per-node capacity; the producer never caches.
// This is the single source of truth that both the fairness degree cost
// (Eq. 1) and the contention costs (Eq. 2, via the 1 + S(k) factor) read.
// Two views are kept in step by add()/remove(): the chunks on each node and
// the holders of each chunk (the inverse index every routing and
// evaluation pass reads).

#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace faircache::metrics {

using ChunkId = int;

class CacheState {
 public:
  CacheState() = default;

  // Uniform capacity (the paper uses 5 chunks per node).
  CacheState(int num_nodes, int capacity, graph::NodeId producer);

  // Heterogeneous capacities (vehicular / IoT scenarios).
  CacheState(std::vector<int> capacities, graph::NodeId producer);

  int num_nodes() const { return static_cast<int>(capacity_.size()); }
  graph::NodeId producer() const { return producer_; }

  int capacity(graph::NodeId v) const {
    return capacity_[static_cast<std::size_t>(v)];
  }
  // S(v): number of chunks currently cached on v.
  int used(graph::NodeId v) const {
    return static_cast<int>(stored_[static_cast<std::size_t>(v)].size());
  }
  int remaining(graph::NodeId v) const { return capacity(v) - used(v); }
  bool full(graph::NodeId v) const { return remaining(v) <= 0; }

  // Can v accept a copy of `chunk`? False for the producer, full nodes and
  // nodes that already hold the chunk.
  bool can_cache(graph::NodeId v, ChunkId chunk) const;

  bool holds(graph::NodeId v, ChunkId chunk) const;

  // Record that v caches `chunk`. Precondition: can_cache(v, chunk).
  void add(graph::NodeId v, ChunkId chunk);

  // Remove a cached chunk (cache-replacement extension). Precondition:
  // holds(v, chunk).
  void remove(graph::NodeId v, ChunkId chunk);

  // Chunks cached on v, ascending chunk id.
  const std::vector<ChunkId>& chunks_on(graph::NodeId v) const {
    return stored_[static_cast<std::size_t>(v)];
  }

  // Nodes caching `chunk`, ascending node id (excludes the producer, which
  // implicitly always has every chunk). O(1): a view of the holder index,
  // valid until the next add()/remove() of this state.
  const std::vector<graph::NodeId>& holders(ChunkId chunk) const;

  // t_i vector: chunks stored per node. The producer's entry is always 0.
  std::vector<int> stored_counts() const;

  int total_stored() const;

  // Structural self-check of the placement state (the integrity-guard
  // entry gate for mutating passes like core::PlacementRepairEngine;
  // docs/ROBUSTNESS.md): valid producer, per-node usage within capacity,
  // chunk lists sorted/unique/non-negative, nothing stored on the
  // producer, and — checked last — the holder index is exactly the inverse
  // of the per-node lists. kInvalidInput naming the first violation, OK
  // otherwise. Every mutation through add()/remove() preserves these
  // invariants; a failure means the state was corrupted out-of-band.
  util::Status verify_integrity() const;

  // Test-only fault hooks (tests/integrity_test.cpp).
  // corrupt_for_testing appends `chunk` to v's list unchecked, bypassing
  // every add() invariant; the holder index records the pair too (for a
  // non-negative id), so only the per-node checks can fire.
  void corrupt_for_testing(graph::NodeId v, ChunkId chunk);
  // corrupt_index_for_testing lists v as a holder of `chunk` in the index
  // only, leaving the per-node lists intact: the inverse check fires.
  void corrupt_index_for_testing(graph::NodeId v, ChunkId chunk);

 private:
  // Inserts v into holders_[chunk] in order, growing holders_ on demand
  // (an id past its end has no holders). Precondition: chunk >= 0.
  void index_holder(graph::NodeId v, ChunkId chunk);

  std::vector<int> capacity_;
  std::vector<std::vector<ChunkId>> stored_;
  std::vector<std::vector<graph::NodeId>> holders_;
  graph::NodeId producer_ = graph::kInvalidNode;
};

}  // namespace faircache::metrics

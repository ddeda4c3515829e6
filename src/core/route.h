#pragma once

// The serving route (paper §III): a requester fetches a chunk from its
// cheapest copy under the path contention cost c_ij, peer caches first and
// the producer — which implicitly holds every chunk — as the fallback.
// core::OnlineFairCaching::fetch / access_cost and sim::ServingEngine's
// external-policy path all route through one Router, so the serving split
// has a single definition and a single tie-break.
//
// Tie-break: holders are scanned in ascending node id and a later holder
// replaces the current source only when strictly cheaper, so among equally
// cheap holders the smallest id wins; the producer is taken only when it is
// strictly cheaper than every holder (or nothing else holds the chunk).
//
// Memo: a non-local route costs one scan over the chunk's holders the first
// time a (chunk, requester) pair is asked and O(1) after that. Every
// contention cost c_ij depends on the stored counts S(k) along the path, so
// any placement change can move every route of every chunk: one epoch stamp
// covers the whole memo, advanced on the first engine sync after
// invalidate(). Memory: 16 B × n per chunk ever routed.

#include <cstdint>
#include <vector>

#include "core/instance_builder.h"
#include "metrics/cache_state.h"
#include "util/status.h"

namespace faircache::core {

// Where one fetch is served from under the current placement.
struct FetchDecision {
  graph::NodeId source = graph::kInvalidNode;
  double cost = 0.0;          // c(source, requester); 0 for a local hit
  bool local = false;         // requester already holds the chunk
  bool from_producer = false;
};

class Router {
 public:
  // Call after every change to the placement routed against (or to the
  // engine behind it): the next non-local route() re-syncs the engine and
  // drops every memoised route. Without it, routes stay memoised.
  void invalidate() { dirty_ = true; }

  // Cheapest source of `chunk` for `requester` against `state`, with the
  // costs of `engine` synced to `state` on demand. A requester that holds
  // the chunk (or is the producer) is served locally at cost 0 without
  // touching the engine. kInvalidInput for a negative chunk id or a failed
  // sync (state sized for another network).
  util::Result<FetchDecision> route(ChunkInstanceEngine& engine,
                                    const metrics::CacheState& state,
                                    graph::NodeId requester,
                                    metrics::ChunkId chunk);

 private:
  struct Entry {
    std::uint32_t epoch = 0;  // valid iff equal to epoch_
    graph::NodeId source = graph::kInvalidNode;
    double cost = 0.0;
  };
  static_assert(sizeof(Entry) == 16);

  // Syncs the engine when needed; a successful sync starts a new epoch.
  util::Status sync(ChunkInstanceEngine& engine,
                    const metrics::CacheState& state);

  std::vector<std::vector<Entry>> rows_;  // [chunk][requester], lazy
  std::uint32_t epoch_ = 0;
  bool dirty_ = true;
};

}  // namespace faircache::core

#include "core/route.h"

namespace faircache::core {

using graph::NodeId;

util::Status Router::sync(ChunkInstanceEngine& engine,
                          const metrics::CacheState& state) {
  if (!dirty_ && engine.query_ready()) return util::Status();
  if (util::Status status = engine.sync(state); !status.ok()) return status;
  dirty_ = false;
  if (++epoch_ == 0) {
    // 2^32 syncs later: restamp instead of letting old entries revive.
    for (auto& row : rows_) {
      for (Entry& entry : row) entry.epoch = 0;
    }
    epoch_ = 1;
  }
  return util::Status();
}

util::Result<FetchDecision> Router::route(ChunkInstanceEngine& engine,
                                          const metrics::CacheState& state,
                                          NodeId requester,
                                          metrics::ChunkId chunk) {
  if (chunk < 0) return util::Status::invalid_input("negative chunk id");
  FetchDecision decision;
  const NodeId producer = state.producer();
  if (requester == producer || state.holds(requester, chunk)) {
    decision.source = requester;
    decision.local = true;
    decision.from_producer = requester == producer;
    return decision;
  }
  if (util::Status status = sync(engine, state); !status.ok()) return status;

  const auto c = static_cast<std::size_t>(chunk);
  if (c >= rows_.size()) rows_.resize(c + 1);
  std::vector<Entry>& row = rows_[c];
  const auto n = static_cast<std::size_t>(state.num_nodes());
  if (row.size() != n) row.assign(n, Entry{});
  Entry& entry = row[static_cast<std::size_t>(requester)];
  if (entry.epoch != epoch_) {
    entry.source = graph::kInvalidNode;
    for (NodeId i : state.holders(chunk)) {
      const double cost = engine.query_cost(i, requester);
      if (entry.source == graph::kInvalidNode || cost < entry.cost) {
        entry.source = i;
        entry.cost = cost;
      }
    }
    const double producer_cost = engine.query_cost(producer, requester);
    if (entry.source == graph::kInvalidNode || producer_cost < entry.cost) {
      entry.source = producer;
      entry.cost = producer_cost;
    }
    entry.epoch = epoch_;
  }
  decision.source = entry.source;
  decision.cost = entry.cost;
  decision.from_producer = entry.source == producer;
  return decision;
}

}  // namespace faircache::core

#include "metrics/cache_state.h"

#include <algorithm>
#include <numeric>

namespace faircache::metrics {

CacheState::CacheState(int num_nodes, int capacity, graph::NodeId producer)
    : CacheState(std::vector<int>(static_cast<std::size_t>(num_nodes),
                                  capacity),
                 producer) {}

CacheState::CacheState(std::vector<int> capacities, graph::NodeId producer)
    : capacity_(std::move(capacities)),
      stored_(capacity_.size()),
      producer_(producer) {
  FAIRCACHE_CHECK(producer_ >= 0 && producer_ < num_nodes(),
                  "producer out of range");
  for (int c : capacity_) {
    FAIRCACHE_CHECK(c >= 0, "negative capacity");
  }
}

bool CacheState::can_cache(graph::NodeId v, ChunkId chunk) const {
  FAIRCACHE_CHECK(v >= 0 && v < num_nodes(), "node out of range");
  if (v == producer_) return false;
  if (full(v)) return false;
  return !holds(v, chunk);
}

bool CacheState::holds(graph::NodeId v, ChunkId chunk) const {
  FAIRCACHE_CHECK(v >= 0 && v < num_nodes(), "node out of range");
  const auto& chunks = stored_[static_cast<std::size_t>(v)];
  return std::binary_search(chunks.begin(), chunks.end(), chunk);
}

void CacheState::add(graph::NodeId v, ChunkId chunk) {
  FAIRCACHE_CHECK(chunk >= 0, "negative chunk id");
  FAIRCACHE_CHECK(can_cache(v, chunk),
                  "node cannot cache chunk (producer/full/duplicate)");
  auto& chunks = stored_[static_cast<std::size_t>(v)];
  chunks.insert(std::lower_bound(chunks.begin(), chunks.end(), chunk), chunk);
  index_holder(v, chunk);
}

void CacheState::remove(graph::NodeId v, ChunkId chunk) {
  FAIRCACHE_CHECK(holds(v, chunk), "node does not hold chunk");
  auto& chunks = stored_[static_cast<std::size_t>(v)];
  chunks.erase(std::lower_bound(chunks.begin(), chunks.end(), chunk));
  auto& nodes = holders_[static_cast<std::size_t>(chunk)];
  nodes.erase(std::lower_bound(nodes.begin(), nodes.end(), v));
}

const std::vector<graph::NodeId>& CacheState::holders(ChunkId chunk) const {
  static const std::vector<graph::NodeId> kNone;
  if (chunk < 0 || static_cast<std::size_t>(chunk) >= holders_.size()) {
    return kNone;
  }
  return holders_[static_cast<std::size_t>(chunk)];
}

void CacheState::index_holder(graph::NodeId v, ChunkId chunk) {
  const auto c = static_cast<std::size_t>(chunk);
  if (c >= holders_.size()) holders_.resize(c + 1);
  auto& nodes = holders_[c];
  nodes.insert(std::lower_bound(nodes.begin(), nodes.end(), v), v);
}

void CacheState::corrupt_for_testing(graph::NodeId v, ChunkId chunk) {
  stored_[static_cast<std::size_t>(v)].push_back(chunk);
  if (chunk >= 0) index_holder(v, chunk);
}

void CacheState::corrupt_index_for_testing(graph::NodeId v, ChunkId chunk) {
  index_holder(v, chunk);
}

std::vector<int> CacheState::stored_counts() const {
  std::vector<int> counts(capacity_.size());
  for (graph::NodeId v = 0; v < num_nodes(); ++v) {
    counts[static_cast<std::size_t>(v)] = used(v);
  }
  return counts;
}

int CacheState::total_stored() const {
  int total = 0;
  for (graph::NodeId v = 0; v < num_nodes(); ++v) total += used(v);
  return total;
}

util::Status CacheState::verify_integrity() const {
  if (producer_ < 0 || producer_ >= num_nodes()) {
    return util::Status::invalid_input("cache state: producer out of range");
  }
  for (graph::NodeId v = 0; v < num_nodes(); ++v) {
    const auto& chunks = stored_[static_cast<std::size_t>(v)];
    if (v == producer_ && !chunks.empty()) {
      return util::Status::invalid_input(
          "cache state: producer stores chunks");
    }
    if (capacity(v) < 0) {
      return util::Status::invalid_input("cache state: negative capacity");
    }
    if (used(v) > capacity(v)) {
      return util::Status::invalid_input(
          "cache state: node stores more than its capacity");
    }
    for (std::size_t k = 0; k < chunks.size(); ++k) {
      if (chunks[k] < 0) {
        return util::Status::invalid_input(
            "cache state: negative chunk id");
      }
      if (k > 0 && chunks[k] <= chunks[k - 1]) {
        return util::Status::invalid_input(
            "cache state: chunk list not sorted/unique");
      }
    }
  }
  // The holder index must be the inverse of the per-node lists: every
  // indexed (node, chunk) pair is stored — the lists are sorted by now, so
  // holds() is exact — and the two views count the same pairs.
  std::size_t indexed = 0;
  for (std::size_t c = 0; c < holders_.size(); ++c) {
    const auto& nodes = holders_[c];
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      const graph::NodeId v = nodes[k];
      if (v < 0 || v >= num_nodes() || (k > 0 && v <= nodes[k - 1]) ||
          !holds(v, static_cast<ChunkId>(c))) {
        return util::Status::invalid_input(
            "cache state: holder index does not match the node lists");
      }
    }
    indexed += nodes.size();
  }
  if (indexed != static_cast<std::size_t>(total_stored())) {
    return util::Status::invalid_input(
        "cache state: holder index does not match the node lists");
  }
  return util::Status();  // OK
}

}  // namespace faircache::metrics

#include "metrics/sparse_contention.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <utility>

#include "graph/shortest_paths.h"
#include "metrics/contention.h"
#include "util/check.h"
#include "util/parallel.h"
#include "util/stopwatch.h"

namespace faircache::metrics {

using graph::NodeId;

double SparseContention::cost_at(NodeId i, NodeId j) const {
  const std::int64_t rb = row_begin(i);
  const std::int64_t re = row_end(i);
  const auto key = static_cast<std::uint32_t>(j) << kHopBits;
  const std::uint32_t* base = packed.data();
  const std::uint32_t* it = std::lower_bound(base + rb, base + re, key);
  if (it == base + re || col_of(*it) != j) return graph::kInfCost;
  return cost[static_cast<std::size_t>(it - base)];
}

// Per-worker scratch reused across all rows a worker builds/patches. The
// dense arrays (cost, depth, local) are indexed by node id but only ever
// read for nodes visited by the current row's BFS, so they need no
// per-row clearing — the visit stamp guards staleness.
struct SparseContentionUpdater::Workspace {
  struct NodeEntry {
    double weight;
    int stamp;
  };
  std::vector<NodeEntry> node;        // packed (weight, visit stamp)
  std::vector<NodeId> order;          // BFS visit order (frontier)
  std::vector<NodeId> parent;         // BFS parent of each visited node
  std::vector<int> depth;             // BFS depth of each visited node
  std::vector<int> child_begin;       // children of v = order[cb[v], ce[v])
  std::vector<int> child_end;
  std::vector<int> size;              // subtree size in the BFS tree
  std::vector<double> cost;           // row costs by node id
  std::vector<std::int32_t> local;    // node id -> local slot in the row
  std::vector<NodeId> sorted;         // ascending-id copy of `order`
  std::vector<double> diff;           // difference array over preorder
  std::uint64_t chk = 0;              // checksum delta of this worker's rows
  int generation = 0;

  void init(const std::vector<double>& weight) {
    const std::size_t n = weight.size();
    node.resize(n);
    for (std::size_t i = 0; i < n; ++i) node[i] = {weight[i], 0};
    parent.resize(n);
    depth.resize(n);
    child_begin.resize(n);
    child_end.resize(n);
    size.resize(n);
    cost.resize(n);
    local.resize(n);
    generation = 0;
  }
};

SparseContentionUpdater::SparseContentionUpdater(
    const graph::Graph& g, SparseContentionOptions options)
    : graph_(&g), options_(options), adj_(graph::build_csr(g)) {
  FAIRCACHE_CHECK(g.num_nodes() < SparseContention::kMaxNodes,
                  "sparse contention store supports < 2^24 nodes");
}

SparseContentionUpdater::~SparseContentionUpdater() = default;

int SparseContentionUpdater::row_limit(NodeId i) const {
  if (options_.radius <= 0 || i == options_.full_row) {
    return graph_->num_nodes();  // effectively unbounded
  }
  return options_.radius;
}

void SparseContentionUpdater::restore(SparseContention store,
                                      std::vector<double> edge_cost) {
  // Epoch check first, before any shape CHECK: a buffer taken against an
  // older topology (different pinned trees, possibly a different shape)
  // must degrade to a rebuild, not abort or — worse — patch stale trees.
  if (store.epoch != epoch_) {
    ++stale_restores_;
    return;  // drop the stale buffers; the next update() rebuilds
  }
  const auto n = static_cast<std::size_t>(graph_->num_nodes());
  FAIRCACHE_CHECK(store.row_offset.size() == n + 1 &&
                      store.packed.size() == pre_.size() &&
                      store.cost.size() == pre_.size(),
                  "restored sparse store shape mismatch");
  FAIRCACHE_CHECK(
      edge_cost.size() == static_cast<std::size_t>(graph_->num_edges()),
      "restored edge-cost size mismatch");
  store_ = std::move(store);
  edge_cost_ = std::move(edge_cost);
}

void SparseContentionUpdater::update(const CacheState& state) {
  FAIRCACHE_CHECK(state.num_nodes() == graph_->num_nodes(),
                  "cache state / graph size mismatch");
  std::vector<double> next = contention_weights(*graph_, state);
  if (!built_ || store_.empty() ||
      (edge_cost_.empty() && graph_->num_edges() > 0)) {
    // First use, or the taken buffers were never handed back. weight_ must
    // be current before the build: build_full seeds the maintained digest,
    // which covers the weight block.
    weight_ = std::move(next);
    build_full(weight_);
    built_ = true;
    return;
  }
  std::vector<std::pair<NodeId, double>> deltas;
  for (std::size_t k = 0; k < next.size(); ++k) {
    if (next[k] != weight_[k]) {
      deltas.emplace_back(static_cast<NodeId>(k), next[k] - weight_[k]);
    }
  }
  if (deltas.empty()) return;
  weight_ = std::move(next);
  if (options_.checksums) digest_.weight = weight_digest();
  apply_deltas(deltas);
}

namespace {

// Process-wide source of pinned-tree epochs: every build_full of every
// sparse updater gets a distinct stamp, so a buffer can never be restored
// into a different pinning than the one it was taken from.
std::atomic<std::uint64_t> g_epoch_counter{0};

// Region shards for the parallel build: nodes grouped by the Voronoi
// region of ~64 evenly spaced seeds (one multi-source sweep over unit
// edge weights), ascending id within a region. Workers claim whole
// regions, so each walks a topologically clustered source block while
// writing its disjoint CSR rows.
void build_region_shards(const graph::Graph& g,
                         std::vector<NodeId>& region_order,
                         std::vector<std::size_t>& region_begin) {
  const int n = g.num_nodes();
  region_order.clear();
  region_begin.assign(1, 0);
  if (n == 0) return;

  const int k = std::min(n, 64);
  const int stride = std::max(1, n / k);
  std::vector<NodeId> seeds;
  for (NodeId v = 0; v < n && static_cast<int>(seeds.size()) < k;
       v += stride) {
    seeds.push_back(v);
  }
  std::vector<double> unit(static_cast<std::size_t>(g.num_edges()), 1.0);
  const graph::VoronoiPartition part =
      graph::voronoi_partition(g, seeds, unit);

  // Region index per node: position of its owning seed in the (sorted)
  // seed list; nodes unreached from every seed share one trailing region.
  const int regions = static_cast<int>(seeds.size()) + 1;
  auto region_of = [&](NodeId v) {
    const NodeId s = part.nearest[static_cast<std::size_t>(v)];
    if (s == graph::kInvalidNode) return regions - 1;
    return static_cast<int>(
        std::lower_bound(seeds.begin(), seeds.end(), s) - seeds.begin());
  };
  std::vector<std::size_t> count(static_cast<std::size_t>(regions) + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    ++count[static_cast<std::size_t>(region_of(v)) + 1];
  }
  for (std::size_t r = 1; r < count.size(); ++r) count[r] += count[r - 1];
  region_begin.assign(count.begin(), count.end());
  region_order.resize(static_cast<std::size_t>(n));
  std::vector<std::size_t> cursor(count.begin(), count.end() - 1);
  for (NodeId v = 0; v < n; ++v) {  // ascending id within each region
    region_order[cursor[static_cast<std::size_t>(region_of(v))]++] = v;
  }
}

}  // namespace

void SparseContentionUpdater::build_full(const std::vector<double>& weight) {
  util::Stopwatch timer;
  const auto n = static_cast<std::size_t>(graph_->num_nodes());
  store_.num_nodes = graph_->num_nodes();
  store_.radius = options_.radius;
  store_.full_row = graph_->contains(options_.full_row) ? options_.full_row
                                                        : graph::kInvalidNode;
  if (region_order_.empty() && n > 0) {
    build_region_shards(*graph_, region_order_, region_begin_);
  }
  const std::size_t shards =
      region_begin_.empty() ? 0 : region_begin_.size() - 1;
  const int threads = util::resolve_parallel_threads(options_.threads, shards);
  std::vector<Workspace> ws(static_cast<std::size_t>(std::max(threads, 1)));
  for (Workspace& w : ws) w.init(weight);

  const int* offset = adj_.offset.data();
  const NodeId* neighbor = adj_.neighbor.data();

  // Pass 1: truncated-BFS row sizes (no costs, no tree bookkeeping).
  std::vector<std::int64_t> row_size(n, 0);
  util::parallel_for(
      shards,
      [&](std::size_t shard, int worker) {
        Workspace& w = ws[static_cast<std::size_t>(worker)];
        auto* node = w.node.data();
        for (std::size_t t = region_begin_[shard];
             t < region_begin_[shard + 1]; ++t) {
          const NodeId src = region_order_[t];
          const int limit = row_limit(src);
          const int gen = ++w.generation;
          w.order.clear();
          node[static_cast<std::size_t>(src)].stamp = gen;
          w.depth[static_cast<std::size_t>(src)] = 0;
          w.order.push_back(src);
          for (std::size_t head = 0; head < w.order.size(); ++head) {
            const NodeId v = w.order[head];
            const int dv = w.depth[static_cast<std::size_t>(v)];
            if (dv >= limit) continue;
            const int end = offset[v + 1];
            for (int e = offset[v]; e < end; ++e) {
              const auto wi = static_cast<std::size_t>(neighbor[e]);
              if (node[wi].stamp == gen) continue;
              node[wi].stamp = gen;
              w.depth[wi] = dv + 1;
              w.order.push_back(neighbor[e]);
            }
          }
          row_size[static_cast<std::size_t>(src)] =
              static_cast<std::int64_t>(w.order.size());
        }
      },
      threads);

  store_.row_offset.assign(n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    store_.row_offset[i + 1] = store_.row_offset[i] + row_size[i];
  }
  const auto nnz = static_cast<std::size_t>(store_.row_offset[n]);
  store_.packed.resize(nnz);
  store_.cost.resize(nnz);
  pre_.resize(nnz);
  end_.resize(nnz);
  order_.resize(nnz);
  row_max_.resize(n);

  // Pass 2: rebuild each row's BFS with the exact hop-shortest arithmetic
  // of ContentionMatrix (cost[j] = cost[parent] + w[j], ascending-id
  // neighbour order) while pinning the truncated tree: subtree sizes,
  // preorder intervals over local slots, and the ascending-col CSR fill.
  util::parallel_for(
      shards,
      [&](std::size_t shard, int worker) {
        Workspace& w = ws[static_cast<std::size_t>(worker)];
        auto* node = w.node.data();
        for (std::size_t t = region_begin_[shard];
             t < region_begin_[shard + 1]; ++t) {
          const NodeId src = region_order_[t];
          const auto ui = static_cast<std::size_t>(src);
          const int limit = row_limit(src);
          const int gen = ++w.generation;
          w.order.clear();
          w.cost[ui] = 0.0;
          w.depth[ui] = 0;
          node[ui].stamp = gen;
          w.parent[ui] = graph::kInvalidNode;
          w.size[ui] = 1;
          w.order.push_back(src);
          for (std::size_t head = 0; head < w.order.size(); ++head) {
            const NodeId v = w.order[head];
            const auto uv = static_cast<std::size_t>(v);
            w.child_begin[uv] = static_cast<int>(w.order.size());
            if (w.depth[uv] < limit) {
              const double base = v == src ? node[ui].weight : w.cost[uv];
              const int end = offset[v + 1];
              for (int e = offset[v]; e < end; ++e) {
                const auto wi = static_cast<std::size_t>(neighbor[e]);
                if (node[wi].stamp == gen) continue;
                node[wi].stamp = gen;
                w.cost[wi] = base + node[wi].weight;
                w.depth[wi] = w.depth[uv] + 1;
                w.parent[wi] = v;
                w.size[wi] = 1;
                w.order.push_back(neighbor[e]);
              }
            }
            w.child_end[uv] = static_cast<int>(w.order.size());
          }
          const int reach = static_cast<int>(w.order.size());
          const std::int64_t rb = store_.row_offset[ui];
          FAIRCACHE_CHECK(store_.row_offset[ui + 1] - rb == reach,
                          "row size drifted between build passes");

          // Ascending-col CSR fill + node -> local-slot map.
          w.sorted.assign(w.order.begin(), w.order.end());
          std::sort(w.sorted.begin(), w.sorted.end());
          std::uint32_t* packed = store_.packed.data() + rb;
          double* cost = store_.cost.data() + rb;
          double row_max = 0.0;
          for (int s = 0; s < reach; ++s) {
            const NodeId j = w.sorted[static_cast<std::size_t>(s)];
            const auto uj = static_cast<std::size_t>(j);
            w.local[uj] = s;
            const auto hop = static_cast<std::uint32_t>(
                std::min(w.depth[uj], 255));
            packed[s] = (static_cast<std::uint32_t>(j)
                         << SparseContention::kHopBits) |
                        hop;
            cost[s] = w.cost[uj];
            if (cost[s] > row_max) row_max = cost[s];
          }
          row_max_[ui] = row_max;

          // Subtree sizes: fold children into parents in reverse BFS order.
          for (int idx = reach - 1; idx >= 1; --idx) {
            const auto v = static_cast<std::size_t>(
                w.order[static_cast<std::size_t>(idx)]);
            w.size[static_cast<std::size_t>(w.parent[v])] += w.size[v];
          }
          // Preorder intervals over local slots, exactly the dense
          // updater's construction: children of v occupy consecutive
          // positions after pre(v), shifted by preceding siblings'
          // subtree sizes.
          std::int32_t* pre = pre_.data() + rb;
          std::int32_t* end = end_.data() + rb;
          std::uint32_t* ord = order_.data() + rb;
          pre[w.local[ui]] = 0;
          end[w.local[ui]] = reach;
          ord[0] = static_cast<std::uint32_t>(w.local[ui]);
          for (int idx = 0; idx < reach; ++idx) {
            const auto v = static_cast<std::size_t>(
                w.order[static_cast<std::size_t>(idx)]);
            std::int32_t q = pre[w.local[v]] + 1;
            const int cb = w.child_begin[v];
            const int ce = w.child_end[v];
            for (int ci = cb; ci < ce; ++ci) {
              const auto child = static_cast<std::size_t>(
                  w.order[static_cast<std::size_t>(ci)]);
              pre[w.local[child]] = q;
              end[w.local[child]] = q + w.size[child];
              ord[q] = static_cast<std::uint32_t>(w.local[child]);
              q += w.size[child];
            }
          }
        }
      },
      threads);

  edge_cost_.resize(static_cast<std::size_t>(graph_->num_edges()));
  for (graph::EdgeId e = 0; e < graph_->num_edges(); ++e) {
    const graph::Edge& edge = graph_->edge(e);
    edge_cost_[static_cast<std::size_t>(e)] =
        weight[static_cast<std::size_t>(edge.u)] +
        weight[static_cast<std::size_t>(edge.v)];
  }

  store_.max_cost = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    store_.max_cost = std::max(store_.max_cost, row_max_[i]);
  }
  store_.epoch = epoch_ = ++g_epoch_counter;
  // One extra parallel pass per full build seeds the maintained digests;
  // every later sweep keeps them current incrementally.
  if (options_.checksums) digest_ = recompute_digest();
  tree_build_seconds_ += timer.elapsed_seconds();
}

void SparseContentionUpdater::apply_deltas(
    const std::vector<std::pair<NodeId, double>>& deltas) {
  util::Stopwatch timer;
  const auto n = static_cast<std::size_t>(graph_->num_nodes());

  bool any_negative = false;
  for (const auto& [k, d] : deltas) {
    if (d < 0.0) any_negative = true;
    // Dissemination edge costs touching k: recompute from the fresh
    // weights (both-endpoints-changed edges are recomputed twice,
    // idempotently).
    const auto node = static_cast<std::size_t>(k);
    for (int slot = adj_.offset[node]; slot < adj_.offset[node + 1]; ++slot) {
      const auto e = static_cast<std::size_t>(adj_.incident[slot]);
      const graph::Edge& edge = graph_->edge(adj_.incident[slot]);
      const double fresh = weight_[static_cast<std::size_t>(edge.u)] +
                           weight_[static_cast<std::size_t>(edge.v)];
      if (options_.checksums) {
        digest_.edge += util::replace_term(e, util::to_bits(edge_cost_[e]),
                                           util::to_bits(fresh));
      }
      edge_cost_[e] = fresh;
    }
  }

  const bool track = options_.checksums;
  const int threads = util::resolve_parallel_threads(options_.threads, n);
  // Per-worker difference arrays over preorder positions, zeroed once and
  // re-zeroed after every row by undoing exactly the scattered entries.
  std::vector<Workspace> ws(static_cast<std::size_t>(threads));
  for (Workspace& w : ws) w.diff.assign(n + 1, 0.0);

  // Dense delta lookup for the row-scan path below: after a placement the
  // changed set can be tens of thousands of nodes, and binary-searching
  // each one in every row would dwarf the row sweep itself.
  std::vector<double> delta_of(n, 0.0);
  for (const auto& [k, d] : deltas) delta_of[static_cast<std::size_t>(k)] = d;

  util::parallel_for(
      n,
      [&](std::size_t i, int worker) {
        const std::int64_t rb = store_.row_offset[i];
        const auto reach = static_cast<int>(store_.row_offset[i + 1] - rb);
        if (reach <= 0) return;
        double* diff = ws[static_cast<std::size_t>(worker)].diff.data();
        const std::uint32_t* packed = store_.packed.data() + rb;
        const std::int32_t* pre = pre_.data() + rb;
        const std::int32_t* end = end_.data() + rb;
        // Local slot of node k in this row, -1 when the pair is not
        // materialized (out of radius: the delta cannot touch this row).
        auto slot_of = [&](NodeId k) {
          const auto key = static_cast<std::uint32_t>(k)
                           << SparseContention::kHopBits;
          const std::uint32_t* it =
              std::lower_bound(packed, packed + reach, key);
          if (it == packed + reach || SparseContention::col_of(*it) != k) {
            return -1;
          }
          return static_cast<int>(it - packed);
        };
        // A delta on the source itself shifts the (zero) diagonal too; it
        // gets reset below, so the running max needs a rescan to shed the
        // transient value.
        bool rescan = any_negative;
        int first = reach + 1;
        int last = 0;
        // Scatter the changed nodes' subtree range-adds. Two equivalent
        // walks: binary-search each changed node in the row when the
        // changed set is small, otherwise scan the row once against the
        // dense delta lookup (|D| log reach vs reach).
        const bool scan_row =
            deltas.size() * 8 >= static_cast<std::size_t>(reach);
        if (scan_row) {
          for (int s = 0; s < reach; ++s) {
            const double d = delta_of[SparseContention::col_of(packed[s])];
            if (d == 0.0) continue;
            const int p = pre[s];
            if (p == 0) rescan = true;
            const int q = end[s];
            diff[p] += d;
            diff[q] -= d;
            if (p < first) first = p;
            if (q > last) last = q;
          }
        } else {
          for (const auto& [k, d] : deltas) {
            const int s = slot_of(k);
            if (s < 0) continue;
            const int p = pre[s];
            if (p == 0) rescan = true;
            const int q = end[s];
            diff[p] += d;
            diff[q] -= d;
            if (p < first) first = p;
            if (q > last) last = q;
          }
        }
        if (last <= first) return;  // no changed node shares a path here

        double* cost = store_.cost.data() + rb;
        const std::uint32_t* ord = order_.data() + rb;
        double acc = 0.0;
        double row_max = row_max_[i];  // valid lower bound: deltas ≥ 0 here
        if (track) {
          // Same arithmetic as the untracked loop below, plus the O(1)
          // digest replace per touched entry. Cost slots are global CSR
          // indices: row base + local (ascending-col) slot.
          const auto slot0 = static_cast<std::uint64_t>(rb);
          std::uint64_t chk = 0;
          for (int p = first; p < last; ++p) {
            acc += diff[p];
            if (acc != 0.0) {
              const double old = cost[ord[p]];
              const double v = old + acc;
              cost[ord[p]] = v;
              if (v > row_max) row_max = v;
              chk += util::replace_term(slot0 + ord[p], util::to_bits(old),
                                        util::to_bits(v));
            }
          }
          const double diag = cost[ord[0]];
          if (util::to_bits(diag) != util::to_bits(0.0)) {
            chk += util::replace_term(slot0 + ord[0], util::to_bits(diag),
                                      util::to_bits(0.0));
          }
          ws[static_cast<std::size_t>(worker)].chk += chk;
        } else {
          for (int p = first; p < last; ++p) {
            acc += diff[p];
            if (acc != 0.0) {
              const double v = (cost[ord[p]] += acc);
              if (v > row_max) row_max = v;
            }
          }
        }
        cost[ord[0]] = 0.0;  // c_ii stays 0 (self access transmits nothing)
        if (rescan) {
          row_max = 0.0;
          for (int s = 0; s < reach; ++s) {
            if (cost[s] > row_max) row_max = cost[s];
          }
        }
        row_max_[i] = row_max;

        // Leave the worker's difference array all-zero for the next row.
        // Every scattered position lies in [first, last], a range the
        // sweep above already walked.
        if (scan_row) {
          std::fill(diff + first, diff + last + 1, 0.0);
        } else {
          for (const auto& [k, d] : deltas) {
            const int s = slot_of(k);
            if (s < 0) continue;
            diff[pre[s]] = 0.0;
            diff[end[s]] = 0.0;
          }
        }
      },
      threads);

  store_.max_cost = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    store_.max_cost = std::max(store_.max_cost, row_max_[i]);
  }
  if (track) {
    for (const Workspace& w : ws) digest_.cost += w.chk;
    digest_.aux = aux_digest();
  }
  delta_apply_seconds_ += timer.elapsed_seconds();
}

std::uint64_t SparseContentionUpdater::aux_digest() const {
  const std::size_t n = row_max_.size();
  std::uint64_t d = util::length_term(n + 5) +
                    util::digest_span(row_max_.data(), n);
  d += util::contribution(n, util::to_bits(store_.max_cost));
  d += util::contribution(n + 1, store_.epoch);
  d += util::contribution(n + 2, util::to_bits(store_.num_nodes));
  d += util::contribution(n + 3, util::to_bits(store_.radius));
  d += util::contribution(n + 4, util::to_bits(store_.full_row));
  return d;
}

std::uint64_t SparseContentionUpdater::weight_digest() const {
  return util::length_term(weight_.size()) +
         util::digest_span(weight_.data(), weight_.size());
}

util::StateDigest SparseContentionUpdater::recompute_digest() const {
  util::StateDigest d;
  const std::size_t n = row_max_.size();
  const auto nnz = static_cast<std::uint64_t>(store_.cost.size());
  struct Partial {
    std::uint64_t cost = 0;
    std::uint64_t tree = 0;
  };
  const int threads = util::resolve_parallel_threads(options_.threads, n);
  std::vector<Partial> part(static_cast<std::size_t>(std::max(threads, 1)));
  // Tree slot layout: row_offset at [0, n], then packed / pre_ / end_ /
  // order_ as consecutive nnz-sized blocks.
  const std::uint64_t base_packed = static_cast<std::uint64_t>(n) + 1;
  // Spans are clamped to the actual array sizes: a truncated (or
  // offset-corrupted) buffer must still be *audit-safe* — the length terms
  // and the missing contributions flag the mismatch, the recompute itself
  // never reads out of bounds.
  auto clamped = [](auto* data, std::size_t size, std::int64_t lo,
                    std::int64_t hi, std::uint64_t slot0) -> std::uint64_t {
    const auto b = static_cast<std::size_t>(std::clamp<std::int64_t>(
        lo, 0, static_cast<std::int64_t>(size)));
    const auto e = static_cast<std::size_t>(std::clamp<std::int64_t>(
        hi, static_cast<std::int64_t>(b), static_cast<std::int64_t>(size)));
    return util::digest_span(data + b, e - b, slot0 + b);
  };
  util::parallel_for(
      n,
      [&](std::size_t i, int worker) {
        Partial& p = part[static_cast<std::size_t>(worker)];
        const std::int64_t rb = store_.row_offset[i];
        const std::int64_t re = store_.row_offset[i + 1];
        p.cost += clamped(store_.cost.data(), store_.cost.size(), rb, re, 0);
        p.tree += clamped(store_.packed.data(), store_.packed.size(), rb, re,
                          base_packed);
        p.tree += clamped(pre_.data(), pre_.size(), rb, re, base_packed + nnz);
        p.tree += clamped(end_.data(), end_.size(), rb, re,
                          base_packed + 2 * nnz);
        p.tree += clamped(order_.data(), order_.size(), rb, re,
                          base_packed + 3 * nnz);
      },
      threads);
  d.cost = util::length_term(store_.cost.size());
  d.tree = util::length_term(store_.row_offset.size() + store_.packed.size() +
                             pre_.size() + end_.size() + order_.size());
  for (const Partial& p : part) {  // associative: any worker order agrees
    d.cost += p.cost;
    d.tree += p.tree;
  }
  d.tree += util::digest_span(store_.row_offset.data(),
                              store_.row_offset.size());
  d.weight = weight_digest();
  d.edge = util::length_term(edge_cost_.size()) +
           util::digest_span(edge_cost_.data(), edge_cost_.size());
  d.aux = aux_digest();
  return d;
}

bool SparseContentionUpdater::verify_row(NodeId i) const {
  const auto n = static_cast<std::size_t>(graph_->num_nodes());
  if (i < 0 || static_cast<std::size_t>(i) >= n) return true;
  const auto ui = static_cast<std::size_t>(i);
  const std::int64_t rb = store_.row_offset[ui];
  const std::int64_t re = store_.row_offset[ui + 1];
  if (rb < 0 || re < rb ||
      re > static_cast<std::int64_t>(store_.cost.size()) ||
      re > static_cast<std::int64_t>(store_.packed.size())) {
    return false;  // offsets promise entries the value arrays lack
  }
  const auto reach_stored = static_cast<std::size_t>(re - rb);

  // Stateless recompute: the exact truncated BFS of build_full's pass 2.
  Workspace w;
  w.init(weight_);
  const int* offset = adj_.offset.data();
  const NodeId* neighbor = adj_.neighbor.data();
  const int limit = row_limit(i);
  const int gen = ++w.generation;
  w.order.clear();
  auto* node = w.node.data();
  w.cost[ui] = 0.0;
  w.depth[ui] = 0;
  node[ui].stamp = gen;
  w.order.push_back(i);
  for (std::size_t head = 0; head < w.order.size(); ++head) {
    const NodeId v = w.order[head];
    const auto uv = static_cast<std::size_t>(v);
    if (w.depth[uv] >= limit) continue;
    const double base = v == i ? node[ui].weight : w.cost[uv];
    const int end = offset[v + 1];
    for (int e = offset[v]; e < end; ++e) {
      const auto wi = static_cast<std::size_t>(neighbor[e]);
      if (node[wi].stamp == gen) continue;
      node[wi].stamp = gen;
      w.cost[wi] = base + node[wi].weight;
      w.depth[wi] = w.depth[uv] + 1;
      w.order.push_back(neighbor[e]);
    }
  }
  if (w.order.size() != reach_stored) return false;
  w.sorted.assign(w.order.begin(), w.order.end());
  std::sort(w.sorted.begin(), w.sorted.end());
  const std::uint32_t* packed = store_.packed.data() + rb;
  const double* cost = store_.cost.data() + rb;
  for (std::size_t s = 0; s < reach_stored; ++s) {
    const NodeId j = w.sorted[s];
    const auto uj = static_cast<std::size_t>(j);
    const auto hop = static_cast<std::uint32_t>(std::min(w.depth[uj], 255));
    const std::uint32_t want =
        (static_cast<std::uint32_t>(j) << SparseContention::kHopBits) | hop;
    if (packed[s] != want) return false;
    if (util::to_bits(cost[s]) != util::to_bits(w.cost[uj])) return false;
  }
  return true;
}

bool SparseContentionUpdater::corrupt_for_testing(
    const util::StateCorruption& corruption) {
  using Block = util::StateCorruption::Block;
  if (!ready()) return false;
  auto flip_double = [&](double* data, std::size_t count) {
    double& slot = data[corruption.index % count];
    slot = util::double_from_bits(util::to_bits(slot) ^ corruption.bits);
  };
  switch (corruption.block) {
    case Block::kCost:
      flip_double(store_.cost.data(), store_.cost.size());
      return true;
    case Block::kTree: {
      const std::size_t total = pre_.size() + end_.size();
      const std::size_t k = corruption.index % total;
      std::int32_t& slot =
          k < pre_.size() ? pre_[k] : end_[k - pre_.size()];
      slot ^= static_cast<std::int32_t>(corruption.bits);
      return true;
    }
    case Block::kOrder:
      order_[corruption.index % order_.size()] ^=
          static_cast<std::uint32_t>(corruption.bits);
      return true;
    case Block::kWeight:
      flip_double(weight_.data(), weight_.size());
      return true;
    case Block::kEdgeCost:
      if (edge_cost_.empty()) return false;
      flip_double(edge_cost_.data(), edge_cost_.size());
      return true;
    case Block::kTruncate: {
      // Classic truncation: the CSR value arrays lose a tail while
      // row_offset still promises the full length.
      const std::uint64_t want = corruption.bits == 0 ? 1 : corruption.bits;
      const auto drop = static_cast<std::size_t>(
          std::min<std::uint64_t>(want, store_.cost.size()));
      if (drop == 0) return false;
      store_.cost.resize(store_.cost.size() - drop);
      store_.packed.resize(store_.packed.size() - drop);
      return true;
    }
    case Block::kEpoch:
      store_.epoch ^= corruption.bits == 0 ? 1 : corruption.bits;
      return true;
  }
  return false;
}

}  // namespace faircache::metrics

#include "serve/read_view.h"

#include <algorithm>

#include "common/status.h"

namespace elink {
namespace serve {

uint64_t EpochSignature(const EpochVector& epochs) {
  uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFF;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& [root, epoch] : epochs) {
    mix(static_cast<uint64_t>(static_cast<uint32_t>(root)));
    mix(static_cast<uint64_t>(epoch));
  }
  return h;
}

std::shared_ptr<const ReadView> ReadView::Build(
    const AdjacencyList& adjacency, const std::vector<Feature>& features,
    const Clustering& clustering, const std::vector<char>& live,
    std::shared_ptr<const DistanceMetric> metric, double delta,
    EpochVector epochs, uint64_t version) {
  const int n = static_cast<int>(features.size());
  auto view = std::shared_ptr<ReadView>(new ReadView());
  view->metric_ = std::move(metric);
  view->delta_ = delta;
  view->epochs_ = std::move(epochs);
  view->signature_ = EpochSignature(view->epochs_);
  view->version_ = version;

  view->remap_.assign(n, -1);
  for (int i = 0; i < n; ++i) {
    if (!live.empty() && !live[i]) continue;
    view->remap_[i] = static_cast<int>(view->original_.size());
    view->original_.push_back(i);
    view->compact_features_.push_back(features[i]);
  }
  const int m = static_cast<int>(view->original_.size());
  view->compact_adjacency_.resize(m);
  view->compact_clustering_.root_of.resize(m);
  // Mid-churn snapshots are allowed to be transiently inconsistent (a live
  // node pointing at a crashed root, a cluster split by a lost link); the
  // engine stack requires a structurally sound clustering, so any defect
  // demotes the view to the exact fallbacks instead of rejecting it —
  // serving stays available through repair windows.
  bool clustering_sound = true;
  for (int c = 0; c < m; ++c) {
    const int i = view->original_[c];
    for (int nb : adjacency[i]) {
      if (view->remap_[nb] >= 0) {
        view->compact_adjacency_[c].push_back(view->remap_[nb]);
      }
    }
    std::sort(view->compact_adjacency_[c].begin(),
              view->compact_adjacency_[c].end());
    const int r = clustering.root_of[i];
    if (r >= 0 && r < n && view->remap_[r] >= 0) {
      view->compact_clustering_.root_of[c] = view->remap_[r];
    } else {
      view->compact_clustering_.root_of[c] = c;  // Orphan: self-rooted.
      clustering_sound = false;
    }
  }
  for (int c = 0; clustering_sound && c < m; ++c) {
    const int r = view->compact_clustering_.root_of[c];
    if (view->compact_clustering_.root_of[r] != r) clustering_sound = false;
  }
  if (clustering_sound) {
    // Every cluster's live members must stay connected through live links,
    // or BuildClusterTrees cannot produce valid trees.  Every root is its
    // own root here, so a cluster is split exactly when the repair pass
    // would promote a fragment of it.
    Clustering split = view->compact_clustering_;
    clustering_sound =
        RepairDisconnectedClusters(&split, view->compact_adjacency_) == 0;
  }

  // The backbone-routed engine stack additionally needs a connected live
  // deployment; after a partitioning churn event the view serves through
  // the exact fallbacks instead (identical answers, different message
  // accounting — which the serving layer does not expose anyway).
  if (m > 0 && clustering_sound && IsConnected(view->compact_adjacency_)) {
    view->engine_backed_ = true;
    view->tree_parent_ = BuildClusterTrees(view->compact_clustering_,
                                           view->compact_adjacency_);
    view->index_ = std::make_unique<ClusterIndex>(
        ClusterIndex::Build(view->compact_clustering_, view->tree_parent_,
                            view->compact_features_, *view->metric_));
    view->backbone_ = std::make_unique<Backbone>(Backbone::Build(
        view->compact_clustering_, view->compact_adjacency_, nullptr,
        &view->compact_features_, view->metric_.get()));
    view->range_engine_ = std::make_unique<RangeQueryEngine>(
        view->compact_clustering_, *view->index_, *view->backbone_,
        view->compact_features_, *view->metric_, delta);
    view->path_engine_ = std::make_unique<PathQueryEngine>(
        view->compact_clustering_, *view->index_, *view->backbone_,
        view->compact_adjacency_, view->compact_features_, *view->metric_,
        delta);
  }
  return view;
}

RangeAnswer ReadView::Range(const Feature& q, double r) const {
  RangeAnswer out;
  const int m = num_live();
  if (m == 0) return out;
  if (engine_backed_) {
    // Matches are initiator-independent (the engine's exactness is pinned
    // by the oracle suites); initiator 0 keeps the call deterministic.
    RangeQueryResult res = range_engine_->Query(0, q, r);
    out.matches.reserve(res.matches.size());
    for (int c : res.matches) out.matches.push_back(original_[c]);
  } else {
    for (int c = 0; c < m; ++c) {
      if (metric_->Distance(compact_features_[c], q) <= r) {
        out.matches.push_back(original_[c]);
      }
    }
  }
  // Compaction is order-preserving, so the mapped-back list is ascending
  // already; this is a cheap belt-and-braces invariant.
  ELINK_CHECK(std::is_sorted(out.matches.begin(), out.matches.end()));
  return out;
}

PathAnswer ReadView::SafePath(int source, int destination,
                              const Feature& danger, double gamma) const {
  PathAnswer out;
  if (!node_live(source) || !node_live(destination)) return out;
  const int s = remap_[source];
  const int d = remap_[destination];
  if (engine_backed_) {
    PathQueryResult res = path_engine_->Query(s, d, danger, gamma);
    out.found = res.found;
    out.path.reserve(res.path.size());
    for (int c : res.path) out.path.push_back(original_[c]);
    return out;
  }
  // Fallback: BFS over the safe-node-induced live subgraph, with the exact
  // IsSafe tolerance of PathQueryEngine (index/path_query.cc).
  const auto safe = [&](int c) {
    return metric_->Distance(compact_features_[c], danger) >= gamma - 1e-12;
  };
  if (!safe(s) || !safe(d)) return out;
  out.path = ShortestHopPath(compact_adjacency_, s, d, safe);
  out.found = !out.path.empty();
  for (int& v : out.path) v = original_[v];
  return out;
}

}  // namespace serve
}  // namespace elink

// librock — core/merge_hashed.cc
//
// The paper-literal reference merge engine: serial Fig. 4 links
// (ComputeLinks in graph/links.h), then per-cluster std::unordered_map
// link tables and O(1)-probe relinking. RockClusterer never runs it; the
// differential tests' reference composition (tests/reference_rock.h)
// asserts the production engine (core/merge_parallel.cc) reproduces its
// merge sequence bit for bit, and the perf-smoke harness measures the
// production engine's speedup against this one.

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <unordered_map>

#include "common/timer.h"
#include "core/criterion.h"
#include "core/merge_engine.h"
#include "diag/invariants.h"
#include "util/updatable_heap.h"

namespace rock::internal {

namespace {

/// Internal cluster id. Initial clusters take ids 0 … n−1; every merge mints
/// the next id, so ids never exceed 2n−1.
using ClusterId = uint32_t;

constexpr double kNoCandidate = -std::numeric_limits<double>::infinity();

/// Live-cluster bookkeeping for the Fig. 3 merge loop.
struct ClusterState {
  std::vector<PointIndex> members;
  /// Cross-link counts to other live clusters (the paper's link[C_i, C_j]).
  std::unordered_map<ClusterId, uint64_t> links;
  /// The paper's local heap q[i]: candidate partners ordered by goodness.
  UpdatableHeap<ClusterId, double> local;
};

/// The merge engine: owns all live clusters and both heap layers.
class HashedMergeEngine {
 public:
  HashedMergeEngine(const NeighborGraph& graph, const RockOptions& options)
      : options_(options), goodness_(options), graph_(graph) {}

  RockResult Run() {
    Timer total_timer;
    RockResult result;
    result.stats.num_points = graph_.size();
    result.stats.average_degree = graph_.AverageDegree();
    result.stats.max_degree = graph_.MaxDegree();

    diag::MetricsRegistry registry;
    metrics_ = options_.diag.collect_metrics ? &registry : nullptr;
    check_every_ =
        diag::InvariantCheckInterval(options_.diag.invariant_check_every);

    PruneIsolatedPoints();
    result.stats.num_pruned_points = pruned_.size();

    Timer link_timer;
    const LinkMatrix links = ComputeLinks(graph_);
    result.stats.link_seconds = link_timer.ElapsedSeconds();
    if (metrics_ != nullptr) {
      metrics_->RecordSeconds("stage.links", result.stats.link_seconds);
      metrics_->AddCounter("graph.points", graph_.size());
      metrics_->AddCounter("graph.edges", graph_.NumEdges());
      metrics_->AddCounter("graph.max_degree", graph_.MaxDegree());
      metrics_->SetGauge("graph.average_degree", graph_.AverageDegree());
      metrics_->AddCounter("prune.isolated_points", pruned_.size());
      metrics_->AddCounter("links.nonzero_pairs", links.NumNonZeroPairs());
      metrics_->AddCounter("links.total", links.TotalLinks());
    }
    if (check_every_ > 0) {
      diag::CheckNeighborGraph(graph_, &invariant_report_);
      diag::CheckLinkMatrixSymmetry(links, &invariant_report_);
    }

    Timer merge_timer;
    InitializeClusters(links);
    if (metrics_ != nullptr) {
      size_t local_entries = 0;
      for (const auto& state : states_) {
        if (state != nullptr) local_entries += state->local.size();
      }
      metrics_->MaxCounter("heap.global_peak", global_.size());
      metrics_->MaxCounter("heap.local_entries_peak", local_entries);
    }
    if (check_every_ > 0) VerifyBookkeeping(links);
    MergeLoop(&result, links);
    if (check_every_ > 0) VerifyBookkeeping(links);
    result.stats.merge_seconds = merge_timer.ElapsedSeconds();

    BuildClustering(&result);
    {
      diag::ScopedTimer criterion_timer(metrics_, "stage.criterion");
      result.stats.criterion_value =
          CriterionFunction(result.clustering, links, goodness_);
    }
    result.stats.total_seconds = total_timer.ElapsedSeconds();
    if (metrics_ != nullptr) {
      metrics_->RecordSeconds("stage.merge", result.stats.merge_seconds);
      metrics_->RecordSeconds("stage.total", result.stats.total_seconds);
      metrics_->AddCounter("merge.merges", result.stats.num_merges);
      metrics_->AddCounter("merge.goodness_updates", goodness_updates_);
      metrics_->AddCounter("weed.clusters", result.stats.num_weeded_clusters);
      metrics_->AddCounter("weed.points", result.stats.num_weeded_points);
      metrics_->AddCounter("diag.invariant_checks",
                           invariant_report_.checks_run());
      metrics_->AddCounter("diag.invariant_violations",
                           invariant_report_.violations().size());
      metrics_->SetGauge("criterion.value", result.stats.criterion_value);
      result.metrics = registry.Snapshot();
    }
    metrics_ = nullptr;
    return result;
  }

 private:
  void PruneIsolatedPoints() {
    for (size_t p = 0; p < graph_.size(); ++p) {
      if (graph_.Degree(p) < options_.min_neighbors) {
        pruned_.push_back(static_cast<PointIndex>(p));
      }
    }
  }

  bool IsPruned(PointIndex p) const {
    return std::binary_search(pruned_.begin(), pruned_.end(), p);
  }

  void InitializeClusters(const LinkMatrix& links) {
    const size_t n = graph_.size();
    states_.resize(2 * n);  // ids 0 … 2n−1 suffice for n−1 merges
    for (PointIndex p = 0; p < n; ++p) {
      if (IsPruned(p)) continue;
      auto state = std::make_unique<ClusterState>();
      state->members.push_back(p);
      states_[p] = std::move(state);
      ++num_live_;
    }
    next_id_ = static_cast<ClusterId>(n);

    // Seed cross-links and local heaps from the point-level link counts.
    // Links to pruned points are ignored: pruned outliers never participate.
    for (PointIndex p = 0; p < n; ++p) {
      if (states_[p] == nullptr) continue;
      auto& state = *states_[p];
      const LinkRowSpan row = links.FlatRow(p);
      for (size_t i = 0; i < row.size; ++i) {
        const PointIndex q = row.partners[i];
        if (states_[q] == nullptr) continue;
        state.links.emplace(q, row.counts[i]);
        state.local.InsertOrUpdate(q, goodness_.Goodness(row.counts[i], 1, 1));
      }
    }
    for (PointIndex p = 0; p < n; ++p) {
      if (states_[p] != nullptr) global_.InsertOrUpdate(p, LocalBest(p));
    }
  }

  double LocalBest(ClusterId c) const {
    const auto& local = states_[c]->local;
    return local.empty() ? kNoCandidate : local.Top().priority;
  }

  void MergeLoop(RockResult* result, const LinkMatrix& links) {
    const size_t k = options_.num_clusters;
    const size_t weed_at = WeedThreshold();
    bool weeded = (weed_at == 0);

    while (num_live_ > k) {
      if (!weeded && num_live_ <= weed_at) {
        WeedSmallClusters(result);
        weeded = true;
        continue;
      }
      if (global_.empty()) break;
      const auto top = global_.Top();
      if (top.priority == kNoCandidate) break;  // all cross-links are zero
      const ClusterId u = top.key;
      const ClusterId v = states_[u]->local.Top().key;
      Merge(u, v, result);
      if (check_every_ > 0 &&
          result->stats.num_merges % check_every_ == 0) {
        VerifyBookkeeping(links);
      }
    }
    // A weeding pause configured below k (or exactly at k) still applies
    // when the loop exits normally.
    if (!weeded && num_live_ <= weed_at) {
      WeedSmallClusters(result);
    }
  }

  size_t WeedThreshold() const {
    if (options_.outlier_stop_multiple <= 0.0) return 0;
    const double raw = options_.outlier_stop_multiple *
                       static_cast<double>(options_.num_clusters);
    return static_cast<size_t>(std::ceil(raw));
  }

  void Merge(ClusterId u, ClusterId v, RockResult* result) {
    ClusterState& su = *states_[u];
    ClusterState& sv = *states_[v];
    const ClusterId w = next_id_++;
    auto sw = std::make_unique<ClusterState>();

    sw->members.reserve(su.members.size() + sv.members.size());
    sw->members.insert(sw->members.end(), su.members.begin(),
                       su.members.end());
    sw->members.insert(sw->members.end(), sv.members.begin(),
                       sv.members.end());
    std::sort(sw->members.begin(), sw->members.end());
    const size_t nw = sw->members.size();

    result->merges.push_back(MergeRecord{
        u, v, w, goodness_.Goodness(su.links.at(v), su.members.size(),
                                    sv.members.size()),
        nw});
    ++result->stats.num_merges;

    global_.Erase(u);
    global_.Erase(v);

    // Fig. 3 steps 10–15: every x linked to u or v relinks to w.
    auto relink = [&](const std::unordered_map<ClusterId, uint64_t>& src) {
      for (const auto& [x, _] : src) {
        if (x == u || x == v) continue;
        if (sw->links.count(x) > 0) continue;  // already handled via u
        ClusterState& sx = *states_[x];
        uint64_t count = 0;
        if (auto it = sx.links.find(u); it != sx.links.end()) {
          count += it->second;
          sx.links.erase(it);
        }
        if (auto it = sx.links.find(v); it != sx.links.end()) {
          count += it->second;
          sx.links.erase(it);
        }
        sx.local.Erase(u);
        sx.local.Erase(v);
        ++goodness_updates_;
        const double g = goodness_.Goodness(count, sx.members.size(), nw);
        sx.links.emplace(w, count);
        sx.local.InsertOrUpdate(w, g);
        sw->links.emplace(x, count);
        sw->local.InsertOrUpdate(x, g);
        global_.InsertOrUpdate(x, LocalBest(x));
      }
    };
    relink(su.links);
    relink(sv.links);

    states_[u].reset();
    states_[v].reset();
    states_[w] = std::move(sw);
    --num_live_;  // two die, one is born
    global_.InsertOrUpdate(w, LocalBest(w));
  }

  void WeedSmallClusters(RockResult* result) {
    std::vector<ClusterId> victims;
    for (ClusterId c = 0; c < next_id_; ++c) {
      if (states_[c] != nullptr &&
          states_[c]->members.size() < options_.min_cluster_support) {
        victims.push_back(c);
      }
    }
    for (ClusterId c : victims) {
      ClusterState& sc = *states_[c];
      result->stats.num_weeded_points += sc.members.size();
      for (PointIndex p : sc.members) weeded_points_.push_back(p);
      for (const auto& [x, _] : sc.links) {
        if (states_[x] == nullptr) continue;
        ClusterState& sx = *states_[x];
        sx.links.erase(c);
        sx.local.Erase(c);
        global_.InsertOrUpdate(x, LocalBest(x));
      }
      global_.Erase(c);
      states_[c].reset();
      --num_live_;
      ++result->stats.num_weeded_clusters;
    }
  }

  /// Re-derives the merge loop's redundant state from first principles and
  /// reports every disagreement (paper Fig. 3 bookkeeping: cluster
  /// membership partition, cross-link maps, local heaps, global heap).
  /// O(live² + Σ point-link entries) — debug cadence only, never on by
  /// default (see diag::InvariantCheckInterval).
  void VerifyBookkeeping(const LinkMatrix& links) {
    invariant_report_.NoteCheck();
    constexpr ClusterId kNoCluster = std::numeric_limits<ClusterId>::max();

    // (a) Live-cluster census and the monotone merge identity: every merge
    // retires two clusters and mints one, weeding only retires.
    size_t live = 0;
    for (ClusterId c = 0; c < next_id_; ++c) {
      if (states_[c] != nullptr) ++live;
    }
    if (live != num_live_) {
      invariant_report_.Report(
          "merge.live_count", "num_live_ = " + std::to_string(num_live_) +
                                  " but census found " +
                                  std::to_string(live));
    }

    // (b) Membership partition: each unpruned, unweeded point sits in
    // exactly one live cluster.
    std::vector<PointIndex> weeded_sorted = weeded_points_;
    std::sort(weeded_sorted.begin(), weeded_sorted.end());
    std::vector<ClusterId> cluster_of(graph_.size(), kNoCluster);
    for (ClusterId c = 0; c < next_id_; ++c) {
      if (states_[c] == nullptr) continue;
      for (PointIndex p : states_[c]->members) {
        if (cluster_of[p] != kNoCluster) {
          invariant_report_.Report(
              "merge.partition", "point " + std::to_string(p) +
                                     " is in clusters " +
                                     std::to_string(cluster_of[p]) + " and " +
                                     std::to_string(c));
        }
        cluster_of[p] = c;
      }
    }
    for (size_t p = 0; p < graph_.size(); ++p) {
      const bool excluded =
          IsPruned(static_cast<PointIndex>(p)) ||
          std::binary_search(weeded_sorted.begin(), weeded_sorted.end(),
                             static_cast<PointIndex>(p));
      if (excluded == (cluster_of[p] != kNoCluster)) {
        invariant_report_.Report(
            "merge.partition",
            "point " + std::to_string(p) +
                (excluded ? " is pruned/weeded but still clustered"
                          : " is unassigned but not pruned/weeded"));
      }
    }

    // (c) Cross-link maps against a fresh recount from the point links.
    for (ClusterId c = 0; c < next_id_; ++c) {
      if (states_[c] == nullptr) continue;
      const ClusterState& sc = *states_[c];
      std::unordered_map<ClusterId, uint64_t> expect;
      for (PointIndex p : sc.members) {
        const LinkRowSpan row = links.FlatRow(p);
        for (size_t i = 0; i < row.size; ++i) {
          const ClusterId other = cluster_of[row.partners[i]];
          if (other != kNoCluster && other != c) {
            expect[other] += row.counts[i];
          }
        }
      }
      if (expect.size() != sc.links.size()) {
        invariant_report_.Report(
            "merge.cross_links",
            "cluster " + std::to_string(c) + " tracks " +
                std::to_string(sc.links.size()) + " partners but recount has " +
                std::to_string(expect.size()));
      }
      for (const auto& [other, count] : expect) {
        auto it = sc.links.find(other);
        if (it == sc.links.end() || it->second != count) {
          invariant_report_.Report(
              "merge.cross_links",
              "link[" + std::to_string(c) + ", " + std::to_string(other) +
                  "] = " +
                  (it == sc.links.end() ? std::string("missing")
                                        : std::to_string(it->second)) +
                  " but recount = " + std::to_string(count));
        }
      }

      // (d) Local heap: one entry per linked partner, priority equal to the
      // goodness recomputed from the counted cross-links.
      if (sc.local.size() != sc.links.size()) {
        invariant_report_.Report(
            "merge.local_heap",
            "cluster " + std::to_string(c) + " local heap has " +
                std::to_string(sc.local.size()) + " entries for " +
                std::to_string(sc.links.size()) + " links");
      }
      for (const auto& [other, count] : sc.links) {
        if (!sc.local.Contains(other)) {
          invariant_report_.Report(
              "merge.local_heap", "cluster " + std::to_string(c) +
                                      " local heap is missing partner " +
                                      std::to_string(other));
          continue;
        }
        const double expected_g = goodness_.Goodness(
            count, sc.members.size(), states_[other]->members.size());
        const double actual_g = sc.local.PriorityOf(other);
        if (std::abs(actual_g - expected_g) >
            1e-9 * (1.0 + std::abs(expected_g))) {
          invariant_report_.Report(
              "merge.goodness",
              "g(" + std::to_string(c) + ", " + std::to_string(other) +
                  ") = " + std::to_string(actual_g) + " but recompute = " +
                  std::to_string(expected_g));
        }
      }

      // (e) Global heap: every live cluster present, keyed by its local best.
      if (!global_.Contains(c)) {
        invariant_report_.Report(
            "merge.global_heap",
            "cluster " + std::to_string(c) + " missing from global heap");
        continue;
      }
      const double expected_best = LocalBest(c);
      const double actual_best = global_.PriorityOf(c);
      if (!(actual_best == expected_best) &&
          std::abs(actual_best - expected_best) >
              1e-9 * (1.0 + std::abs(expected_best))) {
        invariant_report_.Report(
            "merge.global_heap",
            "global priority of " + std::to_string(c) + " = " +
                std::to_string(actual_best) + " but local best = " +
                std::to_string(expected_best));
      }
    }
    if (global_.size() != num_live_) {
      invariant_report_.Report(
          "merge.global_heap",
          "global heap has " + std::to_string(global_.size()) +
              " entries for " + std::to_string(num_live_) +
              " live clusters");
    }
  }

  void BuildClustering(RockResult* result) {
    std::vector<ClusterIndex> assignment(graph_.size(), kUnassigned);
    ClusterIndex next = 0;
    for (ClusterId c = 0; c < next_id_; ++c) {
      if (states_[c] == nullptr) continue;
      for (PointIndex p : states_[c]->members) {
        assignment[p] = next;
      }
      ++next;
    }
    result->clustering = Clustering::FromAssignment(std::move(assignment));
    result->clustering.SortBySizeDescending();
  }

  const RockOptions& options_;
  GoodnessMeasure goodness_;
  const NeighborGraph& graph_;

  std::vector<std::unique_ptr<ClusterState>> states_;
  UpdatableHeap<ClusterId, double> global_;
  std::vector<PointIndex> pruned_;         // sorted by construction
  std::vector<PointIndex> weeded_points_;
  size_t num_live_ = 0;
  ClusterId next_id_ = 0;

  diag::MetricsRegistry* metrics_ = nullptr;  // null → metrics disabled
  diag::InvariantReport invariant_report_;
  size_t check_every_ = 0;  // 0 → invariant checks disabled
  uint64_t goodness_updates_ = 0;
};

}  // namespace

RockResult RunHashedMergeEngine(const NeighborGraph& graph,
                                const RockOptions& options) {
  HashedMergeEngine engine(graph, options);
  return engine.Run();
}

}  // namespace rock::internal

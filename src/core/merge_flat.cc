// librock — core/merge_flat.cc
//
// The flat-layout merge engine (the default). Same Fig. 3 algorithm as the
// hashed oracle (core/merge_hashed.cc), rebuilt for cache locality:
//
//   * Link rows are consumed through LinkMatrix::Freeze()'s CSR layout —
//     one sequential scan per row instead of hash-bucket chasing.
//   * Each cluster's cross-links live in three parallel flat vectors
//     (ascending partner ids, counts, goodness values) instead of an
//     unordered_map. The Fig. 3 steps 10–15 relink becomes a single
//     three-way sorted merge of u's and v's partner lists; per-partner hash
//     probes disappear.
//   * Dead partners are removed lazily: a merged/weeded cluster's entries
//     stay in place and are skipped via an aliveness bitmap, with rows
//     compacted only once stale entries reach half the row. Lists stay
//     sorted for free because merged-cluster ids are minted monotonically
//     (next_id_++), so every append is larger than all existing entries.
//   * Cluster slabs come from a per-run arena (one vector sized 2n, the id
//     ceiling) — no per-merge allocation, and references into the arena
//     stay stable for the whole run.
//   * The paper's per-cluster local heaps q[i] collapse to an argmax: the
//     goodness of every live entry is stored alongside its count, and each
//     cluster tracks only its best partner under the same strict total
//     order the heaps use (priority desc, key asc). A relink updates the
//     argmax in O(1); only when it invalidates the current best does a
//     linear rescan of the flat row run — amortized O(1) per relink, and a
//     branchy heap sift plus two hash-map updates per level becomes a
//     straight-line scan over a double array.
//   * Global-heap fixups are batched: one InsertOrUpdate per touched x at
//     the end of the merge, the merged cluster taking over u's entry via
//     ReplaceKey (one sift instead of an erase + insert pair), and the
//     initial heap built with one O(n) Assign instead of n inserts.
//
// Results are bit-identical to the hashed engine — a strict total order has
// a unique maximum, so the argmax agrees with heap Top() element for
// element and the merge sequence, clustering, and stats all match
// (tests/diag_differential_test.cc).

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/criterion.h"
#include "core/merge_engine.h"
#include "diag/invariants.h"
#include "graph/parallel.h"
#include "util/updatable_heap.h"

namespace rock::internal {

namespace {

/// Internal cluster id. Initial clusters take ids 0 … n−1; every merge mints
/// the next id, so ids never exceed 2n−1.
using ClusterId = uint32_t;

constexpr double kNoCandidate = -std::numeric_limits<double>::infinity();

/// Flat-layout bookkeeping for one cluster. `partners`/`counts`/`goodness`
/// are parallel arrays in strictly ascending partner-id order; entries
/// whose partner has died (alive bitmap) are stale and skipped lazily, so
/// only `live_links` of them are meaningful. `best_key`/`best_priority`
/// replace the paper's local heap: the live entry maximal under
/// (goodness desc, id asc), or best_priority == −inf when no live entry
/// exists.
struct FlatClusterState {
  std::vector<PointIndex> members;  // sorted point ids
  std::vector<ClusterId> partners;  // ascending; may contain dead ids
  std::vector<uint64_t> counts;     // parallel to partners
  std::vector<double> goodness;     // parallel to partners
  size_t live_links = 0;            // entries whose partner is alive
  ClusterId best_key = 0;
  double best_priority = -std::numeric_limits<double>::infinity();
};

using HeapEntry = UpdatableHeap<ClusterId, double>::Entry;

class FlatMergeEngine {
 public:
  FlatMergeEngine(const NeighborGraph& graph, const RockOptions& options)
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
    LinkMatrix links = ComputeLinkStage(graph_, options_, metrics_);
    links.Freeze();  // CSR layout for the init scans (packed: already built)
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
      for (ClusterId c = 0; c < next_id_; ++c) {
        if (alive_[c]) local_entries += arena_[c].live_links;
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
      metrics_->RecordSeconds("stage.merge.relink", relink_seconds_);
      metrics_->RecordSeconds("stage.merge.heap", heap_seconds_);
      metrics_->RecordSeconds("stage.total", result.stats.total_seconds);
      metrics_->AddCounter("merge.merges", result.stats.num_merges);
      metrics_->AddCounter("merge.goodness_updates", goodness_updates_);
      metrics_->AddCounter("merge.relink_partners", relink_partners_);
      metrics_->AddCounter("merge.relink_dead_skipped", relink_dead_skipped_);
      metrics_->AddCounter("merge.relink_compactions", relink_compactions_);
      metrics_->AddCounter("merge.relink_best_rescans", best_rescans_);
      metrics_->AddCounter("heap.ops", heap_ops_);
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
    arena_.resize(2 * n);  // ids 0 … 2n−1 suffice for n−1 merges
    alive_.assign(2 * n, 0);
    for (PointIndex p = 0; p < n; ++p) {
      if (IsPruned(p)) continue;
      arena_[p].members.push_back(p);
      alive_[p] = 1;
      ++num_live_;
    }
    next_id_ = static_cast<ClusterId>(n);

    // Seed cross-links from the frozen CSR rows: partners arrive already
    // sorted, so the flat vectors fill in one pass and the best entry falls
    // out of the scan (ascending ids ⇒ ties keep the smaller key, matching
    // the heaps' order). Links to pruned points are dropped: pruned
    // outliers never participate.
    for (PointIndex p = 0; p < n; ++p) {
      if (!alive_[p]) continue;
      const LinkRowSpan row = links.FlatRow(p);
      FlatClusterState& s = arena_[p];
      s.partners.reserve(row.size);
      s.counts.reserve(row.size);
      s.goodness.reserve(row.size);
      for (size_t i = 0; i < row.size; ++i) {
        const PointIndex q = row.partners[i];
        if (!alive_[q]) continue;
        const double g = goodness_.Goodness(row.counts[i], 1, 1);
        s.partners.push_back(q);
        s.counts.push_back(row.counts[i]);
        s.goodness.push_back(g);
        if (g > s.best_priority) {
          s.best_priority = g;
          s.best_key = q;
        }
      }
      s.live_links = s.partners.size();
    }

    // One O(n) heapify instead of n sifted inserts; keys are unique and the
    // resulting heap content is identical.
    std::vector<HeapEntry> entries;
    entries.reserve(num_live_);
    for (PointIndex p = 0; p < n; ++p) {
      if (alive_[p]) entries.push_back(HeapEntry{p, LocalBest(p)});
    }
    global_.Assign(std::move(entries));
    heap_ops_ += global_.size();
  }

  double LocalBest(ClusterId c) const { return arena_[c].best_priority; }

  /// Recomputes a cluster's best live entry by scanning its flat row.
  /// Ascending partner order makes ties resolve toward the smaller id,
  /// matching UpdatableHeap's (priority desc, key asc) total order.
  void RecomputeBest(FlatClusterState& s) {
    ++best_rescans_;
    s.best_priority = kNoCandidate;
    s.best_key = 0;
    for (size_t i = 0; i < s.partners.size(); ++i) {
      if (!alive_[s.partners[i]]) continue;
      if (s.goodness[i] > s.best_priority) {
        s.best_priority = s.goodness[i];
        s.best_key = s.partners[i];
      }
    }
  }

  /// link[u, v] from u's flat row. The row stays sorted even with stale
  /// entries (ids are minted monotonically), so this is a binary search.
  uint64_t CountOf(const FlatClusterState& s, ClusterId partner) const {
    auto it =
        std::lower_bound(s.partners.begin(), s.partners.end(), partner);
    assert(it != s.partners.end() && *it == partner);
    return s.counts[static_cast<size_t>(it - s.partners.begin())];
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
      const ClusterId v = arena_[u].best_key;
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

  /// Frees a dead cluster's slab. The arena slot itself stays (stable
  /// references), only the heap-allocated vectors are returned.
  static void ReleaseState(FlatClusterState& s) {
    s = FlatClusterState{};
  }

  /// Drops stale (dead-partner) entries once they dominate the row. The
  /// 2× threshold amortizes to O(1) per append; tiny rows are left alone.
  void MaybeCompact(FlatClusterState& s) {
    if (s.partners.size() < 8 || s.partners.size() < 2 * s.live_links) {
      return;
    }
    size_t out = 0;
    for (size_t i = 0; i < s.partners.size(); ++i) {
      if (!alive_[s.partners[i]]) continue;
      s.partners[out] = s.partners[i];
      s.counts[out] = s.counts[i];
      s.goodness[out] = s.goodness[i];
      ++out;
    }
    assert(out == s.live_links);
    s.partners.resize(out);
    s.counts.resize(out);
    s.goodness.resize(out);
    ++relink_compactions_;
  }

  void Merge(ClusterId u, ClusterId v, RockResult* result) {
    FlatClusterState& su = arena_[u];
    FlatClusterState& sv = arena_[v];
    const ClusterId w = next_id_++;
    FlatClusterState& sw = arena_[w];  // arena is pre-sized: no reallocation

    sw.members.resize(su.members.size() + sv.members.size());
    std::merge(su.members.begin(), su.members.end(), sv.members.begin(),
               sv.members.end(), sw.members.begin());
    const size_t nw = sw.members.size();

    result->merges.push_back(MergeRecord{
        u, v, w,
        goodness_.Goodness(CountOf(su, v), su.members.size(),
                           sv.members.size()),
        nw});
    ++result->stats.num_merges;

    global_.Erase(v);  // u's entry is renamed to w at the end of the merge
    heap_ops_ += 1;
    // Kill u and v up front: the lazy skip then drops their entries from
    // every partner list (including each other's), and a compaction that
    // fires mid-relink must not keep them. w is born alive for the same
    // reason — its freshly appended entries must survive compaction.
    alive_[u] = 0;
    alive_[v] = 0;
    alive_[w] = 1;

    // Fig. 3 steps 10–15 as one three-way sorted merge: walk u's and v's
    // partner lists in lockstep ascending order; every live x appears in at
    // least one list, its new link count is the sum of what both carried.
    Timer relink_timer;
    const size_t upper = su.live_links + sv.live_links;
    sw.partners.reserve(upper);
    sw.counts.reserve(upper);
    sw.goodness.reserve(upper);
    touched_.clear();

    auto skip_dead = [this](const FlatClusterState& s, size_t& i) {
      while (i < s.partners.size() && !alive_[s.partners[i]]) {
        ++i;
        ++relink_dead_skipped_;
      }
    };
    size_t iu = 0;
    size_t iv = 0;
    skip_dead(su, iu);
    skip_dead(sv, iv);
    while (iu < su.partners.size() || iv < sv.partners.size()) {
      ClusterId x;
      uint64_t count = 0;
      bool from_u = false;
      if (iu < su.partners.size() &&
          (iv >= sv.partners.size() || su.partners[iu] <= sv.partners[iv])) {
        x = su.partners[iu];
        from_u = true;
        count += su.counts[iu];
        ++iu;
        skip_dead(su, iu);
      } else {
        x = sv.partners[iv];
      }
      bool from_v = false;
      if (iv < sv.partners.size() && sv.partners[iv] == x) {
        from_v = true;
        count += sv.counts[iv];
        ++iv;
        skip_dead(sv, iv);
      }

      FlatClusterState& sx = arena_[x];
      ++goodness_updates_;
      ++relink_partners_;
      const double g = goodness_.Goodness(count, sx.members.size(), nw);
      // x's entries for u/v just died and (w, g) replaces them. The argmax
      // updates in O(1) unless the dying best forces a rescan; ties keep
      // the incumbent, which has the smaller id (w is the largest id yet).
      sx.partners.push_back(w);  // w > every existing id: stays sorted
      sx.counts.push_back(count);
      sx.goodness.push_back(g);
      if (from_u && from_v) {
        sx.live_links -= 1;  // entries for u and v die, one for w is born
      }
      if (sx.best_key == u || sx.best_key == v) {
        RecomputeBest(sx);
      } else if (g > sx.best_priority) {
        sx.best_priority = g;
        sx.best_key = w;
      }
      MaybeCompact(sx);
      touched_.push_back(x);

      sw.partners.push_back(x);  // x ascends across iterations
      sw.counts.push_back(count);
      sw.goodness.push_back(g);
      if (g > sw.best_priority) {  // ascending x ⇒ ties keep the smaller id
        sw.best_priority = g;
        sw.best_key = x;
      }
    }
    sw.live_links = sw.partners.size();
    ReleaseState(su);
    ReleaseState(sv);
    --num_live_;  // two die, one is born
    relink_seconds_ += relink_timer.ElapsedSeconds();

    // Deferred global-heap fixups: each touched x settled its local best
    // above, so one InsertOrUpdate per x closes the merge, and w takes over
    // u's still-present entry in a single sift.
    Timer heap_timer;
    for (ClusterId x : touched_) {
      global_.InsertOrUpdate(x, LocalBest(x));
    }
    global_.ReplaceKey(u, w, LocalBest(w));
    heap_ops_ += touched_.size() + 1;
    heap_seconds_ += heap_timer.ElapsedSeconds();
  }

  void WeedSmallClusters(RockResult* result) {
    std::vector<ClusterId> victims;
    for (ClusterId c = 0; c < next_id_; ++c) {
      if (alive_[c] &&
          arena_[c].members.size() < options_.min_cluster_support) {
        victims.push_back(c);
      }
    }
    for (ClusterId c : victims) {
      FlatClusterState& sc = arena_[c];
      result->stats.num_weeded_points += sc.members.size();
      for (PointIndex p : sc.members) weeded_points_.push_back(p);
      alive_[c] = 0;  // partners now skip c's stale entries lazily
      for (size_t i = 0; i < sc.partners.size(); ++i) {
        const ClusterId x = sc.partners[i];
        if (!alive_[x]) continue;
        FlatClusterState& sx = arena_[x];
        --sx.live_links;
        if (sx.best_key == c) RecomputeBest(sx);
        global_.InsertOrUpdate(x, LocalBest(x));
        heap_ops_ += 1;
      }
      global_.Erase(c);
      heap_ops_ += 1;
      ReleaseState(sc);
      --num_live_;
      ++result->stats.num_weeded_clusters;
    }
  }

  /// Re-derives the merge loop's redundant state from first principles and
  /// reports every disagreement. Same checks as the hashed engine
  /// (membership partition, cross-links, goodness, global heap) plus the
  /// flat-layout invariants: strictly ascending partner rows, an exact
  /// live_links census, and the tracked best matching a full argmax
  /// recompute. Uses the hash rows (links.Row) as the oracle — debug
  /// cadence only, never on by default.
  void VerifyBookkeeping(const LinkMatrix& links) {
    invariant_report_.NoteCheck();
    constexpr ClusterId kNoCluster = std::numeric_limits<ClusterId>::max();

    // (a) Live-cluster census and the monotone merge identity: every merge
    // retires two clusters and mints one, weeding only retires.
    size_t live = 0;
    for (ClusterId c = 0; c < next_id_; ++c) {
      if (alive_[c]) ++live;
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
      if (!alive_[c]) continue;
      for (PointIndex p : arena_[c].members) {
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

    for (ClusterId c = 0; c < next_id_; ++c) {
      if (!alive_[c]) continue;
      const FlatClusterState& sc = arena_[c];

      // (c) Flat-layout shape: partner ids strictly ascending, counts and
      // goodness parallel, and live_links equal to the live-entry census.
      if (sc.counts.size() != sc.partners.size() ||
          sc.goodness.size() != sc.partners.size()) {
        invariant_report_.Report(
            "merge.flat_row",
            "cluster " + std::to_string(c) + " has " +
                std::to_string(sc.partners.size()) + " partners but " +
                std::to_string(sc.counts.size()) + " counts / " +
                std::to_string(sc.goodness.size()) + " goodness values");
      }
      size_t live_entries = 0;
      for (size_t i = 0; i < sc.partners.size(); ++i) {
        if (i > 0 && sc.partners[i] <= sc.partners[i - 1]) {
          invariant_report_.Report(
              "merge.flat_row",
              "cluster " + std::to_string(c) + " partner row not strictly " +
                  "ascending at index " + std::to_string(i));
        }
        if (alive_[sc.partners[i]]) ++live_entries;
      }
      if (live_entries != sc.live_links) {
        invariant_report_.Report(
            "merge.flat_row",
            "cluster " + std::to_string(c) + " live_links = " +
                std::to_string(sc.live_links) + " but census found " +
                std::to_string(live_entries));
      }

      // (d) Cross-links against a fresh recount from the point links.
      std::unordered_map<ClusterId, uint64_t> expect;
      for (PointIndex p : sc.members) {
        for (const auto& [q, count] : links.Row(p)) {
          const ClusterId other = cluster_of[q];
          if (other != kNoCluster && other != c) expect[other] += count;
        }
      }
      if (expect.size() != live_entries) {
        invariant_report_.Report(
            "merge.cross_links",
            "cluster " + std::to_string(c) + " tracks " +
                std::to_string(live_entries) + " partners but recount has " +
                std::to_string(expect.size()));
      }
      for (size_t i = 0; i < sc.partners.size(); ++i) {
        const ClusterId other = sc.partners[i];
        if (!alive_[other]) continue;
        auto it = expect.find(other);
        if (it == expect.end() || it->second != sc.counts[i]) {
          invariant_report_.Report(
              "merge.cross_links",
              "link[" + std::to_string(c) + ", " + std::to_string(other) +
                  "] = " + std::to_string(sc.counts[i]) + " but recount = " +
                  (it == expect.end() ? std::string("missing")
                                      : std::to_string(it->second)));
        }
      }

      // (e) Stored goodness values and the tracked argmax: every live
      // entry's goodness recomputes to the stored value, and
      // best_key/best_priority equal a full (priority desc, key asc) scan.
      ClusterId expect_best_key = 0;
      double expect_best_priority = kNoCandidate;
      for (size_t i = 0; i < sc.partners.size(); ++i) {
        const ClusterId other = sc.partners[i];
        if (!alive_[other]) continue;
        const double expected_g = goodness_.Goodness(
            sc.counts[i], sc.members.size(), arena_[other].members.size());
        if (std::abs(sc.goodness[i] - expected_g) >
            1e-9 * (1.0 + std::abs(expected_g))) {
          invariant_report_.Report(
              "merge.goodness",
              "g(" + std::to_string(c) + ", " + std::to_string(other) +
                  ") = " + std::to_string(sc.goodness[i]) +
                  " but recompute = " + std::to_string(expected_g));
        }
        if (sc.goodness[i] > expect_best_priority) {
          expect_best_priority = sc.goodness[i];
          expect_best_key = other;
        }
      }
      if (sc.best_priority != expect_best_priority ||
          (live_entries > 0 && sc.best_key != expect_best_key)) {
        invariant_report_.Report(
            "merge.local_best",
            "cluster " + std::to_string(c) + " tracks best (" +
                std::to_string(sc.best_key) + ", " +
                std::to_string(sc.best_priority) + ") but scan found (" +
                std::to_string(expect_best_key) + ", " +
                std::to_string(expect_best_priority) + ")");
      }

      // (f) Global heap: every live cluster present, keyed by its local
      // best.
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
      if (!alive_[c]) continue;
      for (PointIndex p : arena_[c].members) {
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

  /// Per-run arena: slab per possible cluster id, allocated once. Slots of
  /// dead clusters are released (vectors freed) but never reused.
  std::vector<FlatClusterState> arena_;
  std::vector<uint8_t> alive_;             // parallel to arena_
  UpdatableHeap<ClusterId, double> global_;
  std::vector<PointIndex> pruned_;         // sorted by construction
  std::vector<PointIndex> weeded_points_;
  std::vector<ClusterId> touched_;         // scratch, reused across merges
  size_t num_live_ = 0;
  ClusterId next_id_ = 0;

  diag::MetricsRegistry* metrics_ = nullptr;  // null → metrics disabled
  diag::InvariantReport invariant_report_;
  size_t check_every_ = 0;  // 0 → invariant checks disabled
  uint64_t goodness_updates_ = 0;
  uint64_t relink_partners_ = 0;
  uint64_t relink_dead_skipped_ = 0;
  uint64_t relink_compactions_ = 0;
  uint64_t best_rescans_ = 0;
  uint64_t heap_ops_ = 0;
  double relink_seconds_ = 0.0;
  double heap_seconds_ = 0.0;
};

}  // namespace

RockResult RunFlatMergeEngine(const NeighborGraph& graph,
                              const RockOptions& options) {
  FlatMergeEngine engine(graph, options);
  return engine.Run();
}

}  // namespace rock::internal

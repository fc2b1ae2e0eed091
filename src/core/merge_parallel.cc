// librock — core/merge_parallel.cc
//
// The parallel sharded merge engine (the default; DESIGN.md §12). Same
// Fig. 3 algorithm and byte-identical results as the flat and hashed
// engines (core/merge_flat.cc, core/merge_hashed.cc); the greedy merge
// *sequence* stays serial — it is inherently so — and the per-merge work
// is restructured for throughput:
//
//   * Interleaved rows: each cluster's cross-links live in one vector of
//     24-byte RowEntry{partner, count, goodness} records instead of three
//     parallel vectors. The per-partner scatter append into an arbitrary
//     cluster's row touches one cache line instead of three — the relink
//     is memory-bound on exactly that scatter.
//   * Memoized goodness: GoodnessMeasure serves size^{1+2f(θ)} from a
//     table (Reserve()d to the id ceiling up front, so shard workers read
//     it race-free), and the merged cluster's own term is hoisted out of
//     the relink loop. The remaining per-partner cost is two table loads,
//     two subtractions and one division, evaluated in the exact same
//     operation order as GoodnessMeasure::Goodness — bit-identical values.
//   * Lazy best cleaning: on real data the merging pair (u, v) is each
//     touched neighbor's own best partner almost every time (the pair
//     with globally maximal goodness sits inside a natural cluster, and
//     so do its neighbors), so the flat engine's "rescan when the best
//     dies" fires on ~99% of touches — ~1.6M full row scans on the n=5k
//     basket benchmark, the entire merge-stage bottleneck. Here a cluster
//     whose best died is just marked dirty, keeping max(old best, new
//     goodness) as its stored priority — a provable upper bound on its
//     true best (dead entries only remove candidates; the one new entry
//     is folded in). A dirty cluster is cleaned (one rescan + one heap
//     fixup) only when it surfaces at the heap top. Because no stored
//     priority ever understates a true best, cleaning the top until it
//     is clean pops exactly the cluster the eager engines pop — same
//     priority, same (priority desc, key asc) tie-break — so the merge
//     sequence is byte-identical while O(row) rescans collapse to O(1)
//     dirty marks.
//   * Elided heap fixups: a global-heap InsertOrUpdate is emitted only
//     when a partner's stored priority actually changed. An update to an
//     unchanged priority is a content no-op, and heap *content* is all
//     that can affect results (the strict total order has a unique
//     maximum), so eliding them is invisible. With lazy cleaning the
//     stored priority moves only when the upper bound rises, so most
//     heap traffic disappears outright.
//   * Sharded relink (merge_threads > 1): the three-way sorted merge of
//     u's and v's rows is split into disjoint partner-id ranges. Each
//     shard relinks its range into per-shard scratch (its own slice of
//     the merged row, its own changed-best list, its own counters);
//     partner-side mutations are disjoint because a partner id belongs to
//     exactly one shard. Scratch is stitched back together in shard (=
//     ascending id) order, per-shard bests are folded left-to-right with
//     the same strict > the serial scan uses, and heap fixups are applied
//     serially afterwards — the result is provably independent of the
//     shard count, so any merge_threads value yields byte-identical runs.
//   * A persistent condvar-parked worker pool executes the shards.
//     Fork-join per merge would dwarf the work; parking keeps idle
//     workers silent, and relinks smaller than merge_shard_min never
//     touch the pool at all (the serial loop is faster for them).
//   * Periodic compaction sweep: every kSweepInterval merges the arena is
//     walked in parallel chunks and rows dominated by stale entries are
//     compacted — catching rows that went stale through weeding, which
//     the per-touch compaction cannot see.
//
// Metrics beyond the flat engine's set: merge.shards, merge.parallel_
// relinks, merge.compact_sweeps, stage.merge.relink.parallel and the
// merge.threads gauge (docs/OBSERVABILITY.md).

#include <algorithm>
#include <cassert>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/criterion.h"
#include "core/merge_engine.h"
#include "diag/invariants.h"
#include "util/thread_pool.h"
#include "util/updatable_heap.h"

namespace rock::internal {

namespace {

/// Internal cluster id. Initial clusters take ids 0 … n−1; every merge mints
/// the next id, so ids never exceed 2n−1.
using ClusterId = uint32_t;

constexpr double kNoCandidate = -std::numeric_limits<double>::infinity();

/// Merges between periodic dead-entry compaction sweeps.
constexpr size_t kSweepInterval = 512;

/// One cross-link record: partner id, link count, cached goodness. The
/// interleaved layout makes the scatter append into a partner's row a
/// single cache-line touch.
struct RowEntry {
  ClusterId partner;
  uint64_t count;
  double goodness;
};

/// Bookkeeping for one cluster. `row` is in strictly ascending partner-id
/// order; entries whose partner has died (alive bitmap) are stale and
/// skipped lazily, so only `live_links` of them are meaningful.
/// `best_key`/`best_priority` replace the paper's local heap as in the
/// flat engine — except when `dirty` is set, in which case best_priority
/// is only an upper bound on the true best (and best_key is meaningless)
/// until the cluster is cleaned at the heap top.
struct ParClusterState {
  std::vector<PointIndex> members;  // sorted point ids
  std::vector<RowEntry> row;        // ascending partners; may contain dead
  size_t live_links = 0;            // entries whose partner is alive
  ClusterId best_key = 0;
  double best_priority = -std::numeric_limits<double>::infinity();
  bool dirty = false;               // best died; priority is an upper bound
};

using HeapEntry = UpdatableHeap<ClusterId, double>::Entry;

/// A persistent pool of condvar-parked workers executing shard jobs.
/// Run(num_shards, job) has the caller participate; shards are claimed
/// under the mutex (shards are coarse, so two lock round-trips per shard
/// are noise, and mutex claiming kills the stale-worker/stolen-shard race
/// an atomic counter would invite across epochs). Parked workers cost
/// nothing between merges — essential when merge_threads exceeds the
/// physical core count.
class ShardPool {
 public:
  explicit ShardPool(size_t num_threads) {
    for (size_t t = 1; t < num_threads; ++t) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  }

  ~ShardPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  /// Runs job(shard) for every shard in [0, num_shards), returning once
  /// all shards completed. Must not be re-entered.
  void Run(size_t num_shards, const std::function<void(size_t)>& job) {
    if (workers_.empty() || num_shards <= 1) {
      for (size_t s = 0; s < num_shards; ++s) job(s);
      return;
    }
    uint64_t my_epoch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      job_ = &job;
      num_shards_ = num_shards;
      next_shard_ = 0;
      remaining_ = num_shards;
      my_epoch = ++epoch_;
    }
    cv_.notify_all();
    Drain(my_epoch, job);
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return remaining_ == 0; });
    job_ = nullptr;
  }

 private:
  /// Claims and runs shards of `epoch` until none remain.
  void Drain(uint64_t epoch, const std::function<void(size_t)>& job) {
    while (true) {
      size_t s;
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (epoch_ != epoch || next_shard_ >= num_shards_) return;
        s = next_shard_++;
      }
      job(s);
      std::lock_guard<std::mutex> lock(mu_);
      if (--remaining_ == 0) done_cv_.notify_all();
    }
  }

  void WorkerLoop() {
    uint64_t seen_epoch = 0;
    while (true) {
      const std::function<void(size_t)>* job;
      uint64_t epoch;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock,
                 [&] { return shutdown_ || epoch_ != seen_epoch; });
        if (shutdown_) return;
        seen_epoch = epoch_;
        epoch = epoch_;
        job = job_;
      }
      if (job != nullptr) Drain(epoch, *job);
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;       // wakes workers on a new epoch
  std::condition_variable done_cv_;  // wakes the caller on completion
  std::vector<std::thread> workers_;
  const std::function<void(size_t)>* job_ = nullptr;  // guarded by mu_
  size_t num_shards_ = 0;                             // guarded by mu_
  size_t next_shard_ = 0;                             // guarded by mu_
  size_t remaining_ = 0;                              // guarded by mu_
  uint64_t epoch_ = 0;                                // guarded by mu_
  bool shutdown_ = false;                             // guarded by mu_
};

class ParallelMergeEngine {
 public:
  ParallelMergeEngine(const NeighborGraph& graph, const RockOptions& options)
      : options_(options),
        goodness_(options),
        graph_(graph),
        threads_(ResolveThreads(options.merge_threads)) {}

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
    // Every goodness argument is a cluster size (or a sum of two), all
    // bounded by n — fill the memo once so shard workers only ever read.
    goodness_.Reserve(graph_.size());
    if (threads_ > 1) {
      pool_ = std::make_unique<ShardPool>(threads_);
      scratch_.resize(threads_);
    } else {
      scratch_.resize(1);
    }
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
      metrics_->RecordSeconds("stage.merge.relink.parallel",
                              parallel_relink_seconds_);
      metrics_->RecordSeconds("stage.merge.heap", heap_seconds_);
      metrics_->RecordSeconds("stage.total", result.stats.total_seconds);
      metrics_->AddCounter("merge.merges", result.stats.num_merges);
      metrics_->AddCounter("merge.goodness_updates", goodness_updates_);
      metrics_->AddCounter("merge.relink_partners", relink_partners_);
      metrics_->AddCounter("merge.relink_dead_skipped", relink_dead_skipped_);
      metrics_->AddCounter("merge.relink_compactions", relink_compactions_);
      metrics_->AddCounter("merge.relink_best_rescans", best_rescans_);
      metrics_->AddCounter("merge.shards", shards_run_);
      metrics_->AddCounter("merge.parallel_relinks", parallel_relinks_);
      metrics_->AddCounter("merge.compact_sweeps", compact_sweeps_);
      metrics_->SetGauge("merge.threads", static_cast<double>(threads_));
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
  /// Per-shard relink scratch: the shard's slice of the merged row, the
  /// partners whose best priority changed (heap fixups, applied serially
  /// later), the shard's best candidate for the merged cluster, and local
  /// counters. Persistent across merges so capacity is paid once.
  struct ShardScratch {
    std::vector<RowEntry> out;
    std::vector<ClusterId> changed;
    ClusterId best_key = 0;
    double best_priority = kNoCandidate;
    uint64_t partners = 0;
    uint64_t dead_skipped = 0;
    uint64_t compactions = 0;
    uint64_t rescans = 0;

    void Reset() {
      out.clear();
      changed.clear();
      best_key = 0;
      best_priority = kNoCandidate;
      partners = 0;
      dead_skipped = 0;
      compactions = 0;
      rescans = 0;
    }
  };

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
    // sorted, so each row fills in one pass and the best entry falls out
    // of the scan (ascending ids ⇒ ties keep the smaller key, matching
    // the heaps' order). Links to pruned points are dropped: pruned
    // outliers never participate.
    for (PointIndex p = 0; p < n; ++p) {
      if (!alive_[p]) continue;
      const LinkRowSpan row = links.FlatRow(p);
      ParClusterState& s = arena_[p];
      s.row.reserve(row.size);
      for (size_t i = 0; i < row.size; ++i) {
        const PointIndex q = row.partners[i];
        if (!alive_[q]) continue;
        const double g = goodness_.Goodness(row.counts[i], 1, 1);
        s.row.push_back(RowEntry{q, row.counts[i], g});
        if (g > s.best_priority) {
          s.best_priority = g;
          s.best_key = q;
        }
      }
      s.live_links = s.row.size();
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

  /// Recomputes a cluster's best live entry by scanning its row, clearing
  /// its dirty mark. Ascending partner order makes ties resolve toward the
  /// smaller id, matching UpdatableHeap's (priority desc, key asc) order.
  void RecomputeBest(ParClusterState& s, uint64_t* rescans) const {
    ++*rescans;
    s.best_priority = kNoCandidate;
    s.best_key = 0;
    s.dirty = false;
    for (const RowEntry& e : s.row) {
      if (!alive_[e.partner]) continue;
      if (e.goodness > s.best_priority) {
        s.best_priority = e.goodness;
        s.best_key = e.partner;
      }
    }
  }

  /// link[u, v] from u's row. The row stays sorted even with stale entries
  /// (ids are minted monotonically), so this is a binary search.
  uint64_t CountOf(const ParClusterState& s, ClusterId partner) const {
    auto it = std::lower_bound(
        s.row.begin(), s.row.end(), partner,
        [](const RowEntry& e, ClusterId p) { return e.partner < p; });
    assert(it != s.row.end() && it->partner == partner);
    return it->count;
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
      if (arena_[u].dirty) {
        // Lazy cleaning: settle the top's true best and re-evaluate. The
        // stored value was an upper bound, so no cluster whose true best
        // exceeds this one can be hiding below it.
        RecomputeBest(arena_[u], &best_rescans_);
        global_.InsertOrUpdate(u, arena_[u].best_priority);
        heap_ops_ += 1;
        continue;
      }
      const ClusterId v = arena_[u].best_key;
      Merge(u, v, result);
      if (result->stats.num_merges % kSweepInterval == 0) {
        SweepCompact();
      }
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
  static void ReleaseState(ParClusterState& s) { s = ParClusterState{}; }

  /// Drops stale (dead-partner) entries once they dominate the row. The
  /// 2× threshold amortizes to O(1) per append; tiny rows are left alone.
  /// Compaction changes neither the live entries nor their order, so it is
  /// invisible to results — safe inside a shard (the row belongs to the
  /// shard) and inside the periodic sweep (between merges).
  void MaybeCompact(ParClusterState& s, uint64_t* compactions) const {
    if (s.row.size() < 8 || s.row.size() < 2 * s.live_links) {
      return;
    }
    size_t out = 0;
    for (size_t i = 0; i < s.row.size(); ++i) {
      if (!alive_[s.row[i].partner]) continue;
      s.row[out] = s.row[i];
      ++out;
    }
    assert(out == s.live_links);
    s.row.resize(out);
    ++*compactions;
  }

  /// The relink kernel: three-way sorted merge of su.row[iu, eu) and
  /// sv.row[iv, ev) — index ranges covering one partner-id shard (or, for
  /// the serial path, the whole rows). Appends the merged entries to `out`
  /// in ascending partner order, applies the partner-side updates (append,
  /// live_links, best, compaction), and records partners whose best
  /// priority changed into scratch.changed. Only clusters whose id falls
  /// in this shard's range are touched, so concurrent shards never share
  /// a row.
  void RelinkRange(const ParClusterState& su, const ParClusterState& sv,
                   size_t iu, size_t eu, size_t iv, size_t ev, ClusterId w,
                   size_t nw, double t_nw, std::vector<RowEntry>& out,
                   ShardScratch& scratch) {
    const ClusterId u_id = relink_u_;
    const ClusterId v_id = relink_v_;
    const RowEntry* ru = su.row.data();
    const RowEntry* rv = sv.row.data();

    // One partner consumed: goodness in the exact operation order of
    // GoodnessMeasure::Goodness — (T[nx+nw] − T[nx]) − T[nw], then the
    // divide — with T[nw] hoisted (same value, same order).
    const auto emit = [&](ClusterId x, uint64_t count, bool from_both) {
      ParClusterState& sx = arena_[x];
      ++scratch.partners;
      const size_t nx = sx.members.size();
      const double expected =
          (goodness_.ExpectedIntraLinks(nx + nw) -
           goodness_.ExpectedIntraLinks(nx)) -
          t_nw;
      const double g =
          expected <= 0.0 ? 0.0 : static_cast<double>(count) / expected;
      const double old_best = sx.best_priority;
      // x's entries for u/v just died and (w, g) replaces them. The argmax
      // updates in O(1); a dying best marks x dirty (lazy cleaning) with
      // max(old best, g) kept as the upper bound instead of rescanning.
      sx.row.push_back(RowEntry{w, count, g});  // w > every id: stays sorted
      if (from_both) {
        sx.live_links -= 1;  // entries for u and v die, one for w is born
      }
      if (sx.dirty) {
        if (g > sx.best_priority) sx.best_priority = g;  // raise the bound
      } else if (sx.best_key == u_id || sx.best_key == v_id) {
        sx.dirty = true;  // old best ≥ every live entry: still a bound
        if (g > sx.best_priority) sx.best_priority = g;
      } else if (g > sx.best_priority) {
        sx.best_priority = g;
        sx.best_key = w;
      }
      MaybeCompact(sx, &scratch.compactions);
      // The global heap stores (x → stored priority); an unchanged value
      // makes InsertOrUpdate a content no-op, so only real changes queue a
      // fixup. Bitwise compare: goodness values are never NaN.
      if (sx.best_priority != old_best) scratch.changed.push_back(x);

      out.push_back(RowEntry{x, count, g});  // x ascends across iterations
      if (g > scratch.best_priority) {  // ties keep the smaller id
        scratch.best_priority = g;
        scratch.best_key = x;
      }
    };

    while (iu < eu && iv < ev) {
      const ClusterId pu = ru[iu].partner;
      if (!alive_[pu]) {
        ++iu;
        ++scratch.dead_skipped;
        continue;
      }
      const ClusterId pv = rv[iv].partner;
      if (!alive_[pv]) {
        ++iv;
        ++scratch.dead_skipped;
        continue;
      }
      if (pu < pv) {
        emit(pu, ru[iu].count, false);
        ++iu;
      } else if (pv < pu) {
        emit(pv, rv[iv].count, false);
        ++iv;
      } else {
        emit(pu, ru[iu].count + rv[iv].count, true);
        ++iu;
        ++iv;
      }
    }
    for (; iu < eu; ++iu) {
      if (!alive_[ru[iu].partner]) {
        ++scratch.dead_skipped;
        continue;
      }
      emit(ru[iu].partner, ru[iu].count, false);
    }
    for (; iv < ev; ++iv) {
      if (!alive_[rv[iv].partner]) {
        ++scratch.dead_skipped;
        continue;
      }
      emit(rv[iv].partner, rv[iv].count, false);
    }
  }

  /// First row index with partner id >= bound.
  static size_t LowerBound(const std::vector<RowEntry>& row, ClusterId bound) {
    auto it = std::lower_bound(
        row.begin(), row.end(), bound,
        [](const RowEntry& e, ClusterId p) { return e.partner < p; });
    return static_cast<size_t>(it - row.begin());
  }

  void Merge(ClusterId u, ClusterId v, RockResult* result) {
    ParClusterState& su = arena_[u];
    ParClusterState& sv = arena_[v];
    const ClusterId w = next_id_++;
    ParClusterState& sw = arena_[w];  // arena is pre-sized: no reallocation

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
    // every partner row (including each other's), and a compaction that
    // fires mid-relink must not keep them. w is born alive for the same
    // reason — its freshly appended entries must survive compaction.
    alive_[u] = 0;
    alive_[v] = 0;
    alive_[w] = 1;
    relink_u_ = u;
    relink_v_ = v;

    Timer relink_timer;
    const size_t live_total = su.live_links + sv.live_links;
    const double t_nw = goodness_.ExpectedIntraLinks(nw);
    sw.row.reserve(live_total);
    scratch_[0].Reset();

    // Shard only when the pool exists and the relink is big enough to
    // amortize waking it; cap the shard count so every shard owns at least
    // one split index of the longer row.
    size_t num_shards = 1;
    if (pool_ != nullptr && live_total >= options_.merge_shard_min) {
      const size_t longest = std::max(su.row.size(), sv.row.size());
      num_shards = std::min(
          threads_, std::max<size_t>(
                        1, live_total / options_.merge_shard_min + 1));
      num_shards = std::min(num_shards, std::max<size_t>(1, longest));
    }

    if (num_shards <= 1) {
      RelinkRange(su, sv, 0, su.row.size(), 0, sv.row.size(), w, nw, t_nw,
                  sw.row, scratch_[0]);
      FoldScratch(sw, scratch_[0]);
    } else {
      // Partner-id boundaries from evenly spaced indices of the longer
      // row; the ranges partition the id space, so every entry of both
      // rows lands in exactly one shard and shard outputs concatenate in
      // ascending order.
      const std::vector<RowEntry>& longer =
          su.row.size() >= sv.row.size() ? su.row : sv.row;
      shard_bounds_.assign(num_shards + 1, 0);
      shard_bounds_[num_shards] = std::numeric_limits<ClusterId>::max();
      for (size_t s = 1; s < num_shards; ++s) {
        shard_bounds_[s] = longer[(s * longer.size()) / num_shards].partner;
      }
      for (size_t s = 0; s < num_shards; ++s) scratch_[s].Reset();
      pool_->Run(num_shards, [&](size_t s) {
        const ClusterId lo = shard_bounds_[s];
        const ClusterId hi = shard_bounds_[s + 1];
        const size_t bu = s == 0 ? 0 : LowerBound(su.row, lo);
        const size_t eu =
            s + 1 == num_shards ? su.row.size() : LowerBound(su.row, hi);
        const size_t bv = s == 0 ? 0 : LowerBound(sv.row, lo);
        const size_t ev =
            s + 1 == num_shards ? sv.row.size() : LowerBound(sv.row, hi);
        RelinkRange(su, sv, bu, eu, bv, ev, w, nw, t_nw, scratch_[s].out,
                    scratch_[s]);
      });
      // Stitch in shard order: outputs cover ascending disjoint id
      // ranges, and folding bests left-to-right with strict > reproduces
      // the serial ascending scan's tie-breaks exactly.
      for (size_t s = 0; s < num_shards; ++s) {
        sw.row.insert(sw.row.end(), scratch_[s].out.begin(),
                      scratch_[s].out.end());
        FoldScratch(sw, scratch_[s]);
      }
      shards_run_ += num_shards;
      ++parallel_relinks_;
      parallel_relink_seconds_ += relink_timer.ElapsedSeconds();
    }
    sw.live_links = sw.row.size();
    ReleaseState(su);
    ReleaseState(sv);
    --num_live_;  // two die, one is born
    relink_seconds_ += relink_timer.ElapsedSeconds();

    // Deferred global-heap fixups, in ascending partner order (shard
    // concatenation preserves it): only partners whose best actually
    // changed, plus w taking over u's still-present entry in one sift.
    Timer heap_timer;
    size_t fixups = 0;
    for (size_t s = 0; s < (num_shards <= 1 ? size_t{1} : num_shards);
         ++s) {
      for (ClusterId x : scratch_[s].changed) {
        global_.InsertOrUpdate(x, LocalBest(x));
      }
      fixups += scratch_[s].changed.size();
    }
    global_.ReplaceKey(u, w, LocalBest(w));
    heap_ops_ += fixups + 1;
    heap_seconds_ += heap_timer.ElapsedSeconds();
  }

  /// Accumulates one shard's counters and best candidate into the engine
  /// totals and the merged cluster. Called in shard order; strict >
  /// matches the ascending serial scan's tie-breaking.
  void FoldScratch(ParClusterState& sw, const ShardScratch& s) {
    if (s.best_priority > sw.best_priority) {
      sw.best_priority = s.best_priority;
      sw.best_key = s.best_key;
    }
    goodness_updates_ += s.partners;
    relink_partners_ += s.partners;
    relink_dead_skipped_ += s.dead_skipped;
    relink_compactions_ += s.compactions;
    best_rescans_ += s.rescans;
  }

  /// Periodic dead-entry sweep: walks the arena in contiguous chunks (in
  /// parallel when the pool exists — chunk ownership is disjoint) and
  /// compacts rows now dominated by stale entries. Catches rows staled by
  /// weeding, which no relink ever touches again.
  void SweepCompact() {
    ++compact_sweeps_;
    const size_t limit = next_id_;
    const size_t chunks = pool_ == nullptr ? 1 : threads_;
    std::vector<uint64_t> compactions(chunks, 0);
    const auto sweep_chunk = [&](size_t c) {
      const size_t begin = (limit * c) / chunks;
      const size_t end = (limit * (c + 1)) / chunks;
      for (size_t id = begin; id < end; ++id) {
        if (!alive_[id]) continue;
        MaybeCompact(arena_[id], &compactions[c]);
      }
    };
    if (pool_ == nullptr) {
      sweep_chunk(0);
    } else {
      pool_->Run(chunks, sweep_chunk);
    }
    for (uint64_t c : compactions) relink_compactions_ += c;
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
      ParClusterState& sc = arena_[c];
      result->stats.num_weeded_points += sc.members.size();
      for (PointIndex p : sc.members) weeded_points_.push_back(p);
      alive_[c] = 0;  // partners now skip c's stale entries lazily
      for (const RowEntry& e : sc.row) {
        const ClusterId x = e.partner;
        if (!alive_[x]) continue;
        ParClusterState& sx = arena_[x];
        --sx.live_links;
        // Lazy cleaning: losing c only removes candidates, so the stored
        // priority stays a valid upper bound and the heap needs no fixup
        // at all — x is cleaned if and when it surfaces at the top.
        if (!sx.dirty && sx.best_key == c) sx.dirty = true;
      }
      global_.Erase(c);
      heap_ops_ += 1;
      ReleaseState(sc);
      --num_live_;
      ++result->stats.num_weeded_clusters;
    }
  }

  /// Re-derives the merge loop's redundant state from first principles and
  /// reports every disagreement — the same checks (a)–(f) as the flat
  /// engine (membership partition, cross-links, goodness, heaps) over the
  /// interleaved row layout. Debug cadence only, never on by default.
  void VerifyBookkeeping(const LinkMatrix& links) {
    invariant_report_.NoteCheck();
    constexpr ClusterId kNoCluster = std::numeric_limits<ClusterId>::max();

    // (a) Live-cluster census and the monotone merge identity.
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
      const ParClusterState& sc = arena_[c];

      // (c) Row shape: partner ids strictly ascending and live_links equal
      // to the live-entry census.
      size_t live_entries = 0;
      for (size_t i = 0; i < sc.row.size(); ++i) {
        if (i > 0 && sc.row[i].partner <= sc.row[i - 1].partner) {
          invariant_report_.Report(
              "merge.flat_row",
              "cluster " + std::to_string(c) + " partner row not strictly " +
                  "ascending at index " + std::to_string(i));
        }
        if (alive_[sc.row[i].partner]) ++live_entries;
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
      for (const RowEntry& e : sc.row) {
        if (!alive_[e.partner]) continue;
        auto it = expect.find(e.partner);
        if (it == expect.end() || it->second != e.count) {
          invariant_report_.Report(
              "merge.cross_links",
              "link[" + std::to_string(c) + ", " + std::to_string(e.partner) +
                  "] = " + std::to_string(e.count) + " but recount = " +
                  (it == expect.end() ? std::string("missing")
                                      : std::to_string(it->second)));
        }
      }

      // (e) Stored goodness values and the tracked argmax.
      ClusterId expect_best_key = 0;
      double expect_best_priority = kNoCandidate;
      for (const RowEntry& e : sc.row) {
        if (!alive_[e.partner]) continue;
        const double expected_g = goodness_.Goodness(
            e.count, sc.members.size(), arena_[e.partner].members.size());
        if (std::abs(e.goodness - expected_g) >
            1e-9 * (1.0 + std::abs(expected_g))) {
          invariant_report_.Report(
              "merge.goodness",
              "g(" + std::to_string(c) + ", " + std::to_string(e.partner) +
                  ") = " + std::to_string(e.goodness) +
                  " but recompute = " + std::to_string(expected_g));
        }
        if (e.goodness > expect_best_priority) {
          expect_best_priority = e.goodness;
          expect_best_key = e.partner;
        }
      }
      if (sc.dirty) {
        // A dirty cluster promises only an upper bound (lazy cleaning).
        if (sc.best_priority < expect_best_priority) {
          invariant_report_.Report(
              "merge.local_best",
              "dirty cluster " + std::to_string(c) + " stores bound " +
                  std::to_string(sc.best_priority) +
                  " below its true best " +
                  std::to_string(expect_best_priority));
        }
      } else if (sc.best_priority != expect_best_priority ||
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
  const size_t threads_;

  /// Per-run arena: slab per possible cluster id, allocated once. Slots of
  /// dead clusters are released (vectors freed) but never reused.
  std::vector<ParClusterState> arena_;
  std::vector<uint8_t> alive_;             // parallel to arena_
  UpdatableHeap<ClusterId, double> global_;
  std::vector<PointIndex> pruned_;         // sorted by construction
  std::vector<PointIndex> weeded_points_;
  std::unique_ptr<ShardPool> pool_;        // null when threads_ == 1
  std::vector<ShardScratch> scratch_;      // one per shard slot
  std::vector<ClusterId> shard_bounds_;    // scratch, reused across merges
  ClusterId relink_u_ = 0;                 // the pair being merged, for
  ClusterId relink_v_ = 0;                 // best-invalidation checks
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
  uint64_t shards_run_ = 0;
  uint64_t parallel_relinks_ = 0;
  uint64_t compact_sweeps_ = 0;
  double relink_seconds_ = 0.0;
  double parallel_relink_seconds_ = 0.0;
  double heap_seconds_ = 0.0;
};

}  // namespace

RockResult RunParallelMergeEngine(const NeighborGraph& graph,
                                  const RockOptions& options) {
  ParallelMergeEngine engine(graph, options);
  return engine.Run();
}

}  // namespace rock::internal

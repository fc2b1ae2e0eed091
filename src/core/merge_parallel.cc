// librock — core/merge_parallel.cc
//
// The production merge engine (the default; DESIGN.md §12). Same Fig. 3
// algorithm and byte-identical results as the paper-literal hashed
// reference (core/merge_hashed.cc). The greedy merge sequence is serial —
// every merge depends on the heap top the previous one left — so the
// engine is single-threaded; the name `parallel` is kept because the perf
// baselines carry it. Its link phase is the packed link engine
// (graph/link_engine.h) at RockOptions::graph_threads, and the link pass
// seeds the cluster rows directly: the counting pass fills one compact
// upper buffer, and its mirror writes each singleton's row in ascending
// partner order into the arena, tracking the best entry as it goes. No
// point-level link CSR is built on the default path, and when Cluster()
// hands the engine its graph, the neighbor lists are freed before the
// seeding. The per-merge work is laid out for throughput:
//
//   * Interleaved 12-byte rows: each cluster's cross-links live in one
//     vector of RowEntry{partner, count} records — a 32-bit partner and a
//     64-bit count packed at 4-byte alignment — instead of parallel
//     vectors. The per-partner scatter append into an arbitrary cluster's
//     row touches one cache line, and half as many bytes as a record that
//     also caches the goodness — the relink is memory-bound on exactly
//     that scatter.
//   * No cached goodness: the relink computes each fresh entry's goodness
//     once to track bests, and the rare rescans recompute it from the
//     count (EntryGoodness). GoodnessMeasure serves size^{1+2f(θ)} from a
//     lazily grown table, and the merged cluster's own term is hoisted out
//     of the relink loop. The per-partner cost is two table loads, two
//     subtractions and one division, in the exact operation order of
//     GoodnessMeasure::Goodness — bit-identical values.
//   * No point links in the loop: each cluster carries its intra-cluster
//     link total instead (intra(w) = intra(u) + intra(v) + link[u, v]),
//     which is all the §3.3 criterion needs. Only invariant checks build
//     the point-level LinkMatrix (through ComputeLinksPacked): the seeded
//     rows (merge.seed_rows), cross-links, intra totals and the criterion
//     are recounted from it.
//   * Lazy best cleaning: on real data the merging pair (u, v) is each
//     touched neighbor's own best partner almost every time (the pair
//     with globally maximal goodness sits inside a natural cluster, and
//     so do its neighbors), so an eager "rescan when the best dies" fires
//     on ~99% of touches — ~1.6M full row scans on the n=5k basket
//     benchmark, the entire merge-stage bottleneck. Here a cluster
//     whose best died is just marked dirty, keeping max(old best, new
//     goodness) as its stored priority — a provable upper bound on its
//     true best (dead entries only remove candidates; the one new entry
//     is folded in). A dirty cluster is cleaned (one rescan + one heap
//     fixup) only when it surfaces at the heap top. Because no stored
//     priority ever understates a true best, cleaning the top until it
//     is clean pops exactly the cluster an eager engine pops — same
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
//   * Periodic compaction sweep: every kSweepInterval merges the arena is
//     walked and rows dominated by stale entries are compacted — catching
//     rows that went stale through weeding, which the per-touch
//     compaction cannot see.
//
// Metrics beyond the hashed engine's set: merge.compact_sweeps,
// stage.links.seed, mem.graph.bytes, mem.links.upper_bytes and
// mem.merge.arena_peak_bytes (docs/OBSERVABILITY.md).

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "core/criterion.h"
#include "core/merge_engine.h"
#include "diag/invariants.h"
#include "graph/link_engine.h"
#include "util/updatable_heap.h"

namespace rock::internal {

namespace {

/// Internal cluster id. Initial clusters take ids 0 … n−1; every merge mints
/// the next id, so ids never exceed 2n−1.
using ClusterId = uint32_t;

constexpr double kNoCandidate = -std::numeric_limits<double>::infinity();

/// Merges between periodic dead-entry compaction sweeps.
constexpr size_t kSweepInterval = 512;

/// One cross-link record: partner id and link count. The interleaved
/// layout makes the scatter append into a partner's row a single
/// cache-line touch; packing to 4-byte alignment makes it 12 bytes. The
/// count stays 64-bit (Σ links reaches 3.4e9 on the Table 5 sample). Read
/// `count` by value only: a reference to it would be misaligned.
#pragma pack(push, 4)
struct RowEntry {
  ClusterId partner;
  uint64_t count;
};
#pragma pack(pop)
static_assert(sizeof(RowEntry) == 12, "RowEntry must pack to 12 bytes");

/// Bookkeeping for one cluster. `row` is in strictly ascending partner-id
/// order; entries whose partner has died (alive bitmap) are stale and
/// skipped lazily, so only `live_links` of them are meaningful.
/// `best_key`/`best_priority` replace the paper's local heap — except
/// when `dirty` is set, in which case best_priority is only an upper bound
/// on the true best (and best_key is meaningless) until the cluster is
/// cleaned at the heap top. `intra` is Σ link(p, q) over the cluster's
/// unordered member pairs.
struct ParClusterState {
  std::vector<PointIndex> members;  // sorted point ids
  std::vector<RowEntry> row;        // ascending partners; may contain dead
  size_t live_links = 0;            // entries whose partner is alive
  ClusterId best_key = 0;
  bool dirty = false;               // best died; priority is an upper bound
  double best_priority = -std::numeric_limits<double>::infinity();
  uint64_t intra = 0;               // intra-cluster links
};

using HeapEntry = UpdatableHeap<ClusterId, double>::Entry;

class ParallelMergeEngine {
 public:
  explicit ParallelMergeEngine(const RockOptions& options)
      : options_(options), goodness_(options) {}

  /// Clusters `graph`. With `owned` — the same graph, handed over by the
  /// caller — the neighbor lists are freed once the links are counted, so
  /// they are gone before the cluster rows are seeded.
  RockResult Run(const NeighborGraph& graph, NeighborGraph* owned) {
    Timer total_timer;
    RockResult result;
    n_ = graph.size();
    result.stats.num_points = n_;
    result.stats.average_degree = graph.AverageDegree();
    result.stats.max_degree = graph.MaxDegree();

    diag::MetricsRegistry registry;
    metrics_ = options_.diag.collect_metrics ? &registry : nullptr;
    check_every_ =
        diag::InvariantCheckInterval(options_.diag.invariant_check_every);

    PruneIsolatedPoints(graph);
    result.stats.num_pruned_points = pruned_.size();
    InitializeClusters();

    PackedLinkOptions link_options;
    link_options.num_threads = options_.graph_threads;
    link_options.row_chunk = options_.row_chunk;
    // Checked mode only: the point links as a CSR, for the checks to
    // recount from. The default path never builds one.
    LinkMatrix links(0);
    if (check_every_ > 0) {
      diag::CheckNeighborGraph(graph, &invariant_report_);
      links = ComputeLinksPacked(graph, link_options);
      diag::CheckLinkMatrixSymmetry(links, &invariant_report_);
    }

    Timer link_timer;
    {
      link_options.metrics = metrics_;
      UpperLinks upper = CountUpperLinks(graph, link_options);
      if (metrics_ != nullptr) {
        metrics_->AddCounter("graph.points", n_);
        metrics_->AddCounter("graph.edges", graph.NumEdges());
        metrics_->AddCounter("graph.max_degree", graph.MaxDegree());
        metrics_->SetGauge("graph.average_degree", graph.AverageDegree());
        metrics_->AddCounter("mem.graph.bytes", GraphBytes(graph));
        metrics_->AddCounter("prune.isolated_points", pruned_.size());
        metrics_->AddCounter("links.nonzero_pairs", upper.pairs);
        metrics_->AddCounter("links.total", upper.total);
        metrics_->AddCounter("mem.links.upper_bytes", upper.Bytes());
      }
      if (owned != nullptr) *owned = NeighborGraph{};
      diag::ScopedTimer seed_timer(metrics_, "stage.links.seed");
      SeedRows(upper);
    }
    result.stats.link_seconds = link_timer.ElapsedSeconds();
    if (metrics_ != nullptr) {
      metrics_->RecordSeconds("stage.links", result.stats.link_seconds);
    }
    if (check_every_ > 0) CheckSeedRows(links);

    Timer merge_timer;
    BuildHeap();
    if (metrics_ != nullptr) {
      size_t local_entries = 0;
      uint64_t arena_bytes = 0;
      for (ClusterId c = 0; c < next_id_; ++c) {
        if (!alive_[c]) continue;
        local_entries += arena_[c].live_links;
        arena_bytes += SlabBytes(arena_[c]);
      }
      metrics_->MaxCounter("heap.global_peak", global_.size());
      metrics_->MaxCounter("heap.local_entries_peak", local_entries);
      metrics_->MaxCounter("mem.merge.arena_peak_bytes", arena_bytes);
    }
    if (check_every_ > 0) VerifyBookkeeping(links);
    MergeLoop(&result, links);
    if (check_every_ > 0) VerifyBookkeeping(links);
    result.stats.merge_seconds = merge_timer.ElapsedSeconds();

    BuildClustering(&result);
    {
      diag::ScopedTimer criterion_timer(metrics_, "stage.criterion");
      result.stats.criterion_value = CriterionFromIntra(result.clustering);
    }
    if (check_every_ > 0) {
      const double recount =
          CriterionFunction(result.clustering, links, goodness_);
      invariant_report_.NoteCheck();
      if (recount != result.stats.criterion_value) {
        invariant_report_.Report(
            "merge.criterion",
            "criterion from intra totals = " +
                std::to_string(result.stats.criterion_value) +
                " but recount from point links = " +
                std::to_string(recount));
      }
    }
    result.stats.total_seconds = total_timer.ElapsedSeconds();
    if (metrics_ != nullptr) {
      metrics_->RecordSeconds("stage.merge", result.stats.merge_seconds);
      metrics_->RecordSeconds("stage.merge.relink", relink_seconds_);
      metrics_->RecordSeconds("stage.merge.heap", heap_seconds_);
      metrics_->RecordSeconds("stage.total", result.stats.total_seconds);
      metrics_->AddCounter("merge.merges", result.stats.num_merges);
      // Every relinked partner gets exactly one fresh goodness value.
      metrics_->AddCounter("merge.goodness_updates", relink_partners_);
      metrics_->AddCounter("merge.relink_partners", relink_partners_);
      metrics_->AddCounter("merge.relink_dead_skipped", relink_dead_skipped_);
      metrics_->AddCounter("merge.relink_compactions", relink_compactions_);
      metrics_->AddCounter("merge.relink_best_rescans", best_rescans_);
      metrics_->AddCounter("merge.compact_sweeps", compact_sweeps_);
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
  void PruneIsolatedPoints(const NeighborGraph& graph) {
    for (size_t p = 0; p < n_; ++p) {
      if (graph.Degree(p) < options_.min_neighbors) {
        pruned_.push_back(static_cast<PointIndex>(p));
      }
    }
  }

  bool IsPruned(PointIndex p) const {
    return std::binary_search(pruned_.begin(), pruned_.end(), p);
  }

  /// Heap bytes of the neighbor lists: one vector header per point plus
  /// each list's capacity.
  static uint64_t GraphBytes(const NeighborGraph& graph) {
    uint64_t bytes =
        graph.nbrlist.capacity() * sizeof(std::vector<PointIndex>);
    for (const auto& nbrs : graph.nbrlist) {
      bytes += nbrs.capacity() * sizeof(PointIndex);
    }
    return bytes;
  }

  /// Heap bytes one cluster's slab holds: row and member capacity. The
  /// arena peak (mem.merge.arena_peak_bytes) sums it over live clusters at
  /// init and in each SweepCompact — never per relink — so it is sampled
  /// every kSweepInterval merges.
  static uint64_t SlabBytes(const ParClusterState& s) {
    return s.row.capacity() * sizeof(RowEntry) +
           s.members.capacity() * sizeof(PointIndex);
  }

  /// One singleton cluster per unpruned point; the rows are seeded next.
  void InitializeClusters() {
    arena_.resize(2 * n_);  // ids 0 … 2n−1 suffice for n−1 merges
    alive_.assign(2 * n_, 0);
    for (PointIndex p = 0; p < n_; ++p) {
      if (IsPruned(p)) continue;
      arena_[p].members.push_back(p);
      alive_[p] = 1;
      ++num_live_;
    }
    next_id_ = static_cast<ClusterId>(n_);
  }

  /// Seeds the cross-link rows straight from the upper link buffer: the
  /// mirror hands each row its partners in ascending order, so each row
  /// fills in one pass, sized exactly, and the best entry falls out of the
  /// scan (ascending ids ⇒ ties keep the smaller key, matching the heaps'
  /// order). Links to pruned points are dropped: pruned outliers never
  /// participate. Each row is written by one mirror worker only.
  void SeedRows(const UpperLinks& upper) {
    // Every seeded entry is Goodness(count, 1, 1); hoisting its one
    // denominator keeps the same operations, so the same bits, and leaves
    // the workers no shared state to read.
    const double expected = goodness_.ExpectedCrossLinks(1, 1);
    MirrorUpperLinks(
        upper, options_.graph_threads,
        [&](const std::vector<uint32_t>& sizes) {
          for (PointIndex p = 0; p < n_; ++p) {
            if (alive_[p]) arena_[p].row.reserve(sizes[p]);
          }
        },
        [&](size_t p, PointIndex q, LinkCount count) {
          if (!alive_[p] || !alive_[q]) return;
          ParClusterState& s = arena_[p];
          s.row.push_back(RowEntry{q, count});
          const double g =
              expected <= 0.0 ? 0.0 : static_cast<double>(count) / expected;
          if (g > s.best_priority) {
            s.best_priority = g;
            s.best_key = q;
          }
        });
  }

  /// Checked mode: every seeded row equals the reference matrix's row
  /// without its pruned partners — same partners, same order, same counts.
  void CheckSeedRows(const LinkMatrix& links) {
    invariant_report_.NoteCheck();
    for (PointIndex p = 0; p < n_; ++p) {
      std::vector<RowEntry> want;
      if (alive_[p]) {
        const LinkRowSpan row = links.FlatRow(p);
        for (size_t i = 0; i < row.size; ++i) {
          if (alive_[row.partners[i]]) {
            want.push_back(RowEntry{row.partners[i], row.counts[i]});
          }
        }
      }
      const std::vector<RowEntry>& got = arena_[p].row;
      const auto same = [](const RowEntry& a, const RowEntry& b) {
        return a.partner == b.partner && a.count == b.count;
      };
      if (!std::equal(got.begin(), got.end(), want.begin(), want.end(),
                      same)) {
        invariant_report_.Report(
            "merge.seed_rows",
            "point " + std::to_string(p) + " seeded " +
                std::to_string(got.size()) + " entries that differ from " +
                "its " + std::to_string(want.size()) + " reference links");
      }
    }
  }

  /// One O(n) heapify instead of n sifted inserts; keys are unique and the
  /// resulting heap content is identical.
  void BuildHeap() {
    std::vector<HeapEntry> entries;
    entries.reserve(num_live_);
    for (PointIndex p = 0; p < n_; ++p) {
      if (!alive_[p]) continue;
      arena_[p].live_links = arena_[p].row.size();
      entries.push_back(HeapEntry{p, LocalBest(p)});
    }
    global_.Assign(std::move(entries));
    heap_ops_ += global_.size();
  }

  double LocalBest(ClusterId c) const { return arena_[c].best_priority; }

  /// The goodness of the entry between live clusters a and b, bit-identical
  /// to the value the relink computed when the entry was born:
  ///   * a live cluster's size never changes (a merge mints a new id);
  ///   * emit builds every entry between x < w as
  ///     (T[nx+nw] − T[nx]) − T[nw], the older id's size first, which is
  ///     Goodness(count, nx, nw) operation for operation;
  ///   * initial entries are Goodness(c, 1, 1), symmetric in the sizes.
  /// So passing the older id's size first reproduces the stored bits. The
  /// other order can differ in the last place (FP subtraction does not
  /// reassociate), which could reorder goodness ties.
  double EntryGoodness(ClusterId a, ClusterId b, uint64_t count) const {
    const ClusterId older = std::min(a, b);
    const ClusterId newer = std::max(a, b);
    return goodness_.Goodness(count, arena_[older].members.size(),
                              arena_[newer].members.size());
  }

  /// Recomputes cluster c's best live entry by scanning its row, clearing
  /// its dirty mark. Ascending partner order makes ties resolve toward the
  /// smaller id, matching UpdatableHeap's (priority desc, key asc) order.
  void RecomputeBest(ClusterId c) {
    ++best_rescans_;
    ParClusterState& s = arena_[c];
    s.best_priority = kNoCandidate;
    s.best_key = 0;
    s.dirty = false;
    for (const RowEntry& e : s.row) {
      if (!alive_[e.partner]) continue;
      const double g = EntryGoodness(c, e.partner, e.count);
      if (g > s.best_priority) {
        s.best_priority = g;
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
        RecomputeBest(u);
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
  /// invisible to results — safe mid-relink and in the periodic sweep.
  void MaybeCompact(ParClusterState& s) {
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
    ++relink_compactions_;
  }

  /// The relink kernel: three-way sorted merge of u's and v's rows into
  /// w's. Appends the merged entries to sw.row in ascending partner order
  /// and tracks w's best, applies the partner-side updates (append,
  /// live_links, best, compaction), and records partners whose stored
  /// priority changed into changed_ for the heap fixups.
  void Relink(ClusterId u, ClusterId v, ClusterId w, ParClusterState& sw) {
    // Raw bounds: the emit below appends to other rows, so the compiler
    // could not otherwise keep u's and v's row pointers and sizes in
    // registers across iterations.
    const RowEntry* ru = arena_[u].row.data();
    const RowEntry* rv = arena_[v].row.data();
    const size_t eu = arena_[u].row.size();
    const size_t ev = arena_[v].row.size();
    const size_t nw = sw.members.size();
    const double t_nw = goodness_.ExpectedIntraLinks(nw);

    // One partner consumed: goodness in the exact operation order of
    // GoodnessMeasure::Goodness — (T[nx+nw] − T[nx]) − T[nw], then the
    // divide — with T[nw] hoisted (same value, same order).
    const auto emit = [&](ClusterId x, uint64_t count, bool from_both) {
      ParClusterState& sx = arena_[x];
      ++relink_partners_;
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
      sx.row.push_back(RowEntry{w, count});  // w > every id: stays sorted
      if (from_both) {
        sx.live_links -= 1;  // entries for u and v die, one for w is born
      }
      if (sx.dirty) {
        if (g > sx.best_priority) sx.best_priority = g;  // raise the bound
      } else if (sx.best_key == u || sx.best_key == v) {
        sx.dirty = true;  // old best ≥ every live entry: still a bound
        if (g > sx.best_priority) sx.best_priority = g;
      } else if (g > sx.best_priority) {
        sx.best_priority = g;
        sx.best_key = w;
      }
      MaybeCompact(sx);
      // The global heap stores (x → stored priority); an unchanged value
      // makes InsertOrUpdate a content no-op, so only real changes queue a
      // fixup. Bitwise compare: goodness values are never NaN.
      if (sx.best_priority != old_best) changed_.push_back(x);

      sw.row.push_back(RowEntry{x, count});  // x ascends across iterations
      if (g > sw.best_priority) {  // ties keep the smaller id
        sw.best_priority = g;
        sw.best_key = x;
      }
    };

    size_t iu = 0;
    size_t iv = 0;
    while (iu < eu && iv < ev) {
      const ClusterId pu = ru[iu].partner;
      if (!alive_[pu]) {
        ++iu;
        ++relink_dead_skipped_;
        continue;
      }
      const ClusterId pv = rv[iv].partner;
      if (!alive_[pv]) {
        ++iv;
        ++relink_dead_skipped_;
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
        ++relink_dead_skipped_;
        continue;
      }
      emit(ru[iu].partner, ru[iu].count, false);
    }
    for (; iv < ev; ++iv) {
      if (!alive_[rv[iv].partner]) {
        ++relink_dead_skipped_;
        continue;
      }
      emit(rv[iv].partner, rv[iv].count, false);
    }
  }

  void Merge(ClusterId u, ClusterId v, RockResult* result) {
    ParClusterState& su = arena_[u];
    ParClusterState& sv = arena_[v];
    const ClusterId w = next_id_++;
    ParClusterState& sw = arena_[w];  // arena is pre-sized: no reallocation

    sw.members.resize(su.members.size() + sv.members.size());
    std::merge(su.members.begin(), su.members.end(), sv.members.begin(),
               sv.members.end(), sw.members.begin());

    const uint64_t link_uv = CountOf(su, v);
    sw.intra = su.intra + sv.intra + link_uv;
    result->merges.push_back(MergeRecord{
        u, v, w,
        goodness_.Goodness(link_uv, su.members.size(), sv.members.size()),
        sw.members.size()});
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

    Timer relink_timer;
    sw.row.reserve(su.live_links + sv.live_links);
    changed_.clear();
    Relink(u, v, w, sw);
    sw.live_links = sw.row.size();
    ReleaseState(su);
    ReleaseState(sv);
    --num_live_;  // two die, one is born
    relink_seconds_ += relink_timer.ElapsedSeconds();

    // Deferred global-heap fixups, in ascending partner order: only
    // partners whose stored priority actually changed, plus w taking over
    // u's still-present entry in one sift.
    Timer heap_timer;
    for (ClusterId x : changed_) {
      global_.InsertOrUpdate(x, LocalBest(x));
    }
    global_.ReplaceKey(u, w, LocalBest(w));
    heap_ops_ += changed_.size() + 1;
    heap_seconds_ += heap_timer.ElapsedSeconds();
  }

  /// Periodic dead-entry sweep: compacts every live row now dominated by
  /// stale entries. Catches rows staled by weeding, which no relink ever
  /// touches again.
  void SweepCompact() {
    ++compact_sweeps_;
    uint64_t arena_bytes = 0;
    for (ClusterId id = 0; id < next_id_; ++id) {
      if (!alive_[id]) continue;
      MaybeCompact(arena_[id]);
      arena_bytes += SlabBytes(arena_[id]);  // compaction keeps capacity
    }
    diag::MaxCounter(metrics_, "mem.merge.arena_peak_bytes", arena_bytes);
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
  /// reports every disagreement: (a) the live census, (b) the membership
  /// partition, (c) row shape, (d) cross-links and intra-cluster link
  /// totals, (e) the tracked best, (f) the global heap. Debug cadence
  /// only, never on by default.
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
    std::vector<ClusterId> cluster_of(n_, kNoCluster);
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
    for (size_t p = 0; p < n_; ++p) {
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

      // (d) Cross-links and the intra total against a fresh recount from
      // the point links.
      std::unordered_map<ClusterId, uint64_t> expect;
      uint64_t expect_intra = 0;
      for (PointIndex p : sc.members) {
        const LinkRowSpan row = links.FlatRow(p);
        for (size_t i = 0; i < row.size; ++i) {
          const ClusterId other = cluster_of[row.partners[i]];
          if (other == c) {
            if (row.partners[i] > p) expect_intra += row.counts[i];
          } else if (other != kNoCluster) {
            expect[other] += row.counts[i];
          }
        }
      }
      if (expect_intra != sc.intra) {
        invariant_report_.Report(
            "merge.intra_links",
            "cluster " + std::to_string(c) + " tracks " +
                std::to_string(sc.intra) + " intra links but recount = " +
                std::to_string(expect_intra));
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

      // (e) The tracked argmax against a full rescan.
      ClusterId expect_best_key = 0;
      double expect_best_priority = kNoCandidate;
      for (const RowEntry& e : sc.row) {
        if (!alive_[e.partner]) continue;
        const double g = EntryGoodness(c, e.partner, e.count);
        if (g > expect_best_priority) {
          expect_best_priority = g;
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

  /// E_l (§3.3) from the live clusters' intra totals: the same sum, in the
  /// same cluster order and with the same double operations as
  /// CriterionFunction. The totals are exact integers, so the value is
  /// bit-identical to the recount from point links.
  double CriterionFromIntra(const Clustering& clustering) const {
    std::vector<uint64_t> intra(clustering.clusters.size(), 0);
    for (ClusterId c = 0; c < next_id_; ++c) {
      if (!alive_[c]) continue;
      const ClusterIndex index =
          clustering.assignment[arena_[c].members.front()];
      intra[static_cast<size_t>(index)] = arena_[c].intra;
    }
    double total = 0.0;
    for (size_t c = 0; c < clustering.clusters.size(); ++c) {
      const auto& members = clustering.clusters[c];
      if (members.empty()) continue;
      const double n = static_cast<double>(members.size());
      const double sum = static_cast<double>(intra[c]);
      total += n * sum / goodness_.ExpectedIntraLinks(members.size());
    }
    return total;
  }

  void BuildClustering(RockResult* result) {
    std::vector<ClusterIndex> assignment(n_, kUnassigned);
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
  size_t n_ = 0;  // points

  /// Per-run arena: slab per possible cluster id, allocated once. Slots of
  /// dead clusters are released (vectors freed) but never reused.
  std::vector<ParClusterState> arena_;
  std::vector<uint8_t> alive_;             // parallel to arena_
  UpdatableHeap<ClusterId, double> global_;
  std::vector<PointIndex> pruned_;         // sorted by construction
  std::vector<PointIndex> weeded_points_;
  std::vector<ClusterId> changed_;         // heap fixups, reused per merge
  size_t num_live_ = 0;
  ClusterId next_id_ = 0;

  diag::MetricsRegistry* metrics_ = nullptr;  // null → metrics disabled
  diag::InvariantReport invariant_report_;
  size_t check_every_ = 0;  // 0 → invariant checks disabled
  uint64_t relink_partners_ = 0;
  uint64_t relink_dead_skipped_ = 0;
  uint64_t relink_compactions_ = 0;
  uint64_t best_rescans_ = 0;
  uint64_t heap_ops_ = 0;
  uint64_t compact_sweeps_ = 0;
  double relink_seconds_ = 0.0;
  double heap_seconds_ = 0.0;
};

}  // namespace

RockResult RunParallelMergeEngine(const NeighborGraph& graph,
                                  const RockOptions& options) {
  return ParallelMergeEngine(options).Run(graph, nullptr);
}

RockResult RunParallelMergeEngine(NeighborGraph&& graph,
                                  const RockOptions& options) {
  return ParallelMergeEngine(options).Run(graph, &graph);
}

}  // namespace rock::internal

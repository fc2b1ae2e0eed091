// librock — core/labeling.h
//
// Labeling phase (paper §4.6, "Labeling Data on Disk"): after clustering the
// in-memory sample, every remaining point p on disk is assigned to the
// cluster i maximizing its normalized neighbor count
//
//     score_i(p) = N_i(p) / (|L_i| + 1)^{f(θ)}
//
// where L_i is a fraction of cluster i's sampled points kept for labeling
// and N_i(p) = |{ q ∈ L_i : sim(p, q) >= θ }|. Points with zero neighbors in
// every labeling set are outliers.

#ifndef ROCK_CORE_LABELING_H_
#define ROCK_CORE_LABELING_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/cluster.h"
#include "core/options.h"
#include "data/dataset.h"
#include "data/disk_store.h"
#include "similarity/jaccard.h"
#include "util/retry.h"

namespace rock {

namespace diag {
class MetricsRegistry;
}  // namespace diag

/// Options for building a TransactionLabeler.
struct LabelingOptions {
  /// Fraction of each cluster's sampled points kept in L_i (0 < f <= 1).
  double fraction = 0.25;
  /// Floor on |L_i| so tiny clusters still label (capped at cluster size).
  size_t min_labeling_points = 8;
  /// Seed for the per-cluster subset draw.
  uint64_t seed = 42;
};

/// Assigns market-basket transactions to the clusters discovered on a
/// sample, per paper §4.6.
class TransactionLabeler {
 public:
  /// Builds labeling sets L_i from `sample` and its `clustering`.
  /// `rock_options` supplies θ and f(θ). Copies the selected transactions,
  /// so the sample dataset may be discarded afterwards.
  static Result<TransactionLabeler> Build(const TransactionDataset& sample,
                                          const Clustering& clustering,
                                          const RockOptions& rock_options,
                                          const LabelingOptions& options);

  /// Per-thread reusable workspace for Assign: the bit-sliced counter
  /// planes and, for a row whose |T| lies past the labeler's cached
  /// threshold table, that row's threshold planes. Assign leaves the
  /// counters zeroed, so nothing is cleared between calls; one Scratch may
  /// serve labelers of different shapes (it is resized on a shape change).
  /// Giving each labeling worker its own Scratch makes Assign
  /// allocation-free (after warm-up) and thread-safe.
  struct Scratch {
    std::vector<uint64_t> counters;    ///< B planes per word, interleaved
    std::vector<uint64_t> thresholds;  ///< B planes + valid mask per word
  };

  /// Pruning counters accumulated by Assign. Summed per shard and merged in
  /// shard order by LabelStore, so totals are deterministic.
  struct AssignStats {
    /// Clusters skipped because no labeling point shares an item with the
    /// transaction.
    uint64_t clusters_pruned = 0;
    /// Clusters with at least one item-sharing labeling point.
    uint64_t clusters_scored = 0;
    /// Item-sharing labeling points ruled out by the Jaccard length bound
    /// min(|T|,|q|)/max(|T|,|q|) < θ (no neighbor threshold exists).
    uint64_t points_skipped_length = 0;
    /// Item-sharing labeling points whose exact intersection count was
    /// tested against their neighbor threshold (one exact Jaccard test
    /// each; every point at θ = 0).
    uint64_t similarities_computed = 0;

    /// Adds `other`'s counts into this.
    void Merge(const AssignStats& other);
  };

  /// Everything one §4.6 assignment decides: the winning cluster plus the
  /// evidence behind it. `neighbors` is N_i(p) for the winning cluster i
  /// (0 for outliers) and `score` the winning N_i(p)/(|L_i|+1)^f(θ) —
  /// the per-row goodness the drift detector (eval/drift.h) profiles.
  struct AssignOutcome {
    ClusterIndex cluster = kUnassigned;
    uint32_t neighbors = 0;
    double score = 0.0;
  };

  /// Cluster index for `tx`, or kUnassigned when tx has no neighbor in any
  /// labeling set.
  ClusterIndex Assign(const Transaction& tx) const;

  /// As above, with an optional reusable `scratch` (nullptr = internal
  /// temporary) and optional pruning-counter accumulation into `stats`.
  /// Bit-sliced kernel: ripple-adds the labeling column of each item of
  /// `tx` into B counter planes, so every labeling point q holds the exact
  /// |T ∩ q|; compares those counters with the precomputed threshold
  /// planes m(|T|, |q|) (NeighborThreshold in similarity/jaccard.h); and
  /// popcounts each cluster's word range into N_i. A point is a neighbor
  /// exactly when |T ∩ q| >= m, which is the same
  /// `double(|∩|)/double(|∪|) >= θ` test JaccardSimilarity makes, so the
  /// result is bit-identical to AssignUnpruned for every input.
  ClusterIndex Assign(const Transaction& tx, Scratch* scratch,
                      AssignStats* stats) const;

  /// The same decision as Assign (identical code path, bit-identical
  /// winner), additionally reporting the winning cluster's neighbor count
  /// and score. This is the entry point the streaming layer uses so every
  /// incremental label doubles as a drift observation.
  AssignOutcome AssignDetailed(const Transaction& tx, Scratch* scratch,
                               AssignStats* stats) const;

  /// Reference implementation: brute-force Jaccard against every labeling
  /// point of every cluster, exactly the pre-index engine. Kept as the
  /// oracle for the differential tests and the labeling benchmarks.
  ClusterIndex AssignUnpruned(const Transaction& tx) const;

  /// Number of clusters the labeler can assign to.
  size_t num_clusters() const { return sets_.size(); }

  /// Size of labeling set L_i.
  size_t labeling_set_size(size_t i) const { return sets_[i].size(); }

  /// Reassembles a labeler from already-validated parts: θ, the
  /// normalization exponent f(θ), and the labeling sets L_i. Recomputes the
  /// normalizers and the inverted index, so a labeler round-tripped through
  /// the model bundle (core/model_bundle.h, its one persisted form) assigns
  /// bit-identically to the original. Rejects non-finite or out-of-range
  /// parameters with the same NaN-safe gate LoadModelBundle applies.
  static Result<TransactionLabeler> FromParts(
      double theta, double f_exponent,
      std::vector<std::vector<Transaction>> sets);

  /// Neighbor threshold θ the labeler was built with.
  double theta() const { return theta_; }
  /// Normalization exponent f(θ).
  double f_exponent() const { return f_exponent_; }
  /// Labeling set L_i (for serialization; treat as read-only).
  const std::vector<Transaction>& labeling_set(size_t i) const {
    return sets_[i];
  }

 private:
  TransactionLabeler(double theta, double exponent)
      : theta_(theta), f_exponent_(exponent) {}

  /// Builds the bit-sliced kernel layout from sets_ (called by Build and
  /// FromParts).
  void BuildIndex();

  /// Column of labeling item `item`, or kNoColumn when no labeling point
  /// holds it.
  uint32_t FindColumn(ItemId item) const;

  /// Writes the threshold planes for a size-t transaction into `out`
  /// (words_ × (planes_ + 1) words, interleaved per word).
  void FillThresholds(uint64_t t, uint64_t* out) const;

  /// One word of a sparse bit column over the flattened labeling points.
  struct WordBits {
    uint64_t bits;
    uint32_t word;
  };
  static constexpr uint32_t kNoColumn = UINT32_MAX;

  double theta_;
  double f_exponent_;  // f(θ), the normalization exponent
  std::vector<std::vector<Transaction>> sets_;  // L_i per cluster
  std::vector<double> normalizers_;             // (|L_i|+1)^{f(θ)}
  /// Kernel layout. Labeling points are flattened in cluster order, each
  /// cluster starting on a fresh 64-bit word: cluster c owns words
  /// [cluster_word_[c], cluster_word_[c + 1]).
  std::vector<uint32_t> cluster_word_;
  size_t words_ = 0;   ///< W, words per plane
  size_t planes_ = 0;  ///< B = bit_width(max |q|), counter planes
  /// Distinct labeling items: open-addressing table (slot → column) keyed
  /// by item id, so memory follows the distinct items, never an id value.
  std::vector<uint32_t> item_slots_;
  unsigned slot_shift_ = 64;
  std::vector<ItemId> column_item_;     ///< column → item id
  std::vector<uint32_t> column_begin_;  ///< column → first pair (CSR)
  std::vector<WordBits> column_bits_;   ///< nonzero words of each column
  /// Points grouped by distinct nonzero size |q|, as sparse bit masks.
  std::vector<uint64_t> size_value_;
  std::vector<uint32_t> size_begin_;
  std::vector<WordBits> size_bits_;
  /// Threshold planes for 1 <= |T| <= table_max_t_ (capped in bytes);
  /// rows with table_max_t_ < |T| <= max_t_ fill theirs in Scratch, rows
  /// past max_t_ have no neighbor.
  std::vector<uint64_t> threshold_table_;
  uint64_t table_max_t_ = 0;
  uint64_t max_t_ = 0;
};

/// Result of labeling one on-disk store.
struct LabelingRunResult {
  /// Cluster per store row (kUnassigned = outlier). Size = store count.
  std::vector<ClusterIndex> assignments;
  /// Ground-truth label ids carried by the store (kNoLabel where absent).
  std::vector<LabelId> ground_truth;
  size_t num_outliers = 0;
  /// Pruning counters summed over all shards (deterministic).
  TransactionLabeler::AssignStats stats;
  /// Wall time of the scan itself (excludes labeler construction).
  double seconds = 0.0;
  /// Worker threads and store shards the scan actually used.
  size_t threads_used = 1;
  size_t shards = 1;
  /// Shards restored from LabelStoreOptions::resume instead of scanned.
  size_t shards_skipped = 0;
  /// Transient-I/O retry accounting for the whole scan (retry.* metrics).
  RetryStats retry_stats;
};

/// Everything LabelStore reports about one finished shard, handed to
/// LabelStoreOptions::on_shard_complete so callers can checkpoint. The row
/// spans point at the shard's slice of the (still shared) result arrays —
/// the shard's rows are final once the callback runs, and LabelStore
/// serializes callback invocations, so reading them is race-free.
struct LabelShardCompletion {
  size_t shard = 0;              ///< index into the shard plan
  StoreShardRange range;         ///< rows this shard covered
  const ClusterIndex* assignments = nullptr;  ///< [range.num_rows]
  const LabelId* ground_truth = nullptr;      ///< [range.num_rows]
  TransactionLabeler::AssignStats stats;      ///< this shard's counters
  uint64_t outliers = 0;         ///< kUnassigned rows in this shard
};

/// Prior labeling progress for a resumed scan (from a pipeline checkpoint,
/// core/checkpoint.h). All vectors are borrowed and must outlive the
/// LabelStore call. `shard_done`, `shard_stats` and `shard_outliers` have
/// one entry per planned shard; `assignments`/`ground_truth` cover the
/// whole store and are only read for rows of completed shards.
struct LabelResumeState {
  uint64_t num_shards = 0;  ///< shard plan size the progress refers to
  const std::vector<uint8_t>* shard_done = nullptr;
  const std::vector<ClusterIndex>* assignments = nullptr;
  const std::vector<LabelId>* ground_truth = nullptr;
  const std::vector<TransactionLabeler::AssignStats>* shard_stats = nullptr;
  const std::vector<uint64_t>* shard_outliers = nullptr;
};

/// Controls for the sharded labeling scan.
struct LabelStoreOptions {
  /// Worker threads: 1 = serial scan, 0 = hardware concurrency.
  /// Assignments are bit-identical across all thread counts — shards are
  /// per-row-disjoint and merged in store order.
  size_t num_threads = 1;
  /// When non-null, the scan records label.* counters/gauges here (wall
  /// time, transactions/sec, candidate-prune hit rate; see
  /// docs/OBSERVABILITY.md).
  diag::MetricsRegistry* metrics = nullptr;
  /// Overrides the shard plan size (0 = derive from num_threads). Set by
  /// callers that persist per-shard progress so a resumed run replans the
  /// exact same shard boundaries regardless of its thread count.
  uint64_t num_shards = 0;
  /// Transient-I/O retry schedule for shard scans (docs/ROBUSTNESS.md).
  /// A shard whose reader fails with IOError is reopened and rescanned
  /// from its start; results stay bit-identical because shard rows are
  /// rewritten in place and per-shard counters reset per attempt.
  RetryPolicy retry;
  /// Injectable sleeper for the retry backoff (tests; nullptr = real).
  RetrySleeper retry_sleeper = nullptr;
  /// When set, called once per freshly scanned shard, right after its rows
  /// are final. Calls are serialized (a mutex) but can come from any
  /// worker, in any shard order. A non-OK return aborts the scan — that is
  /// how an injected checkpoint crash stops a run mid-flight.
  std::function<Status(const LabelShardCompletion&)> on_shard_complete;
  /// When non-null, shards marked done are restored instead of scanned.
  const LabelResumeState* resume = nullptr;
};

/// Labels every transaction of `store_path`. The store is split into
/// near-equal row ranges (StoreShardRange) claimed dynamically by
/// `options.num_threads` workers; each worker streams its ranges with a
/// range-scoped reader and writes assignments directly into the row slots
/// of the shared result, so the merged output is bit-identical to a serial
/// scan in store order.
Result<LabelingRunResult> LabelStore(const std::string& store_path,
                                     const TransactionLabeler& labeler,
                                     const LabelStoreOptions& options);

/// Serial convenience overload (num_threads = 1, no metrics).
Result<LabelingRunResult> LabelStore(const std::string& store_path,
                                     const TransactionLabeler& labeler);

}  // namespace rock

#endif  // ROCK_CORE_LABELING_H_

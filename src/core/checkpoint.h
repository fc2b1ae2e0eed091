// librock — core/checkpoint.h
//
// Crash-safe persistence of pipeline progress (docs/ROBUSTNESS.md). The
// labeling phase is the only stage that touches the whole database, so a
// pipeline checkpoint freezes everything cheaper than that scan — the
// sampled rows, the sample clustering, the pinned shard plan — plus the
// per-shard labeling progress, letting `rock pipeline --resume` skip both
// the re-clustering and every shard that already finished.
//
// The file is one frame of the shared framing (util/bytes.h): magic
// "ROCKCKPT", version 1, payload size and payload crc32. Load() rejects
// wrong magic/version, truncated or oversized files, and checksum
// mismatches as Corruption — a torn or bit-rotted checkpoint is detected
// and discarded (the pipeline then restarts cleanly), never resumed into
// wrong labels.
//
// Writes are atomic-by-rename through the same framing. The
// "pipeline.checkpoint" failpoint site models the two crash shapes tests
// need: `torn_write` leaves a truncated file at the *final* path (a
// non-atomic filesystem), `crash` leaves only the tmp file (death between
// write and rename).
//
// This header also holds the payload codecs the model bundle
// (core/model_bundle.h) shares with the checkpoint: the fingerprint, the
// length-prefixed transaction list, and the table of count caps that both
// savers and loaders enforce.

#ifndef ROCK_CORE_CHECKPOINT_H_
#define ROCK_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/cluster.h"
#include "core/labeling.h"
#include "core/rock.h"
#include "data/transaction.h"
#include "util/bytes.h"

namespace rock {

/// Identity of the run a checkpoint belongs to. A resumed run recomputes
/// its own fingerprint and must match the stored one exactly — resuming
/// with a different store, θ, k, seed or sampling setup would silently mix
/// two different clusterings. (The link-expectation function f(θ) is code,
/// not data, and cannot be fingerprinted; resume assumes it is unchanged.)
struct CheckpointFingerprint {
  uint64_t store_count = 0;         ///< rows in the transaction store
  double theta = 0.0;               ///< RockOptions::theta
  uint64_t num_clusters = 0;        ///< RockOptions::num_clusters (k)
  uint64_t min_neighbors = 0;       ///< RockOptions::min_neighbors
  double outlier_stop_multiple = 0.0;
  uint64_t min_cluster_support = 0;
  uint64_t sample_size = 0;         ///< effective (clamped) sample size
  uint64_t sample_seed = 0;         ///< PipelineOptions::seed
  double labeling_fraction = 0.0;   ///< LabelingOptions::fraction
  uint64_t min_labeling_points = 0; ///< LabelingOptions::min_labeling_points
  uint64_t labeling_seed = 0;       ///< LabelingOptions::seed

  bool operator==(const CheckpointFingerprint&) const = default;
};

/// Everything a resumed pipeline needs: the run fingerprint, the sample
/// phase outputs (rows, transactions, clustering, merge history, stats),
/// and the labeling progress over a pinned shard plan. The clustering's
/// member lists are serialized verbatim — TransactionLabeler::Build's RNG
/// draws index into them, so rebuilding them from the assignment vector
/// would change the labeling sets.
struct PipelineCheckpoint {
  CheckpointFingerprint fingerprint;

  // Sample phase (store order).
  std::vector<uint64_t> sample_rows;
  std::vector<Transaction> sample;
  Clustering clustering;
  std::vector<MergeRecord> merges;
  RockStats stats;

  // Labeling progress. `num_shards` pins the shard plan so a resumed run
  // replans identical boundaries at any thread count; the per-shard
  // vectors have one entry per planned shard, and `assignments` /
  // `ground_truth` cover every store row (only completed shards' rows are
  // meaningful).
  uint64_t num_shards = 0;
  std::vector<uint8_t> shard_done;
  std::vector<TransactionLabeler::AssignStats> shard_stats;
  std::vector<uint64_t> shard_outliers;
  std::vector<ClusterIndex> assignments;
  std::vector<LabelId> ground_truth;
};

/// Caps on the counts the checkpoint and model-bundle payloads serialize.
/// A save over any cap is InvalidArgument and writes nothing; a load over
/// one is Corruption, so a corrupt length field never turns into an
/// allocation and a saver never writes a file its loader refuses.
struct PersistCaps {
  static constexpr uint64_t kRows = 1ull << 40;         ///< store rows
  static constexpr uint64_t kItems = 1u << 24;          ///< per transaction
  static constexpr uint64_t kTransactions = 1u << 28;   ///< per list
  static constexpr uint64_t kClusters = 1u << 24;       ///< model clusters
  static constexpr uint64_t kDictEntries = 1u << 24;    ///< dictionary size
  static constexpr uint64_t kNameLength = 1u << 16;     ///< dictionary name
};

/// Save-side cap check: InvalidArgument naming `what` when `n > cap`.
Status CheckPersistCap(uint64_t n, uint64_t cap, const char* what);

/// The 11 fingerprint fields, in declaration order.
void WriteFingerprint(ByteWriter& w, const CheckpointFingerprint& fp);
Status ReadFingerprint(ByteReader& r, CheckpointFingerprint* fp);

/// A length-prefixed transaction list: u64 count, then per transaction
/// u32 n and n × u32 item ids. The writer enforces PersistCaps::kTransactions
/// and kItems (InvalidArgument); the reader enforces the same caps and the
/// remaining payload size (Corruption, its text prefixed by `noun`).
Status WriteTransactionList(ByteWriter& w, const std::vector<Transaction>& txs);
Status ReadTransactionList(ByteReader& r, const char* noun,
                           std::vector<Transaction>* txs);

/// Atomically writes `checkpoint` to `path` (tmp + rename). Consults the
/// "pipeline.checkpoint" failpoint site; see the header comment for the
/// torn_write / crash shapes it injects. A count over PersistCaps is
/// InvalidArgument and writes nothing.
Status SaveCheckpoint(const PipelineCheckpoint& checkpoint,
                      const std::string& path);

/// Reads and validates a checkpoint. Missing file → IOError; wrong magic,
/// wrong version, truncation, trailing bytes, checksum mismatch, or any
/// implausible payload field → Corruption. Consults "checkpoint.load".
Result<PipelineCheckpoint> LoadCheckpoint(const std::string& path);

}  // namespace rock

#endif  // ROCK_CORE_CHECKPOINT_H_

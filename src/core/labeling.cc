#include "core/labeling.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <mutex>
#include <utility>

#include "common/timer.h"
#include "diag/metrics.h"
#include "util/thread_pool.h"

namespace rock {

Result<TransactionLabeler> TransactionLabeler::Build(
    const TransactionDataset& sample, const Clustering& clustering,
    const RockOptions& rock_options, const LabelingOptions& options) {
  ROCK_RETURN_IF_ERROR(rock_options.Validate());
  if (!(options.fraction > 0.0 && options.fraction <= 1.0)) {
    return Status::InvalidArgument("labeling fraction must be in (0, 1]");
  }
  if (clustering.assignment.size() != sample.size()) {
    return Status::InvalidArgument(
        "clustering does not cover the sample dataset");
  }

  TransactionLabeler labeler(rock_options.theta,
                             rock_options.f(rock_options.theta));
  labeler.sets_.resize(clustering.num_clusters());
  labeler.normalizers_.resize(clustering.num_clusters());

  Rng rng(options.seed);
  for (size_t c = 0; c < clustering.num_clusters(); ++c) {
    const auto& members = clustering.clusters[c];
    size_t want = static_cast<size_t>(std::ceil(
        options.fraction * static_cast<double>(members.size())));
    want = std::max(want, options.min_labeling_points);
    want = std::min(want, members.size());
    std::vector<size_t> picked =
        rng.SampleWithoutReplacement(members.size(), want);
    auto& set = labeler.sets_[c];
    set.reserve(want);
    for (size_t idx : picked) {
      set.push_back(sample.transaction(members[idx]));
    }
    labeler.normalizers_[c] =
        std::pow(static_cast<double>(set.size()) + 1.0, labeler.f_exponent_);
  }
  labeler.BuildIndex();
  return labeler;
}

Result<TransactionLabeler> TransactionLabeler::FromParts(
    double theta, double f_exponent,
    std::vector<std::vector<Transaction>> sets) {
  // NaN-safe range checks, the same gate LoadModelBundle applies.
  if (!(theta >= 0.0 && theta <= 1.0) || !(f_exponent >= 0.0)) {
    return Status::InvalidArgument("implausible labeler parameters");
  }
  TransactionLabeler labeler(theta, f_exponent);
  labeler.sets_ = std::move(sets);
  labeler.normalizers_.resize(labeler.sets_.size());
  for (size_t c = 0; c < labeler.sets_.size(); ++c) {
    labeler.normalizers_[c] = std::pow(
        static_cast<double>(labeler.sets_[c].size()) + 1.0, f_exponent);
  }
  labeler.BuildIndex();
  return labeler;
}

namespace {

/// Byte cap on the labeler's precomputed per-|T| threshold planes.
constexpr size_t kThresholdTableBytes = size_t{1} << 20;

/// Groups (key, bit position) pairs by key into sparse per-key bit columns:
/// keys[k] and pairs [begin[k], begin[k+1]) of `bits`, one pair per
/// nonzero 64-bit word. `pairs` is sorted in place.
template <typename Key, typename WordBits>
void BuildColumns(std::vector<std::pair<Key, uint32_t>>* pairs,
                  std::vector<Key>* keys, std::vector<uint32_t>* begin,
                  std::vector<WordBits>* bits) {
  std::sort(pairs->begin(), pairs->end());
  keys->clear();
  begin->clear();
  bits->clear();
  for (const auto& [key, pos] : *pairs) {
    const uint32_t word = pos / 64;
    const uint64_t bit = uint64_t{1} << (pos % 64);
    if (keys->empty() || keys->back() != key) {
      keys->push_back(key);
      begin->push_back(static_cast<uint32_t>(bits->size()));
    } else if (bits->back().word == word) {
      bits->back().bits |= bit;
      continue;
    }
    bits->push_back(WordBits{bit, word});
  }
  begin->push_back(static_cast<uint32_t>(bits->size()));
}

/// What one cluster's word range holds after a row's ripple-adds.
struct RangeTally {
  uint32_t neighbors = 0;  ///< points with |T ∩ q| >= m(|T|, |q|)
  uint32_t sharing = 0;    ///< points sharing an item (nonzero counter)
  uint32_t tested = 0;     ///< sharing points that have a threshold
};

/// Compares the counter planes of words [begin, end) with their threshold
/// planes (B planes + valid mask per word, MSB first) and zeroes the
/// counters so the next row starts clean.
[[gnu::always_inline]] inline RangeTally TallyRangeBody(
    uint64_t* counters, const uint64_t* thresholds, size_t planes,
    size_t begin, size_t end) {
  RangeTally tally;
  for (size_t w = begin; w < end; ++w) {
    uint64_t* ctr = counters + w * planes;
    const uint64_t* m = thresholds + w * (planes + 1);
    uint64_t nonzero = 0;
    uint64_t greater = 0;
    uint64_t equal = ~uint64_t{0};
    for (size_t b = planes; b-- > 0;) {
      const uint64_t count = ctr[b];
      ctr[b] = 0;
      nonzero |= count;
      greater |= equal & count & ~m[b];
      equal &= ~(count ^ m[b]);
    }
    const uint64_t valid = m[planes];
    tally.neighbors +=
        static_cast<uint32_t>(std::popcount((greater | equal) & valid));
    tally.sharing += static_cast<uint32_t>(std::popcount(nonzero));
    tally.tested += static_cast<uint32_t>(std::popcount(nonzero & valid));
  }
  return tally;
}

using TallyRangeFn = RangeTally (*)(uint64_t*, const uint64_t*, size_t,
                                    size_t, size_t);

RangeTally TallyRangePortable(uint64_t* counters, const uint64_t* thresholds,
                              size_t planes, size_t begin, size_t end) {
  return TallyRangeBody(counters, thresholds, planes, begin, end);
}

#if defined(__x86_64__) || defined(__i386__)
// The same body with the popcnt instruction; without it every popcount
// is a library call, which costs more than the rest of the tally.
__attribute__((target("popcnt"))) RangeTally TallyRangePopcnt(
    uint64_t* counters, const uint64_t* thresholds, size_t planes,
    size_t begin, size_t end) {
  return TallyRangeBody(counters, thresholds, planes, begin, end);
}
#endif

TallyRangeFn ResolveTallyRange() {
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("popcnt")) return &TallyRangePopcnt;
#endif
  return &TallyRangePortable;
}

const TallyRangeFn g_tally_range = ResolveTallyRange();

}  // namespace

void TransactionLabeler::BuildIndex() {
  // Flatten L in cluster order, each cluster from a fresh word, and record
  // every (item, point) and (|q|, point) posting by bit position.
  cluster_word_.assign(1, 0);
  std::vector<std::pair<ItemId, uint32_t>> item_points;
  std::vector<std::pair<uint64_t, uint32_t>> size_points;
  uint64_t max_q = 0;
  for (const auto& set : sets_) {
    const uint32_t base = cluster_word_.back() * 64;
    for (size_t j = 0; j < set.size(); ++j) {
      const Transaction& q = set[j];
      const uint32_t pos = base + static_cast<uint32_t>(j);
      for (ItemId item : q) item_points.emplace_back(item, pos);
      if (!q.empty()) size_points.emplace_back(q.size(), pos);
      max_q = std::max<uint64_t>(max_q, q.size());
    }
    cluster_word_.push_back(cluster_word_.back() +
                            static_cast<uint32_t>((set.size() + 63) / 64));
  }
  words_ = cluster_word_.back();
  planes_ = static_cast<size_t>(std::bit_width(max_q));
  BuildColumns(&item_points, &column_item_, &column_begin_, &column_bits_);
  BuildColumns(&size_points, &size_value_, &size_begin_, &size_bits_);

  // Open addressing at load ≤ 1/2 over the distinct items.
  const size_t slots =
      std::bit_ceil(std::max<size_t>(2, 2 * column_item_.size()));
  slot_shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
  item_slots_.assign(slots, kNoColumn);
  for (uint32_t col = 0; col < column_item_.size(); ++col) {
    size_t h = (column_item_[col] * 0x9E3779B97F4A7C15ull) >> slot_shift_;
    while (item_slots_[h] != kNoColumn) h = (h + 1) & (slots - 1);
    item_slots_[h] = col;
  }

  // Rows with |T| > max_t_ fail the length bound against every point:
  // min/max = |q|/|T| only falls as |T| grows, and the largest |q| falls
  // last. Past 2^40 the exact double test is not needed (no transaction is
  // that long), so the cut is left open there.
  max_t_ = 0;
  if (max_q > 0 && theta_ > 0.0) {
    const auto keeps = [&](uint64_t t) {
      return static_cast<double>(max_q) / static_cast<double>(t) >= theta_;
    };
    const double guess = static_cast<double>(max_q) / theta_;
    if (guess >= 0x1p40) {
      max_t_ = UINT64_MAX;
    } else {
      max_t_ = std::max<uint64_t>(max_q, static_cast<uint64_t>(guess));
      while (keeps(max_t_ + 1)) ++max_t_;
      while (!keeps(max_t_)) --max_t_;
    }
  }
  const size_t per_t = words_ * (planes_ + 1);
  table_max_t_ = per_t == 0 ? 0
                             : std::min<uint64_t>(
                                   max_t_, kThresholdTableBytes /
                                               (per_t * sizeof(uint64_t)));
  threshold_table_.assign(table_max_t_ * per_t, 0);
  for (uint64_t t = 1; t <= table_max_t_; ++t) {
    FillThresholds(t, threshold_table_.data() + (t - 1) * per_t);
  }
}

inline uint32_t TransactionLabeler::FindColumn(ItemId item) const {
  const size_t mask = item_slots_.size() - 1;
  size_t h = (item * 0x9E3779B97F4A7C15ull) >> slot_shift_;
  for (;; h = (h + 1) & mask) {
    const uint32_t col = item_slots_[h];
    if (col == kNoColumn || column_item_[col] == item) return col;
  }
}

void TransactionLabeler::FillThresholds(uint64_t t, uint64_t* out) const {
  const size_t stride = planes_ + 1;
  std::fill(out, out + words_ * stride, uint64_t{0});
  for (size_t s = 0; s < size_value_.size(); ++s) {
    const uint64_t m = NeighborThreshold(theta_, t, size_value_[s]);
    if (m == 0) continue;  // the length bound rules this size out
    for (uint32_t k = size_begin_[s]; k < size_begin_[s + 1]; ++k) {
      uint64_t* w = out + size_bits_[k].word * stride;
      const uint64_t bits = size_bits_[k].bits;
      w[planes_] |= bits;  // valid mask
      for (size_t b = 0; b < planes_; ++b) {
        if ((m >> b) & 1) w[b] |= bits;
      }
    }
  }
}

void TransactionLabeler::AssignStats::Merge(const AssignStats& other) {
  clusters_pruned += other.clusters_pruned;
  clusters_scored += other.clusters_scored;
  points_skipped_length += other.points_skipped_length;
  similarities_computed += other.similarities_computed;
}

ClusterIndex TransactionLabeler::Assign(const Transaction& tx) const {
  return Assign(tx, nullptr, nullptr);
}

ClusterIndex TransactionLabeler::AssignUnpruned(const Transaction& tx) const {
  ClusterIndex best = kUnassigned;
  double best_score = 0.0;
  for (size_t c = 0; c < sets_.size(); ++c) {
    size_t neighbors = 0;
    for (const Transaction& q : sets_[c]) {
      if (JaccardSimilarity(tx, q) >= theta_) ++neighbors;
    }
    if (neighbors == 0) continue;
    const double score =
        static_cast<double>(neighbors) / normalizers_[c];
    if (score > best_score) {
      best_score = score;
      best = static_cast<ClusterIndex>(c);
    }
  }
  return best;
}

ClusterIndex TransactionLabeler::Assign(const Transaction& tx,
                                        Scratch* scratch,
                                        AssignStats* stats) const {
  return AssignDetailed(tx, scratch, stats).cluster;
}

TransactionLabeler::AssignOutcome TransactionLabeler::AssignDetailed(
    const Transaction& tx, Scratch* scratch, AssignStats* stats) const {
  const size_t num_clusters = sets_.size();
  AssignOutcome best;

  // θ = 0 accepts every pair (Jaccard ≥ 0 always holds), so neither filter
  // can prune anything; run the full scan.
  if (theta_ <= 0.0) {
    for (size_t c = 0; c < num_clusters; ++c) {
      size_t neighbors = 0;
      for (const Transaction& q : sets_[c]) {
        if (stats != nullptr) ++stats->similarities_computed;
        if (JaccardSimilarity(tx, q) >= theta_) ++neighbors;
      }
      if (stats != nullptr) ++stats->clusters_scored;
      if (neighbors == 0) continue;
      const double score = static_cast<double>(neighbors) / normalizers_[c];
      if (score > best.score) {
        best.score = score;
        best.neighbors = static_cast<uint32_t>(neighbors);
        best.cluster = static_cast<ClusterIndex>(c);
      }
    }
    return best;
  }

  // Bit-sliced D·Lᵀ: word w of plane b holds bit b of |T ∩ q| for the 64
  // labeling points of word w. Points sharing no item with T keep a zero
  // counter and have Jaccard 0 — for θ > 0 they can't be neighbors.
  const uint64_t t = tx.size();
  if (t == 0 || (t > max_t_ && stats == nullptr)) {
    // An empty row shares no item with any cluster, and past max_t_ no
    // point passes the length bound; only AssignStats needs that scan.
    if (stats != nullptr) stats->clusters_pruned += num_clusters;
    return best;
  }
  Scratch local;
  if (scratch == nullptr) scratch = &local;
  const size_t planes = planes_;
  const size_t stride = planes + 1;
  if (scratch->counters.size() != words_ * planes) {
    scratch->counters.assign(words_ * planes, 0);
  }
  const uint64_t* thresholds;
  if (t <= table_max_t_) {
    thresholds = threshold_table_.data() + (t - 1) * words_ * stride;
  } else {
    scratch->thresholds.resize(words_ * stride);
    FillThresholds(t, scratch->thresholds.data());
    thresholds = scratch->thresholds.data();
  }

  uint64_t* counters = scratch->counters.data();
  for (ItemId item : tx) {
    const uint32_t col = FindColumn(item);
    if (col == kNoColumn) continue;
    for (uint32_t k = column_begin_[col]; k < column_begin_[col + 1]; ++k) {
      uint64_t* ctr = counters + column_bits_[k].word * planes;
      uint64_t carry = column_bits_[k].bits;
      // Counters never exceed max |q| < 2^B, so the carry dies in time.
      for (size_t b = 0; carry != 0; ++b) {
        const uint64_t next = ctr[b] & carry;
        ctr[b] ^= carry;
        carry = next;
      }
    }
  }

  // Per cluster: compare, popcount and re-zero its word range. The stats
  // split the item-sharing points (nonzero counters) by whether a
  // threshold exists for them.
  for (size_t c = 0; c < num_clusters; ++c) {
    const RangeTally tally = g_tally_range(
        counters, thresholds, planes, cluster_word_[c], cluster_word_[c + 1]);
    if (stats != nullptr) {
      ++(tally.sharing > 0 ? stats->clusters_scored : stats->clusters_pruned);
      stats->similarities_computed += tally.tested;
      stats->points_skipped_length += tally.sharing - tally.tested;
    }
    if (tally.neighbors == 0) continue;
    const double score =
        static_cast<double>(tally.neighbors) / normalizers_[c];
    if (score > best.score) {
      best.score = score;
      best.neighbors = tally.neighbors;
      best.cluster = static_cast<ClusterIndex>(c);
    }
  }
  return best;
}

Result<LabelingRunResult> LabelStore(const std::string& store_path,
                                     const TransactionLabeler& labeler,
                                     const LabelStoreOptions& options) {
  Timer timer;
  const size_t threads = ResolveThreads(options.num_threads);

  LabelingRunResult out;
  out.threads_used = threads;

  // The header open and the shard plan both touch the store file, so both
  // ride the transient-retry schedule (their failpoint site is
  // "store.open").
  Timer plan_timer;
  uint64_t total = 0;
  ROCK_RETURN_IF_ERROR(RetryTransient(
      options.retry,
      [&]() -> Status {
        auto header = TransactionStoreReader::Open(store_path);
        ROCK_RETURN_IF_ERROR(header.status());
        total = header->count();
        return Status::OK();
      },
      &out.retry_stats, options.retry_sleeper));
  out.assignments.assign(total, kUnassigned);
  out.ground_truth.assign(total, kNoLabel);

  std::vector<StoreShardRange> shards;
  if (total > 0) {
    // More shards than workers (4×) lets the dynamic claim loop rebalance
    // when transaction sizes are skewed across the file. A caller that
    // persists per-shard progress pins the plan size instead, so a resumed
    // run replans the exact same boundaries at any thread count.
    uint64_t want = options.num_shards;
    if (options.resume != nullptr && options.resume->num_shards > 0) {
      want = options.resume->num_shards;
    }
    if (want == 0) {
      want = threads <= 1
                 ? 1
                 : std::min<uint64_t>(total,
                                      static_cast<uint64_t>(threads) * 4);
    }
    ROCK_RETURN_IF_ERROR(RetryTransient(
        options.retry,
        [&]() -> Status {
          auto planned = TransactionStoreReader::PlanShards(store_path, want);
          ROCK_RETURN_IF_ERROR(planned.status());
          shards = std::move(*planned);
          return Status::OK();
        },
        &out.retry_stats, options.retry_sleeper));
  }
  out.shards = shards.size();
  const double plan_seconds = plan_timer.ElapsedSeconds();

  // Restore completed shards from the resume state: their rows, counters
  // and outlier counts are copied verbatim and the claim loop skips them,
  // so a resumed run only pays for the shards the interrupted run missed.
  std::vector<uint8_t> skip(shards.size(), 0);
  std::vector<TransactionLabeler::AssignStats> shard_stats(shards.size());
  std::vector<uint64_t> shard_outliers(shards.size(), 0);
  if (options.resume != nullptr) {
    const LabelResumeState& resume = *options.resume;
    if (resume.num_shards != static_cast<uint64_t>(shards.size()) ||
        resume.shard_done == nullptr ||
        resume.shard_done->size() != shards.size() ||
        resume.assignments == nullptr ||
        resume.assignments->size() != total ||
        resume.ground_truth == nullptr ||
        resume.ground_truth->size() != total ||
        resume.shard_stats == nullptr ||
        resume.shard_stats->size() != shards.size() ||
        resume.shard_outliers == nullptr ||
        resume.shard_outliers->size() != shards.size()) {
      return Status::InvalidArgument(
          "labeling resume state does not match the store's shard plan");
    }
    for (size_t s = 0; s < shards.size(); ++s) {
      if (!(*resume.shard_done)[s]) continue;
      skip[s] = 1;
      const StoreShardRange& range = shards[s];
      for (uint64_t row = range.first_row;
           row < range.first_row + range.num_rows; ++row) {
        out.assignments[row] = (*resume.assignments)[row];
        out.ground_truth[row] = (*resume.ground_truth)[row];
      }
      shard_stats[s] = (*resume.shard_stats)[s];
      shard_outliers[s] = (*resume.shard_outliers)[s];
      ++out.shards_skipped;
    }
  }

  // Workers claim shards from a shared counter and write each row's
  // assignment straight into its slot — rows are disjoint across shards,
  // so the merged result is bit-identical to a serial in-order scan. A
  // shard attempt that fails with a transient IOError is retried from its
  // start with its counters reset, which keeps retries invisible in the
  // output: rows are rewritten in place with identical values.
  std::vector<Status> shard_status(shards.size(), Status::OK());
  const size_t num_workers = shards.size() <= 1 ? 1 : threads;
  std::vector<RetryStats> worker_retry(num_workers);
  // Per-shard scan seconds and per-worker busy seconds: each slot has one
  // writer, and the registry only sees them after the join.
  std::vector<double> shard_seconds(shards.size(), 0.0);
  std::vector<double> worker_busy(num_workers, 0.0);
  std::atomic<size_t> next{0};
  std::atomic<bool> abort{false};
  std::mutex completion_mutex;
  ParallelInvoke(num_workers, [&](size_t worker) {
    TransactionLabeler::Scratch scratch;
    while (!abort.load(std::memory_order_acquire)) {
      const size_t s = next.fetch_add(1);
      if (s >= shards.size()) break;
      if (skip[s]) continue;
      const StoreShardRange& range = shards[s];
      Timer shard_timer;
      Status attempt = RetryTransient(
          options.retry,
          [&]() -> Status {
            shard_stats[s] = TransactionLabeler::AssignStats{};
            shard_outliers[s] = 0;
            auto reader = TransactionStoreReader::OpenRange(store_path, range);
            ROCK_RETURN_IF_ERROR(reader.status());
            uint64_t row = range.first_row;
            while (reader->Next()) {
              const ClusterIndex c = labeler.Assign(reader->transaction(),
                                                    &scratch, &shard_stats[s]);
              out.assignments[row] = c;
              out.ground_truth[row] = reader->label();
              if (c == kUnassigned) ++shard_outliers[s];
              ++row;
            }
            ROCK_RETURN_IF_ERROR(reader->status());
            if (row != range.first_row + range.num_rows) {
              return Status::Corruption(
                  "store shard ended early (file truncated or changed "
                  "underfoot)");
            }
            return Status::OK();
          },
          &worker_retry[worker], options.retry_sleeper);
      shard_seconds[s] = shard_timer.ElapsedSeconds();
      worker_busy[worker] += shard_seconds[s];
      if (!attempt.ok()) {
        shard_status[s] = std::move(attempt);
        continue;
      }
      if (options.on_shard_complete) {
        // Serialized so checkpoint writers never interleave; the shard's
        // rows are final here, making the callback's reads race-free.
        LabelShardCompletion done;
        done.shard = s;
        done.range = range;
        done.assignments = out.assignments.data() + range.first_row;
        done.ground_truth = out.ground_truth.data() + range.first_row;
        done.stats = shard_stats[s];
        done.outliers = shard_outliers[s];
        std::lock_guard<std::mutex> lock(completion_mutex);
        Status cb = options.on_shard_complete(done);
        if (!cb.ok()) {
          shard_status[s] = std::move(cb);
          abort.store(true, std::memory_order_release);
        }
      }
    }
  });
  for (const RetryStats& w : worker_retry) out.retry_stats.Merge(w);

  // First failing shard (in store order) wins, deterministically.
  for (const Status& s : shard_status) {
    ROCK_RETURN_IF_ERROR(s);
  }
  for (size_t s = 0; s < shards.size(); ++s) {
    out.stats.Merge(shard_stats[s]);
    out.num_outliers += static_cast<size_t>(shard_outliers[s]);
  }
  out.seconds = timer.ElapsedSeconds();

  if (options.metrics != nullptr) {
    diag::MetricsRegistry* m = options.metrics;
    m->RecordSeconds("stage.label_scan", out.seconds);
    m->RecordSeconds("stage.label.plan", plan_seconds);
    for (size_t s = 0; s < shards.size(); ++s) {
      if (!skip[s]) m->RecordSeconds("stage.label.shard", shard_seconds[s]);
    }
    m->SetGauge("label.worker_busy_max_s",
                *std::max_element(worker_busy.begin(), worker_busy.end()));
    m->SetGauge("label.worker_busy_min_s",
                *std::min_element(worker_busy.begin(), worker_busy.end()));
    m->AddCounter("label.threads", out.threads_used);
    m->AddCounter("label.shards", out.shards);
    m->AddCounter("label.shards_skipped", out.shards_skipped);
    m->AddCounter("retry.attempts", out.retry_stats.attempts);
    m->AddCounter("retry.retries", out.retry_stats.retries);
    m->AddCounter("retry.exhausted", out.retry_stats.exhausted);
    m->SetGauge("retry.backoff_ms", out.retry_stats.backoff_ms);
    m->AddCounter("label.clusters_scored", out.stats.clusters_scored);
    m->AddCounter("label.clusters_pruned", out.stats.clusters_pruned);
    m->AddCounter("label.points_skipped_length",
                  out.stats.points_skipped_length);
    m->AddCounter("label.similarities_computed",
                  out.stats.similarities_computed);
    const uint64_t candidates =
        out.stats.clusters_scored + out.stats.clusters_pruned;
    m->SetGauge("label.prune_hit_rate",
                candidates == 0
                    ? 0.0
                    : static_cast<double>(out.stats.clusters_pruned) /
                          static_cast<double>(candidates));
    m->SetGauge("label.transactions_per_sec",
                out.seconds > 0.0
                    ? static_cast<double>(total) / out.seconds
                    : 0.0);
  }
  return out;
}

Result<LabelingRunResult> LabelStore(const std::string& store_path,
                                     const TransactionLabeler& labeler) {
  return LabelStore(store_path, labeler, LabelStoreOptions{});
}

}  // namespace rock

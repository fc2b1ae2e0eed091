#include "core/pipeline.h"

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <utility>
#include <vector>

#include <cerrno>

#include "common/timer.h"
#include "core/checkpoint.h"
#include "core/sampling.h"
#include "diag/metrics.h"
#include "util/failpoint.h"
#include "util/thread_pool.h"

namespace rock {

namespace {

/// The identity the checkpoint of this run must carry (core/checkpoint.h).
CheckpointFingerprint MakeFingerprint(uint64_t store_count,
                                      uint64_t effective_sample,
                                      const PipelineOptions& options) {
  CheckpointFingerprint fp;
  fp.store_count = store_count;
  fp.theta = options.rock.theta;
  fp.num_clusters = options.rock.num_clusters;
  fp.min_neighbors = options.rock.min_neighbors;
  fp.outlier_stop_multiple = options.rock.outlier_stop_multiple;
  fp.min_cluster_support = options.rock.min_cluster_support;
  fp.sample_size = effective_sample;
  fp.sample_seed = options.seed;
  fp.labeling_fraction = options.labeling.fraction;
  fp.min_labeling_points = options.labeling.min_labeling_points;
  fp.labeling_seed = options.labeling.seed;
  return fp;
}

/// Store row count, retried — the open consults the "store.open" site.
/// It clamps the sample and keys the checkpoint/model fingerprint.
Result<uint64_t> CountStoreRows(const std::string& store_path,
                                const RetryPolicy& retry,
                                RetrySleeper sleeper,
                                RetryStats* retry_stats) {
  uint64_t store_count = 0;
  ROCK_RETURN_IF_ERROR(RetryTransient(
      retry,
      [&]() -> Status {
        auto reader = TransactionStoreReader::Open(store_path);
        ROCK_RETURN_IF_ERROR(reader.status());
        store_count = reader->count();
        return Status::OK();
      },
      retry_stats, sleeper));
  return store_count;
}

/// The sample phase RunRockPipeline and BuildModel start from, restored
/// from a checkpoint or computed fresh by StartRun.
struct SamplePhase {
  uint64_t store_count = 0;
  /// The run's fingerprint and sample phase (rows and transactions in
  /// store order, clustering, merges, stats). When `resumed`, also the
  /// labeling progress of the checkpoint it was restored from.
  PipelineCheckpoint cp;
  bool resumed = false;
  TransactionDataset sample;  ///< cp.sample as a dataset
  RockResult sample_result;   ///< clustering, merges and stats of the sample
  double sample_seconds = 0.0;
  double cluster_seconds = 0.0;
};

/// Draws the sample with one streaming reservoir pass and clusters it,
/// filling `phase`. Both halves must draw and cluster through this exact
/// code path — a served model diverging by even one RNG call would break
/// the serve ≡ pipeline bit-identity the differential tests enforce.
Status SampleAndCluster(const std::string& store_path,
                        const PipelineOptions& options,
                        uint64_t effective_sample, RetryStats* retry_stats,
                        SamplePhase* phase) {
  PipelineCheckpoint& cp = phase->cp;
  // Pass 1: streaming reservoir sample of the store. Retried as a unit —
  // the RNG and reservoir reset every attempt, so a retry after a
  // transient mid-stream error draws exactly the sample an undisturbed
  // pass would.
  Timer sample_timer;
  ROCK_RETURN_IF_ERROR(RetryTransient(
      options.retry,
      [&]() -> Status {
        cp.sample.clear();
        cp.sample_rows.clear();
        Rng rng(options.seed);
        auto reader = TransactionStoreReader::Open(store_path);
        ROCK_RETURN_IF_ERROR(reader.status());
        ReservoirSampler<Transaction> sampler(
            static_cast<size_t>(effective_sample), &rng);
        while (reader->Next()) sampler.Offer(reader->transaction());
        ROCK_RETURN_IF_ERROR(reader->status());
        // Keep sample rows in store order so results are stable and
        // reportable.
        std::vector<size_t> order(sampler.sample().size());
        std::iota(order.begin(), order.end(), size_t{0});
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
          return sampler.sample_indices()[a] < sampler.sample_indices()[b];
        });
        cp.sample.reserve(order.size());
        cp.sample_rows.reserve(order.size());
        for (size_t idx : order) {
          cp.sample.push_back(sampler.sample()[idx]);
          cp.sample_rows.push_back(sampler.sample_indices()[idx]);
        }
        return Status::OK();
      },
      retry_stats, options.retry_sleeper));
  for (const Transaction& tx : cp.sample) phase->sample.AddTransaction(tx);
  phase->sample_seconds = sample_timer.ElapsedSeconds();

  // Cluster the sample.
  Timer cluster_timer;
  TransactionJaccard sim(phase->sample);
  RockClusterer clusterer(options.rock);
  auto rock_result = clusterer.Cluster(sim);
  ROCK_RETURN_IF_ERROR(rock_result.status());
  phase->sample_result = std::move(*rock_result);
  phase->cluster_seconds = cluster_timer.ElapsedSeconds();
  cp.clustering = phase->sample_result.clustering;
  cp.merges = phase->sample_result.merges;
  cp.stats = phase->sample_result.stats;
  return Status::OK();
}

/// The prologue shared by RunRockPipeline and BuildModel:
///   1. validate the options and configure failpoints;
///   2. check that resume has a checkpoint path;
///   3. count the store rows, clamp the sample and build the fingerprint;
///   4. on resume, load the checkpoint and classify the result;
///   5. restore the sample phase, or run SampleAndCluster.
/// Anything wrong with the checkpoint — missing, torn, bit-rotted, or
/// written by a different run — falls back to a clean fresh start,
/// recorded as checkpoint.missing / invalid / mismatch; only an injected
/// crash (simulated process death in the fault tests) propagates.
Result<SamplePhase> StartRun(const std::string& store_path,
                             const PipelineOptions& options,
                             const char* empty_store_message,
                             diag::MetricsRegistry* m,
                             RetryStats* retry_stats) {
  ROCK_RETURN_IF_ERROR(options.rock.Validate());
  if (options.sample_size == 0) {
    return Status::InvalidArgument("sample_size must be > 0");
  }
  if (!options.rock.failpoints.empty()) {
    ROCK_RETURN_IF_ERROR(fail::Configure(options.rock.failpoints));
  }
  if (options.resume && options.checkpoint_path.empty()) {
    return Status::InvalidArgument(
        "resume requires a checkpoint_path to resume from");
  }

  SamplePhase phase;
  Result<uint64_t> count_or = CountStoreRows(
      store_path, options.retry, options.retry_sleeper, retry_stats);
  if (!count_or.ok()) return count_or.status();
  phase.store_count = *count_or;
  if (phase.store_count == 0) {
    return Status::InvalidArgument(empty_store_message);
  }
  // A sample larger than the store degenerates to "cluster everything":
  // clamp instead of failing, and record that we did.
  const uint64_t effective_sample =
      std::min<uint64_t>(options.sample_size, phase.store_count);
  if (effective_sample < options.sample_size) {
    diag::AddCounter(m, "sample.clamped", 1);
  }
  PipelineCheckpoint& cp = phase.cp;
  cp.fingerprint =
      MakeFingerprint(phase.store_count, effective_sample, options);

  if (options.resume) {
    auto loaded = LoadCheckpoint(options.checkpoint_path);
    if (loaded.ok()) {
      if (loaded->fingerprint == cp.fingerprint) {
        cp = std::move(*loaded);
        phase.resumed = true;
      } else {
        diag::AddCounter(m, "checkpoint.mismatch", 1);
      }
    } else if (fail::IsInjectedCrash(loaded.status())) {
      return loaded.status();
    } else if (loaded.status().IsCorruption()) {
      diag::AddCounter(m, "checkpoint.invalid", 1);
    } else if (loaded.status().IsIOError() || loaded.status().IsNotFound()) {
      diag::AddCounter(m, "checkpoint.missing", 1);
    } else {
      return loaded.status();
    }
  }

  if (!phase.resumed) {
    ROCK_RETURN_IF_ERROR(SampleAndCluster(store_path, options,
                                          effective_sample, retry_stats,
                                          &phase));
    return phase;
  }
  // Sample phase restored verbatim: the clustering's member lists feed
  // TransactionLabeler::Build's RNG draws, so reusing them bit-for-bit
  // keeps the resumed labels identical to an uninterrupted run.
  for (const Transaction& tx : cp.sample) phase.sample.AddTransaction(tx);
  phase.sample_result.clustering = cp.clustering;
  phase.sample_result.merges = cp.merges;
  phase.sample_result.stats = cp.stats;
  return phase;
}

/// Blank labeling progress over a `num_shards`-shard plan. BuildModel runs
/// no scan and writes 0 shards; the row arrays still cover the store so the
/// checkpoint passes LoadCheckpoint's cross-field check.
void ResetLabelProgress(uint64_t num_shards, uint64_t store_count,
                        PipelineCheckpoint* cp) {
  cp->num_shards = num_shards;
  cp->shard_done.assign(static_cast<size_t>(num_shards), 0);
  cp->shard_stats.assign(static_cast<size_t>(num_shards),
                         TransactionLabeler::AssignStats{});
  cp->shard_outliers.assign(static_cast<size_t>(num_shards), 0);
  cp->assignments.assign(static_cast<size_t>(store_count), kUnassigned);
  cp->ground_truth.assign(static_cast<size_t>(store_count), kNoLabel);
}

/// Saves `cp` to the run's checkpoint path under the retry schedule.
Status PersistCheckpoint(const PipelineCheckpoint& cp,
                         const PipelineOptions& options,
                         RetryStats* retry_stats) {
  return RetryTransient(
      options.retry,
      [&] { return SaveCheckpoint(cp, options.checkpoint_path); },
      retry_stats, options.retry_sleeper);
}

/// Removes the finished run's checkpoint, which has nothing left to resume.
/// The removal goes through the "checkpoint.remove" failpoint site and the
/// transient-retry schedule like every other checkpoint I/O. A removal that
/// still fails after retries must NOT fail the run — the output is already
/// complete — but it is counted (checkpoint.remove_failed), and the stale
/// checkpoint it leaves behind is harmless: its fingerprint matches, so a
/// later resume restores the identical result instead of recomputing. Only
/// an injected crash (simulated process death) propagates.
Status RemoveCheckpoint(const PipelineOptions& options,
                        diag::MetricsRegistry* m, RetryStats* retry_stats) {
  const Status removed = RetryTransient(
      options.retry,
      [&]() -> Status {
        ROCK_RETURN_IF_ERROR(fail::ConsultRead("checkpoint.remove"));
        if (std::remove(options.checkpoint_path.c_str()) != 0 &&
            errno != ENOENT) {
          return Status::IOError("cannot remove checkpoint '" +
                                 options.checkpoint_path + "'");
        }
        return Status::OK();
      },
      retry_stats, options.retry_sleeper);
  if (fail::IsInjectedCrash(removed)) return removed;
  diag::AddCounter(
      m, removed.ok() ? "checkpoint.removed" : "checkpoint.remove_failed", 1);
  return Status::OK();
}

/// The metrics tail of every run: retry and fault counters on top of what
/// the run recorded, snapshotted and merged with the clusterer's report.
/// A labeling scan records its own retry counters into the registry, so
/// these add the sampling/checkpoint share; the backoff gauge is
/// last-write, so it is set to the full total including `scan_backoff_ms`.
diag::RunMetrics FinishMetrics(diag::MetricsRegistry& registry,
                               const RetryStats& retry_stats,
                               double scan_backoff_ms,
                               const diag::RunMetrics& cluster_metrics) {
  registry.AddCounter("retry.attempts", retry_stats.attempts);
  registry.AddCounter("retry.retries", retry_stats.retries);
  registry.AddCounter("retry.exhausted", retry_stats.exhausted);
  registry.SetGauge("retry.backoff_ms",
                    retry_stats.backoff_ms + scan_backoff_ms);
  for (const auto& [site, fired] : fail::FiredSnapshot()) {
    registry.AddCounter("fault.fired." + site, fired);
  }
  diag::RunMetrics metrics = registry.Snapshot();
  metrics.Merge(cluster_metrics);
  return metrics;
}

}  // namespace

Result<PipelineResult> RunRockPipeline(const std::string& store_path,
                                       const PipelineOptions& options) {
  diag::MetricsRegistry registry;
  const bool collect = options.rock.diag.collect_metrics;
  diag::MetricsRegistry* m = collect ? &registry : nullptr;
  const bool checkpointing = !options.checkpoint_path.empty();
  RetryStats retry_stats;  // sampling + checkpoint I/O (labeling has its own)

  Result<SamplePhase> phase_or =
      StartRun(store_path, options,
               "cannot run the pipeline on an empty store", m, &retry_stats);
  if (!phase_or.ok()) return phase_or.status();
  SamplePhase& phase = *phase_or;
  PipelineCheckpoint& cp = phase.cp;
  const uint64_t store_count = phase.store_count;

  PipelineResult out;
  out.resumed = phase.resumed;
  if (phase.resumed) diag::AddCounter(m, "pipeline.resumed", 1);
  out.sample_rows = cp.sample_rows;
  out.sample_seconds = phase.sample_seconds;
  out.cluster_seconds = phase.cluster_seconds;
  out.sample_result = std::move(phase.sample_result);

  // Pin the shard plan so resumed runs replan the exact same boundaries
  // whatever --label-threads they are given (core/labeling.h). A
  // shard-free checkpoint (written by BuildModel) restores only the
  // sample phase; its shards are planned fresh.
  const bool resume_labels = phase.resumed && cp.num_shards > 0;
  const size_t threads = ResolveThreads(options.rock.label_threads);
  const uint64_t num_shards =
      resume_labels
          ? cp.num_shards
          : (threads <= 1
                 ? 1
                 : std::min<uint64_t>(store_count,
                                      static_cast<uint64_t>(threads) * 4));
  uint64_t checkpoint_writes = 0;
  if (!resume_labels) {
    ResetLabelProgress(num_shards, store_count, &cp);
    if (checkpointing) {
      // Persist the sample phase before the long scan starts, so even a
      // crash in the very first shard resumes without re-clustering.
      ROCK_RETURN_IF_ERROR(PersistCheckpoint(cp, options, &retry_stats));
      ++checkpoint_writes;
    }
  }

  // Pass 2: stream the store through the labeler, sharded over
  // options.rock.label_threads workers.
  Timer label_timer;
  auto labeler =
      TransactionLabeler::Build(phase.sample, out.sample_result.clustering,
                                options.rock, options.labeling);
  ROCK_RETURN_IF_ERROR(labeler.status());
  LabelStoreOptions label_options;
  label_options.num_threads = options.rock.label_threads;
  label_options.metrics = m;
  label_options.num_shards = num_shards;
  label_options.retry = options.retry;
  label_options.retry_sleeper = options.retry_sleeper;
  LabelResumeState resume_state;
  if (resume_labels) {
    resume_state.num_shards = cp.num_shards;
    resume_state.shard_done = &cp.shard_done;
    resume_state.assignments = &cp.assignments;
    resume_state.ground_truth = &cp.ground_truth;
    resume_state.shard_stats = &cp.shard_stats;
    resume_state.shard_outliers = &cp.shard_outliers;
    label_options.resume = &resume_state;
  }
  if (checkpointing) {
    // Serialized by LabelStore, so mutating the shared checkpoint object
    // here is race-free; the completed shard's rows are final.
    label_options.on_shard_complete =
        [&](const LabelShardCompletion& done) -> Status {
      cp.shard_done[done.shard] = 1;
      std::copy(done.assignments, done.assignments + done.range.num_rows,
                cp.assignments.begin() +
                    static_cast<ptrdiff_t>(done.range.first_row));
      std::copy(done.ground_truth, done.ground_truth + done.range.num_rows,
                cp.ground_truth.begin() +
                    static_cast<ptrdiff_t>(done.range.first_row));
      cp.shard_stats[done.shard] = done.stats;
      cp.shard_outliers[done.shard] = done.outliers;
      ROCK_RETURN_IF_ERROR(PersistCheckpoint(cp, options, &retry_stats));
      ++checkpoint_writes;
      return Status::OK();
    };
  }
  auto labeling = LabelStore(store_path, *labeler, label_options);
  ROCK_RETURN_IF_ERROR(labeling.status());
  out.labeling = std::move(*labeling);
  out.shards_skipped = out.labeling.shards_skipped;
  out.label_seconds = label_timer.ElapsedSeconds();

  if (checkpointing) {
    ROCK_RETURN_IF_ERROR(RemoveCheckpoint(options, m, &retry_stats));
  }

  if (collect) {
    registry.RecordSeconds("stage.sample", out.sample_seconds);
    registry.RecordSeconds("stage.label", out.label_seconds);
    registry.AddCounter("sample.rows", out.sample_rows.size());
    registry.AddCounter("label.rows", out.labeling.assignments.size());
    registry.AddCounter("label.outliers", out.labeling.num_outliers);
    if (checkpointing) {
      registry.AddCounter("checkpoint.writes", checkpoint_writes);
    }
    out.metrics =
        FinishMetrics(registry, retry_stats,
                      out.labeling.retry_stats.backoff_ms,
                      out.sample_result.metrics);
  }
  return out;
}

Result<ModelBuildResult> BuildModel(const std::string& store_path,
                                    const ModelBuildOptions& options) {
  const PipelineOptions& p = options.pipeline;
  diag::MetricsRegistry registry;
  const bool collect = p.rock.diag.collect_metrics;
  diag::MetricsRegistry* m = collect ? &registry : nullptr;
  const bool checkpointing = !p.checkpoint_path.empty();
  RetryStats retry_stats;

  // Model rebuilds ride the pipeline's checkpoint spine: the sample+cluster
  // phase — the expensive part of a build — is persisted as a shard-free
  // checkpoint, and a resumed build restores it bit-for-bit, so a rebuild
  // interrupted between clustering and the bundle swap completes with a
  // byte-identical bundle instead of re-clustering.
  Result<SamplePhase> phase_or =
      StartRun(store_path, p, "cannot build a model on an empty store", m,
               &retry_stats);
  if (!phase_or.ok()) return phase_or.status();
  SamplePhase& phase = *phase_or;
  const TransactionDataset& sample = phase.sample;

  ModelBuildResult out;
  out.resumed = phase.resumed;
  if (phase.resumed) diag::AddCounter(m, "build.resumed", 1);
  out.sample_rows = phase.cp.sample_rows;
  out.sample_seconds = phase.sample_seconds;
  out.cluster_seconds = phase.cluster_seconds;
  out.sample_result = std::move(phase.sample_result);
  if (checkpointing && !phase.resumed) {
    ResetLabelProgress(0, phase.store_count, &phase.cp);
    ROCK_RETURN_IF_ERROR(PersistCheckpoint(phase.cp, p, &retry_stats));
  }

  // Build the §4.6 labeler the same way the batch pipeline does, then
  // freeze its parts into the bundle. The serve layer reassembles it via
  // TransactionLabeler::FromParts, which recomputes the normalizers and
  // index identically — so serve answers match batch labels bit for bit.
  Timer build_timer;
  auto labeler = TransactionLabeler::Build(
      sample, out.sample_result.clustering, p.rock, p.labeling);
  ROCK_RETURN_IF_ERROR(labeler.status());

  out.bundle.fingerprint = phase.cp.fingerprint;
  out.bundle.theta = labeler->theta();
  out.bundle.f_exponent = labeler->f_exponent();
  out.bundle.labeling_sets.reserve(labeler->num_clusters());
  for (size_t c = 0; c < labeler->num_clusters(); ++c) {
    out.bundle.labeling_sets.push_back(labeler->labeling_set(c));
  }
  if (options.dictionary != nullptr) {
    out.bundle.dictionary.reserve(options.dictionary->size());
    for (size_t i = 0; i < options.dictionary->size(); ++i) {
      out.bundle.dictionary.push_back(
          options.dictionary->Name(static_cast<ItemId>(i)));
    }
  }

  // Profile the model against its own sample: the per-cluster share and
  // winning-neighbor-count distributions the drift detector compares
  // appended rows against (eval/drift.h). Deterministic — AssignDetailed
  // over a fixed sample — so resumed rebuilds freeze identical profiles.
  {
    ModelProfile& profile = out.bundle.profile;
    const size_t num_clusters = labeler->num_clusters();
    std::vector<uint64_t> won(num_clusters, 0);
    std::vector<double> neighbor_sum(num_clusters, 0.0);
    uint64_t outliers = 0;
    double score_sum = 0.0;
    TransactionLabeler::Scratch scratch;
    for (size_t i = 0; i < sample.size(); ++i) {
      const TransactionLabeler::AssignOutcome outcome =
          labeler->AssignDetailed(sample.transaction(i), &scratch, nullptr);
      if (outcome.cluster == kUnassigned) {
        ++outliers;
      } else {
        ++won[static_cast<size_t>(outcome.cluster)];
        neighbor_sum[static_cast<size_t>(outcome.cluster)] +=
            static_cast<double>(outcome.neighbors);
        score_sum += outcome.score;
      }
    }
    profile.rows = sample.size();
    if (profile.rows > 0) {
      const double rows = static_cast<double>(profile.rows);
      profile.outlier_share = static_cast<double>(outliers) / rows;
      profile.cluster_share.resize(num_clusters);
      profile.mean_neighbors.resize(num_clusters);
      for (size_t c = 0; c < num_clusters; ++c) {
        profile.cluster_share[c] = static_cast<double>(won[c]) / rows;
        profile.mean_neighbors[c] =
            won[c] > 0 ? neighbor_sum[c] / static_cast<double>(won[c]) : 0.0;
      }
      const uint64_t assigned = profile.rows - outliers;
      profile.mean_score =
          assigned > 0 ? score_sum / static_cast<double>(assigned) : 0.0;
    }
  }

  if (!options.model_path.empty()) {
    ROCK_RETURN_IF_ERROR(RetryTransient(
        p.retry,
        [&] { return SaveModelBundle(out.bundle, options.model_path); },
        &retry_stats, p.retry_sleeper));
    diag::AddCounter(m, "model.saved", 1);
  }
  out.build_seconds = build_timer.ElapsedSeconds();

  // The bundle is safely on disk (or was never requested): the rebuild
  // checkpoint has nothing left to resume.
  if (checkpointing) {
    ROCK_RETURN_IF_ERROR(RemoveCheckpoint(p, m, &retry_stats));
  }

  if (collect) {
    registry.RecordSeconds("stage.sample", out.sample_seconds);
    registry.RecordSeconds("stage.build", out.build_seconds);
    registry.AddCounter("sample.rows", out.sample_rows.size());
    registry.AddCounter("model.clusters", out.bundle.labeling_sets.size());
    out.metrics = FinishMetrics(registry, retry_stats, 0.0,
                                out.sample_result.metrics);
  }
  return out;
}

}  // namespace rock

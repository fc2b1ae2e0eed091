// bench_e2e — one end-to-end workload of librock per process: the paper's
// Fig. 2 pipeline from disk (batch_dense, batch_label), Table 3 categorical
// clustering (mushroom), the online label server (serve_open) and streaming
// appends (stream_append). bench/e2e/run.py starts one process per workload
// and checks, prints and compares the results; README.md catalogs the
// workloads and metrics.
//
// The untraced run calls only top-level public entry points:
// RunRockPipeline, RockClusterer::Cluster, BuildModel, ModelHandle,
// LabelServer and StreamingSession. With --trace-out the workload is also
// split into calls to each layer's public functions, each timed here as a
// span; the traced output must equal the untraced one. Side measurements
// (links alone, 1/2/4-thread scaling, AppendToStore on a copy,
// single-thread Assign) run outside the traced wall.
//
// Usage:
//   bench_e2e --workload=NAME --seed=N [--seconds=S] [--work-dir=DIR]
//             [--trace-out=FILE]
//   bench_e2e --smoke [--work-dir=DIR]
//
// The last stdout line is one JSON object: parameters, attempted and failed
// operations, end-to-end metrics with their per-rep samples and, when
// traced, per-layer metrics. Exits 1 when any operation failed or any
// output differed from its reference.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/labeling.h"
#include "core/pipeline.h"
#include "core/rock.h"
#include "core/sampling.h"
#include "data/disk_store.h"
#include "diag/metrics.h"
#include "eval/contingency.h"
#include "eval/metrics.h"
#include "graph/link_engine.h"
#include "graph/neighbor_engine.h"
#include "serve/model_handle.h"
#include "serve/server.h"
#include "serve/stream.h"
#include "similarity/jaccard.h"
#include "similarity/minhash.h"
#include "synth/basket_generator.h"
#include "synth/mushroom_generator.h"
#include "util/thread_pool.h"

namespace rock::e2e {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr const char* kWorkloads[] = {"batch_dense", "batch_label", "mushroom",
                                      "serve_open", "stream_append"};

// ------------------------------------------------------------- helpers --

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Independent seed for one random stream of a workload (data, sample), so
/// one --seed fixes every input.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed * 0x100 + stream + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
constexpr uint64_t kDataStream = 1;
constexpr uint64_t kSampleStream = 2;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/// FNV-1a over the assignment vector: the per-workload output digest.
uint64_t Digest(const std::vector<ClusterIndex>& assignments) {
  uint64_t h = 1469598103934665603ULL;
  for (ClusterIndex c : assignments) {
    const auto u = static_cast<uint32_t>(c);
    for (unsigned shift = 0; shift < 32; shift += 8) {
      h ^= (u >> shift) & 0xffU;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB → MiB
}

size_t Scaled(size_t n, double scale) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::llround(static_cast<double>(n) * scale)));
}

/// Calls `rep` until at least `min_reps` calls were made and the next call
/// would end past `seconds`.
template <typename Fn>
void TimedLoop(double seconds, size_t min_reps, Fn rep) {
  const auto t0 = Clock::now();
  double last = 0.0;
  for (size_t i = 0; i < min_reps || Since(t0) + last < seconds; ++i) {
    const auto start = Clock::now();
    rep();
    last = Since(start);
  }
}

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

// -------------------------------------------------------------- tracer --

/// In-memory spans, written once per workload as Chrome trace-event JSON
/// with a self-time table. Spans opened through Span nest on the main
/// thread; spans measured on other threads are added with explicit times.
class Tracer {
 public:
  static constexpr size_t kNoParent = SIZE_MAX;

  class Span {
   public:
    Span(Tracer& tracer, std::string name)
        : tracer_(tracer), id_(tracer.Open(std::move(name))) {}
    ~Span() { tracer_.Close(id_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    size_t id_;
  };

  size_t Add(std::string name, Clock::time_point start, Clock::time_point end,
             size_t parent, int tid) {
    events_.push_back(Event{std::move(name), start, end, parent, tid});
    return events_.size() - 1;
  }

  /// Durations in seconds of every span called `name`.
  std::vector<double> Seconds(const std::string& name) const {
    std::vector<double> out;
    for (const Event& e : events_) {
      if (e.name == name) {
        out.push_back(std::chrono::duration<double>(e.end - e.start).count());
      }
    }
    return out;
  }

  /// Σ self time / Σ duration over the spans called `name`: the share of
  /// their wall no child span accounts for.
  double SelfFraction(const std::string& name) const {
    const std::vector<double> self = SelfSeconds();
    double self_sum = 0.0;
    double total = 0.0;
    for (size_t i = 0; i < events_.size(); ++i) {
      if (events_[i].name != name) continue;
      self_sum += self[i];
      total += std::chrono::duration<double>(events_[i].end - events_[i].start)
                   .count();
    }
    return total > 0.0 ? self_sum / total : 0.0;
  }

  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<double> self = SelfSeconds();
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [");
    for (size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      std::fprintf(
          f,
          "%s\n{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
          "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
          "\"parent\": %zu}}",
          i == 0 ? "" : ",", Quote(e.name).c_str(), e.tid,
          Micros(e.start - epoch_), Micros(e.end - e.start), i + 1,
          e.parent == kNoParent ? size_t{0} : e.parent + 1);
    }
    std::fprintf(f, "\n], \"selfTime\": [");
    bool first = true;
    for (const auto& [name, row] : SelfTable(self)) {
      std::fprintf(f,
                   "%s\n{\"name\": %s, \"count\": %zu, \"total_ms\": %.3f, "
                   "\"self_ms\": %.3f}",
                   first ? "" : ",", Quote(name).c_str(), row.count,
                   row.total_s * 1e3, row.self_s * 1e3);
      first = false;
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

  void PrintSelfTable(std::FILE* out) const {
    std::fprintf(out, "%-28s %8s %12s %12s\n", "span", "count", "total_ms",
                 "self_ms");
    for (const auto& [name, row] : SelfTable(SelfSeconds())) {
      std::fprintf(out, "%-28s %8zu %12.3f %12.3f\n", name.c_str(), row.count,
                   row.total_s * 1e3, row.self_s * 1e3);
    }
  }

 private:
  struct Event {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    size_t parent;
    int tid;
  };
  struct SelfRow {
    size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  size_t Open(std::string name) {
    const auto now = Clock::now();
    const size_t parent = stack_.empty() ? kNoParent : stack_.back();
    stack_.push_back(Add(std::move(name), now, now, parent, 1));
    return stack_.back();
  }
  void Close(size_t id) {
    events_[id].end = Clock::now();
    stack_.pop_back();
  }

  std::vector<double> SelfSeconds() const {
    std::vector<double> self(events_.size());
    for (size_t i = 0; i < events_.size(); ++i) {
      self[i] = std::chrono::duration<double>(events_[i].end -
                                              events_[i].start)
                    .count();
    }
    for (size_t i = 0; i < events_.size(); ++i) {
      if (events_[i].parent != kNoParent) {
        self[events_[i].parent] -=
            std::chrono::duration<double>(events_[i].end - events_[i].start)
                .count();
      }
    }
    return self;
  }

  std::map<std::string, SelfRow> SelfTable(
      const std::vector<double>& self) const {
    std::map<std::string, SelfRow> table;
    for (size_t i = 0; i < events_.size(); ++i) {
      SelfRow& row = table[events_[i].name];
      ++row.count;
      row.total_s += std::chrono::duration<double>(events_[i].end -
                                                   events_[i].start)
                         .count();
      row.self_s += self[i];
    }
    return table;
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Event> events_;
  std::vector<size_t> stack_;
};

// -------------------------------------------------------------- report --

struct Metric {
  std::string unit;
  double value = 0.0;
  std::vector<double> samples;  ///< per-rep values behind `value`
};

/// Everything one workload process reports.
struct Report {
  std::string workload;
  uint64_t seed = 0;
  std::vector<std::pair<std::string, std::string>> params;
  std::map<std::string, Metric> metrics;  ///< end-to-end
  std::map<std::string, Metric> layers;   ///< per-layer (traced run)
  std::vector<std::pair<std::string, std::string>> digests;
  std::vector<std::string> failures;  ///< first few, for the log
  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// One operation: counted as attempted, and as failed when !ok.
  void Op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) Fail(what);
  }
  void Fail(const std::string& what, uint64_t operations = 1) {
    failed += operations;
    if (failures.size() < 20) failures.push_back(what);
  }
  /// A set-up step failed: the workload cannot run.
  void Abort(const std::string& what, const Status& s) {
    Op(false, what + ": " + s.ToString());
  }

  void Set(const std::string& name, std::string unit,
           std::vector<double> samples) {
    const double value = Median(samples);
    Set(name, std::move(unit), value, std::move(samples));
  }
  void Set(const std::string& name, std::string unit, double value,
           std::vector<double> samples) {
    metrics[name] = Metric{std::move(unit), value, std::move(samples)};
  }
  void Layer(const std::string& name, std::string unit, double value) {
    layers[name] = Metric{std::move(unit), value, {value}};
  }
  void AddDigest(const std::string& name, uint64_t digest) {
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(digest));
    digests.emplace_back(name, buf);
  }

  std::string ToJson() const {
    std::string j = "{\"workload\": " + Quote(workload) +
                    ", \"seed\": " + std::to_string(seed) + ", \"params\": {";
    for (size_t i = 0; i < params.size(); ++i) {
      j += (i == 0 ? "" : ", ") + Quote(params[i].first) + ": " +
           Quote(params[i].second);
    }
    j += "}, \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"failures\": [";
    for (size_t i = 0; i < failures.size(); ++i) {
      j += (i == 0 ? "" : ", ") + Quote(failures[i]);
    }
    j += "], \"digests\": {";
    for (size_t i = 0; i < digests.size(); ++i) {
      j += (i == 0 ? "" : ", ") + Quote(digests[i].first) + ": " +
           Quote(digests[i].second);
    }
    j += "}, \"metrics\": " + MetricsJson(metrics) +
         ", \"layers\": " + MetricsJson(layers) + "}";
    return j;
  }

 private:
  static std::string MetricsJson(const std::map<std::string, Metric>& m) {
    std::string j = "{";
    bool first = true;
    for (const auto& [name, metric] : m) {
      j += (first ? "" : ", ") + Quote(name) +
           ": {\"unit\": " + Quote(metric.unit) +
           ", \"value\": " + Num(metric.value) + ", \"samples\": [";
      for (size_t i = 0; i < metric.samples.size(); ++i) {
        j += (i == 0 ? "" : ", ") + Num(metric.samples[i]);
      }
      j += "]}";
      first = false;
    }
    return j + "}";
  }
};

// ---------------------------------------------------------- parameters --

/// One workload's fixed parameters. This is the only place sizes and
/// thread counts are set.
struct WorkloadParams {
  std::string name;
  double scale = 1.0;        ///< generator size multiplier (paper size at 1)
  size_t sample_size = 0;    ///< pipeline / model sample
  double theta = 0.5;
  size_t k = 10;
  size_t threads = 1;        ///< graph + label threads of clustering calls
  size_t serve_workers = 0;  ///< LabelServer workers (serve_open)
  size_t append_batch = 0;   ///< rows per Append (stream_append)
  size_t min_reps = 3;       ///< timed reps (stream: passes), at least
  size_t setups = 3;         ///< set-ups per run; setup_s is their median
};

WorkloadParams ParamsFor(const std::string& name, bool smoke) {
  WorkloadParams p;
  p.name = name;
  // The clustering workloads run on one thread (the default): at 4, their
  // wall spread up to 3× more from run to run on a shared 4-vCPU host
  // (README.md). The traced run still reports the graph layers' 2- and
  // 4-thread scaling.
  if (name == "batch_dense") {
    p.sample_size = 10000;
    p.setups = 12;  // ~0.1 s each
  } else if (name == "batch_label") {
    p.sample_size = 1000;
    p.setups = 12;
  } else if (name == "mushroom") {
    p.theta = 0.8;  // paper Table 3
    p.k = 20;
    p.setups = 40;  // ~7 ms each
  } else if (name == "serve_open") {
    p.sample_size = 5000;
    p.serve_workers = 2;  // + generator + drain = 4 busy threads
    // Each set-up runs BuildModel, hence the default 3.
  } else if (name == "stream_append") {
    p.sample_size = 5000;
    p.append_batch = 256;
  }
  if (smoke) {
    p.scale = 0.02;
    p.sample_size = std::max<size_t>(100, p.sample_size / 50);
    p.min_reps = 1;
    p.setups = 1;
  }
  return p;
}

/// How one process runs its workload.
struct RunConfig {
  uint64_t seed = 1;
  double seconds = 18.0;   ///< measured time of the run
  std::string work_dir;    ///< scratch files of this workload
  bool trace = false;
  /// Time for the untraced reps; a traced run splits its time between
  /// untraced reps (the overhead baseline) and traced reps.
  double untraced_s() const { return trace ? seconds / 2 : seconds; }
  double traced_s() const { return seconds / 2; }
};

// ------------------------------------------------------- shared inputs --

Result<TransactionDataset> MakeBaskets(const WorkloadParams& p,
                                       uint64_t seed) {
  BasketGeneratorOptions gen;  // Table 5: 114,586 rows at scale 1
  for (size_t& size : gen.cluster_sizes) size = Scaled(size, p.scale);
  gen.num_outliers = Scaled(gen.num_outliers, p.scale);
  gen.seed = DeriveSeed(seed, kDataStream);
  return GenerateBasketData(gen);
}

/// Empties `dir`, so every set-up writes fresh files: the previous
/// set-up's teardown is not part of the next one's time.
void ResetDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
}

LabelId OutlierLabel(const LabelSet& labels) {
  const std::string outlier = BasketGeneratorOptions{}.outlier_label;
  for (size_t l = 0; l < labels.num_classes(); ++l) {
    if (labels.Name(static_cast<LabelId>(l)) == outlier) {
      return static_cast<LabelId>(l);
    }
  }
  return kNoLabel;
}

/// `rock pipeline` defaults (θ, k = 10, stop-multiple 3, min-support 5,
/// labeling fraction 0.25) at the workload's sample size and threads.
PipelineOptions PipelineFor(const WorkloadParams& p, uint64_t seed) {
  PipelineOptions opt;
  opt.rock.theta = p.theta;
  opt.rock.num_clusters = p.k;
  opt.rock.outlier_stop_multiple = 3.0;
  opt.rock.min_cluster_support = 5;
  opt.rock.graph_threads = p.threads;
  opt.rock.label_threads = p.threads;
  opt.labeling.fraction = 0.25;
  opt.sample_size = p.sample_size;
  opt.seed = DeriveSeed(seed, kSampleStream);
  return opt;
}

// ------------------------------------------------------ layer calls --

/// What one traced run produced, layer by layer.
struct TracedRun {
  TransactionDataset sample;
  std::vector<uint64_t> sample_rows;
  NeighborGraph graph;
  diag::RunMetrics neighbor_metrics;
  RockResult rock;
  diag::RunMetrics label_metrics;
  std::vector<ClusterIndex> assignments;
  uint64_t store_rows = 0;
};

/// The neighbor options RockClusterer::Cluster uses for the default
/// packed engine.
PackedNeighborOptions NeighborOptions(const RockOptions& rock, size_t threads,
                                      diag::MetricsRegistry* metrics) {
  PackedNeighborOptions n;
  n.num_threads = threads;
  n.row_chunk = rock.row_chunk;
  n.lsh = TuneLshOptions(rock.theta, rock.lsh_seed);
  n.metrics = metrics;
  return n;
}

/// RockClusterer::Cluster as its two layer calls, one span each.
Status TraceCluster(const PointSimilarity& sim, const RockOptions& rock,
                    Tracer& tr, TracedRun* out) {
  diag::MetricsRegistry metrics;
  {
    Tracer::Span span(tr, "graph.neighbors");
    auto graph = ComputeNeighborsPacked(
        sim, rock.theta,
        NeighborOptions(rock, rock.EffectiveGraphThreads(), &metrics));
    ROCK_RETURN_IF_ERROR(graph.status());
    out->graph = std::move(*graph);
  }
  out->neighbor_metrics = metrics.Snapshot();
  Tracer::Span span(tr, "core.cluster_graph");
  auto result = RockClusterer(rock).ClusterGraph(out->graph);
  ROCK_RETURN_IF_ERROR(result.status());
  out->rock = std::move(*result);
  return Status::OK();
}

/// The sample → cluster → labeler half that RunRockPipeline and BuildModel
/// share, as layer calls: store open, reservoir sample (the pipeline's own
/// draw, replayed with the same RNG), neighbors, ClusterGraph, labeler.
Result<TransactionLabeler> TraceModelHalf(const std::string& store,
                                          const PipelineOptions& opt,
                                          Tracer& tr, TracedRun* out) {
  {
    Tracer::Span span(tr, "data.store_open");
    auto reader = TransactionStoreReader::Open(store);
    ROCK_RETURN_IF_ERROR(reader.status());
    out->store_rows = reader->count();
  }
  {
    Tracer::Span span(tr, "core.sample");
    Rng rng(opt.seed);
    auto reader = TransactionStoreReader::Open(store);
    ROCK_RETURN_IF_ERROR(reader.status());
    ReservoirSampler<Transaction> sampler(
        static_cast<size_t>(std::min<uint64_t>(opt.sample_size,
                                               out->store_rows)),
        &rng);
    while (reader->Next()) sampler.Offer(reader->transaction());
    ROCK_RETURN_IF_ERROR(reader->status());
    std::vector<size_t> order(sampler.sample().size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return sampler.sample_indices()[a] < sampler.sample_indices()[b];
    });
    for (size_t idx : order) {
      out->sample.AddTransaction(sampler.sample()[idx]);
      out->sample_rows.push_back(sampler.sample_indices()[idx]);
    }
  }
  {
    const TransactionJaccard sim(out->sample);
    ROCK_RETURN_IF_ERROR(TraceCluster(sim, opt.rock, tr, out));
  }
  Tracer::Span span(tr, "core.labeler_build");
  return TransactionLabeler::Build(out->sample, out->rock.clustering,
                                   opt.rock, opt.labeling);
}

/// The shard plan RunRockPipeline pins for its labeling scan.
uint64_t PipelineShards(uint64_t rows, size_t label_threads) {
  const size_t threads = ResolveThreads(label_threads);
  return threads <= 1 ? 1
                      : std::min<uint64_t>(rows,
                                           static_cast<uint64_t>(threads) * 4);
}

/// RunRockPipeline as layer calls under one root span.
Status TracePipeline(const std::string& store, const PipelineOptions& opt,
                     Tracer& tr, TracedRun* out) {
  Tracer::Span root(tr, "pipeline");
  auto labeler = TraceModelHalf(store, opt, tr, out);
  ROCK_RETURN_IF_ERROR(labeler.status());
  diag::MetricsRegistry metrics;
  LabelStoreOptions lo;
  lo.num_threads = opt.rock.label_threads;
  lo.num_shards = PipelineShards(out->store_rows, opt.rock.label_threads);
  lo.metrics = &metrics;
  Tracer::Span span(tr, "core.label_scan");
  auto labeled = LabelStore(store, *labeler, lo);
  ROCK_RETURN_IF_ERROR(labeled.status());
  out->assignments = std::move(labeled->assignments);
  out->label_metrics = metrics.Snapshot();
  return Status::OK();
}

/// Graph and merge layer metrics of a traced run. Neighbors and links are
/// re-run alone at 1, 2 and 4 threads, outside the traced wall, for their
/// scaling efficiencies and for the links-only time that splits
/// ClusterGraph into links and merge.
void RecordGraphLayers(const PointSimilarity& sim, const RockOptions& rock,
                       const TracedRun& run, const Tracer& tr, Report* r) {
  const size_t threads = rock.EffectiveGraphThreads();
  std::map<size_t, double> nbr_s;
  std::map<size_t, double> link_s;
  uint64_t link_pairs = 0;
  for (size_t t : {size_t{1}, size_t{2}, size_t{4}}) {
    auto t0 = Clock::now();
    auto graph = ComputeNeighborsPacked(sim, rock.theta,
                                        NeighborOptions(rock, t, nullptr));
    nbr_s[t] = Since(t0);
    r->Op(graph.ok() && graph->nbrlist == run.graph.nbrlist,
          "neighbors at " + std::to_string(t) +
              " threads differ from the traced graph");
    diag::MetricsRegistry metrics;
    PackedLinkOptions lo;
    lo.num_threads = t;
    lo.row_chunk = rock.row_chunk;
    lo.metrics = &metrics;
    t0 = Clock::now();
    const LinkMatrix links = ComputeLinksPacked(run.graph, lo);
    link_s[t] = Since(t0);
    if (t == threads) {
      link_pairs = metrics.Snapshot().CounterOr("links.pairs_counted");
    }
  }
  const double evaluated = static_cast<double>(
      run.neighbor_metrics.CounterOr("neighbors.pairs_evaluated"));
  const double edges = static_cast<double>(run.graph.NumEdges());
  const double cluster_graph_s = Median(tr.Seconds("core.cluster_graph"));
  r->Layer("graph.neighbors_s", "s", Median(tr.Seconds("graph.neighbors")));
  r->Layer("graph.neighbors.pairs_evaluated", "count", evaluated);
  r->Layer("graph.neighbors.pairs_pruned", "count",
           static_cast<double>(
               run.neighbor_metrics.CounterOr("neighbors.pairs_pruned")));
  r->Layer("graph.edges", "count", edges);
  r->Layer("graph.neighbors.edge_yield", "ratio",
           evaluated > 0.0 ? edges / evaluated : 0.0);
  r->Layer("graph.neighbors.eff_2t", "ratio", nbr_s[1] / (2 * nbr_s[2]));
  r->Layer("graph.neighbors.eff_4t", "ratio", nbr_s[1] / (4 * nbr_s[4]));
  r->Layer("graph.links_s", "s", link_s[threads]);
  r->Layer("graph.links.pairs", "count", static_cast<double>(link_pairs));
  r->Layer("graph.links.eff_2t", "ratio", link_s[1] / (2 * link_s[2]));
  r->Layer("graph.links.eff_4t", "ratio", link_s[1] / (4 * link_s[4]));
  r->Layer("core.cluster_graph_s", "s", cluster_graph_s);
  r->Layer("core.merge_s", "s", cluster_graph_s - link_s[threads]);
  r->Layer("core.merges", "count",
           static_cast<double>(run.rock.metrics.CounterOr("merge.merges")));
  r->Layer("core.merge.relink_rescans", "count",
           static_cast<double>(
               run.rock.metrics.CounterOr("merge.relink_best_rescans")));
}

/// The trace's own cost and coverage: the root spans' self time (wall no
/// layer span covers) and the traced vs untraced wall of the same work.
void RecordTraceQuality(const Tracer& tr, const std::string& root,
                        double traced_s, double untraced_s, Report* r) {
  r->Layer("trace.unaccounted_frac", "ratio", tr.SelfFraction(root));
  r->Layer("trace.overhead_frac", "ratio",
           untraced_s > 0.0 ? traced_s / untraced_s - 1.0 : 0.0);
}

// ----------------------------------------------------- batch workloads --

void TraceBatch(const std::string& store, const PipelineOptions& opt,
                const PipelineResult& ref, const std::vector<double>& untraced,
                const WorkloadParams& p, const RunConfig& cfg, Tracer& tr,
                Report* r) {
  TracedRun run;
  TimedLoop(cfg.traced_s(), p.min_reps, [&] {
    run = TracedRun{};
    const Status s = TracePipeline(store, opt, tr, &run);
    r->Op(s.ok() && run.assignments == ref.labeling.assignments &&
              run.sample_rows == ref.sample_rows &&
              run.rock.clustering.assignment ==
                  ref.sample_result.clustering.assignment,
          "traced pipeline differs from RunRockPipeline: " + s.ToString());
  });
  if (run.assignments.empty()) return;
  RecordTraceQuality(tr, "pipeline", Median(tr.Seconds("pipeline")),
                     Median(untraced), r);

  // Side measurements: one full store pass, and the labeling scan alone at
  // 1 and 4 threads.
  std::vector<double> scan_s;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    auto reader = TransactionStoreReader::Open(store);
    if (!reader.ok()) return r->Abort("store scan", reader.status());
    while (reader->Next()) {
    }
    scan_s.push_back(Since(t0));
    r->Op(reader->status().ok(), "store scan: " + reader->status().ToString());
  }
  auto labeler = TransactionLabeler::Build(run.sample, run.rock.clustering,
                                           opt.rock, opt.labeling);
  if (!labeler.ok()) return r->Abort("labeler build", labeler.status());
  std::map<size_t, double> label_s;
  for (size_t t : {size_t{1}, size_t{4}}) {
    LabelStoreOptions lo;
    lo.num_threads = t;
    lo.num_shards = PipelineShards(run.store_rows, t);
    const auto t0 = Clock::now();
    auto labeled = LabelStore(store, *labeler, lo);
    label_s[t] = Since(t0);
    r->Op(labeled.ok() && labeled->assignments == ref.labeling.assignments,
          "label scan at " + std::to_string(t) + " threads differs");
  }

  const double rows = static_cast<double>(run.store_rows);
  const double scan = Median(tr.Seconds("core.label_scan"));
  const uint64_t pruned = run.label_metrics.CounterOr("label.clusters_pruned");
  const uint64_t scored = run.label_metrics.CounterOr("label.clusters_scored");
  r->Layer("data.store_scan_s", "s", Median(scan_s));
  r->Layer("core.sample_s", "s", Median(tr.Seconds("core.sample")));
  r->Layer("core.labeler_build_s", "s",
           Median(tr.Seconds("core.labeler_build")));
  r->Layer("core.label_scan_s", "s", scan);
  r->Layer("core.label_rows_per_s", "rows/s", scan > 0.0 ? rows / scan : 0.0);
  r->Layer("core.label.similarities_per_row", "ratio",
           static_cast<double>(
               run.label_metrics.CounterOr("label.similarities_computed")) /
               rows);
  r->Layer("core.label.cluster_prune_frac", "ratio",
           pruned + scored > 0 ? static_cast<double>(pruned) /
                                     static_cast<double>(pruned + scored)
                               : 0.0);
  r->Layer("core.label.eff_4t", "ratio", label_s[1] / (4 * label_s[4]));
  const TransactionJaccard sim(run.sample);
  RecordGraphLayers(sim, opt.rock, run, tr, r);
}

/// batch_dense / batch_label: RunRockPipeline over the Table 5 store.
void RunBatch(const WorkloadParams& p, const RunConfig& cfg, Report* r,
              Tracer* tr) {
  const std::string store = cfg.work_dir + "/baskets.store";
  TransactionDataset ds;
  std::vector<double> setup_s;
  for (size_t i = 0; i < p.setups; ++i) {
    ds = TransactionDataset{};
    ResetDir(cfg.work_dir);
    const auto t0 = Clock::now();
    auto gen = MakeBaskets(p, cfg.seed);
    if (!gen.ok()) return r->Abort("generate", gen.status());
    ds = std::move(*gen);
    if (Status s = WriteDatasetToStore(ds, store); !s.ok()) {
      return r->Abort("store write", s);
    }
    setup_s.push_back(Since(t0));
  }
  r->Set("setup_s", "s", setup_s);

  const PipelineOptions opt = PipelineFor(p, cfg.seed);
  // Untimed warm-up; its output is the reference every rep must reproduce.
  auto ref = RunRockPipeline(store, opt);
  if (!ref.ok()) return r->Abort("warm-up pipeline", ref.status());
  r->Op(true, "");
  const uint64_t digest = Digest(ref->labeling.assignments);
  r->AddDigest("assignments", digest);
  auto table = ContingencyTable::Build(
      ref->labeling.assignments, ref->labeling.ground_truth,
      ref->sample_result.clustering.num_clusters(), ds.labels().num_classes());
  if (!table.ok()) return r->Abort("contingency", table.status());
  MisclassificationOptions mopt;
  mopt.outlier_label = OutlierLabel(ds.labels());
  const auto misclassified =
      static_cast<double>(MisclassificationCount(*table, mopt));

  std::vector<double> wall;
  TimedLoop(cfg.untraced_s(), p.min_reps, [&] {
    const auto t0 = Clock::now();
    auto run = RunRockPipeline(store, opt);
    wall.push_back(Since(t0));
    r->Op(run.ok() && Digest(run->labeling.assignments) == digest,
          "pipeline rep: assignments differ from the warm-up");
  });
  const double rows = static_cast<double>(ds.size());
  std::vector<double> op_ms;
  std::vector<double> rows_per_s;
  for (double w : wall) {
    op_ms.push_back(w * 1e3);
    rows_per_s.push_back(rows / w);
  }
  r->Set("pipeline_s", "s", wall);
  r->Set("misclassified_rows", "rows", {misclassified});
  r->Set("op_ms", "ms", op_ms);
  r->Set("rows_per_s", "rows/s", rows_per_s);
  if (tr != nullptr) TraceBatch(store, opt, *ref, wall, p, cfg, *tr, r);
}

// ------------------------------------------------------------ mushroom --

void RunMushroom(const WorkloadParams& p, const RunConfig& cfg, Report* r,
                 Tracer* tr) {
  CategoricalDataset ds;
  std::vector<double> setup_s;
  for (size_t i = 0; i < p.setups; ++i) {
    ds = CategoricalDataset{};
    const auto t0 = Clock::now();
    MushroomGeneratorOptions gen;  // 8,124 records × 22 attributes at 1
    gen.size_scale = p.scale;
    gen.seed = DeriveSeed(cfg.seed, kDataStream);
    auto generated = GenerateMushroomData(gen);
    if (!generated.ok()) return r->Abort("generate", generated.status());
    ds = std::move(*generated);
    setup_s.push_back(Since(t0));
  }
  r->Set("setup_s", "s", setup_s);

  RockOptions opt;  // paper Table 3: θ = 0.8, k = 20
  opt.theta = p.theta;
  opt.num_clusters = p.k;
  opt.graph_threads = p.threads;
  const auto cluster = [&] {
    const CategoricalJaccard sim(ds);
    return RockClusterer(opt).Cluster(sim);
  };
  auto ref = cluster();  // untimed warm-up and reference
  if (!ref.ok()) return r->Abort("warm-up cluster", ref.status());
  r->Op(true, "");
  const uint64_t digest = Digest(ref->clustering.assignment);
  r->AddDigest("assignments", digest);
  auto table = ContingencyTable::Build(ref->clustering, ds.labels());
  if (!table.ok()) return r->Abort("contingency", table.status());

  std::vector<double> wall;
  TimedLoop(cfg.untraced_s(), p.min_reps, [&] {
    const auto t0 = Clock::now();
    auto run = cluster();
    wall.push_back(Since(t0));
    r->Op(run.ok() && Digest(run->clustering.assignment) == digest,
          "cluster rep: assignments differ from the warm-up");
  });
  const double records = static_cast<double>(ds.size());
  std::vector<double> op_ms;
  std::vector<double> rows_per_s;
  for (double w : wall) {
    op_ms.push_back(w * 1e3);
    rows_per_s.push_back(records / w);
  }
  r->Set("cluster_s", "s", wall);
  r->Set("misclassified_rows", "rows",
         {static_cast<double>(MisclassificationCount(*table))});
  r->Set("op_ms", "ms", op_ms);
  r->Set("rows_per_s", "rows/s", rows_per_s);
  if (tr == nullptr) return;

  TracedRun run;
  TimedLoop(cfg.traced_s(), p.min_reps, [&] {
    run = TracedRun{};
    Tracer::Span root(*tr, "cluster");
    std::optional<CategoricalJaccard> sim;
    {
      Tracer::Span span(*tr, "similarity.build");
      sim.emplace(ds);
    }
    const Status s = TraceCluster(*sim, opt, *tr, &run);
    r->Op(s.ok() && run.rock.clustering.assignment ==
                        ref->clustering.assignment,
          "traced cluster differs from RockClusterer::Cluster: " +
              s.ToString());
  });
  RecordTraceQuality(*tr, "cluster", Median(tr->Seconds("cluster")),
                     Median(wall), r);
  const CategoricalJaccard sim(ds);
  RecordGraphLayers(sim, opt, run, *tr, r);
}

// ------------------------------------------------- model build (serve) --

/// BuildModel into `model_path`, timed; the bundle is what serve and
/// stream load.
Status BuildAndTime(const std::string& store, const PipelineOptions& opt,
                    const std::string& model_path,
                    std::vector<double>* build_s) {
  ModelBuildOptions build;
  build.pipeline = opt;
  build.model_path = model_path;
  const auto t0 = Clock::now();
  auto built = BuildModel(store, build);
  build_s->push_back(Since(t0));
  return built.status();
}

/// BuildModel's sample → cluster → labeler half as layer calls (root span
/// model.build_half), checked against the labeler of the loaded model.
void TraceBuildHalf(const std::string& store, const PipelineOptions& opt,
                    const TransactionLabeler& served, Tracer& tr, Report* r) {
  TracedRun run;
  Result<TransactionLabeler> labeler = Status::Internal("not run");
  {
    Tracer::Span root(tr, "model.build_half");
    labeler = TraceModelHalf(store, opt, tr, &run);
  }
  bool same = labeler.ok() && labeler->num_clusters() == served.num_clusters();
  for (size_t c = 0; same && c < served.num_clusters(); ++c) {
    same = labeler->labeling_set(c) == served.labeling_set(c);
  }
  r->Op(same, "traced build half differs from the BuildModel bundle: " +
                  labeler.status().ToString());
  if (!same) return;
  r->Layer("core.sample_s", "s", Median(tr.Seconds("core.sample")));
  r->Layer("core.labeler_build_s", "s",
           Median(tr.Seconds("core.labeler_build")));
  r->Layer("trace.unaccounted_frac", "ratio",
           tr.SelfFraction("model.build_half"));
  const TransactionJaccard sim(run.sample);
  RecordGraphLayers(sim, opt.rock, run, tr, r);
}

std::string QueryLine(const Transaction& tx) {
  std::string line;
  for (ItemId item : tx) {
    if (!line.empty()) line += ' ';
    line += std::to_string(item);
  }
  return line;
}

// ----------------------------------------------------------- serve_open --

struct ServeSetup {
  std::string store;
  std::string model_path;
  std::unique_ptr<ModelHandle> model;
  std::vector<std::string> lines;      ///< id-mode query text per store row
  std::vector<ClusterIndex> expected;  ///< direct Assign of each row
};

/// One load phase: `rate` queries/s open loop, or a closed bulk window of
/// kBulkWindow in-flight queries when rate is 0.
struct LoadSpec {
  double rate = 0.0;
  size_t count = 0;
  bool instrument = false;  ///< time parse and submit per query (trace)
};
constexpr size_t kBulkWindow = 4096;

// How serve_open splits its measured time: the bulk phase, each of the
// three fixed-rate reps, and each ladder rung above the first. Six rungs
// at most, so the phases add up to at most the whole budget.
constexpr double kBulkShare = 0.46;
constexpr double kFixedRepShare = 0.1;
constexpr double kRungShare = 0.04;

struct LoadResult {
  Status start;
  double seconds = 0.0;
  uint64_t answered = 0;
  uint64_t rejected = 0;
  uint64_t bad_queries = 0;
  uint64_t mismatched = 0;
  std::vector<double> latency_us;  ///< answer − due time (rate > 0)
  std::vector<double> lag_us;      ///< submit start − due time (rate > 0)
  /// Instrumented runs: per query parse start, submit start, submit end,
  /// answer seen.
  std::vector<Clock::time_point> parse_at, submit_at, submitted_at,
      answered_at;
  LabelServer::Stats stats;
};

/// Sleeps until `due`, spinning the last stretch: a sleep overshoots by
/// the kernel's timer slack (~50 µs), longer than the gap between queries.
void WaitUntil(Clock::time_point due) {
  while (true) {
    const auto now = Clock::now();
    if (now >= due) return;
    if (due - now > std::chrono::microseconds(200)) {
      std::this_thread::sleep_for(due - now - std::chrono::microseconds(100));
    } else {
      std::this_thread::yield();
    }
  }
}

/// Drives one LabelServer with one generator thread and drains the answers
/// on this thread in submission order, checking each against the direct
/// Assign of the same row.
LoadResult DriveServer(const ServeSetup& s, size_t workers,
                       const LoadSpec& spec) {
  ServeOptions options;
  options.num_threads = workers;
  options.max_batch = 64;
  options.max_queue = kBulkWindow;
  LabelServer server(s.model.get(), options);
  LoadResult out;
  out.start = server.Start();
  if (!out.start.ok()) return out;

  const size_t rows = s.lines.size();
  struct Slot {
    std::future<ClusterIndex> answer;
    bool admitted = false;
    bool bad_query = false;
  };
  std::vector<Slot> slots(spec.count);
  const bool open_loop = spec.rate > 0.0;
  if (open_loop) {
    out.latency_us.reserve(spec.count);
    out.lag_us.resize(spec.count);
  }
  if (spec.instrument) {
    out.parse_at.resize(spec.count);
    out.submit_at.resize(spec.count);
    out.submitted_at.resize(spec.count);
    out.answered_at.resize(spec.count);
  }
  std::atomic<size_t> submitted{0};
  std::atomic<size_t> drained{0};
  const auto t0 = Clock::now() + std::chrono::milliseconds(1);
  const double period_ns = open_loop ? 1e9 / spec.rate : 0.0;
  const auto due = [&](size_t i) {
    return t0 + std::chrono::nanoseconds(
                    static_cast<int64_t>(period_ns * static_cast<double>(i)));
  };

  std::thread generator([&] {
    for (size_t i = 0; i < spec.count; ++i) {
      if (open_loop) {
        WaitUntil(due(i));
        out.lag_us[i] = Micros(Clock::now() - due(i));
      } else {
        while (i - drained.load(std::memory_order_acquire) >= kBulkWindow) {
          std::this_thread::yield();
        }
      }
      if (spec.instrument) out.parse_at[i] = Clock::now();
      Result<Transaction> tx = s.model->ParseQuery(s.lines[i % rows]);
      if (spec.instrument) out.submit_at[i] = Clock::now();
      if (tx.ok()) {
        auto answer = server.Submit(std::move(*tx));
        if (answer.ok()) {
          slots[i].answer = std::move(*answer);
          slots[i].admitted = true;
        }
      } else {
        slots[i].bad_query = true;
      }
      if (spec.instrument) out.submitted_at[i] = Clock::now();
      submitted.store(i + 1, std::memory_order_release);
    }
  });

  const auto start = Clock::now();
  for (size_t i = 0; i < spec.count; ++i) {
    while (submitted.load(std::memory_order_acquire) <= i) {
      std::this_thread::yield();
    }
    Slot& slot = slots[i];
    if (slot.admitted) {
      const ClusterIndex cluster = slot.answer.get();
      const auto now = Clock::now();
      if (open_loop) out.latency_us.push_back(Micros(now - due(i)));
      if (spec.instrument) out.answered_at[i] = now;
      ++out.answered;
      if (cluster != s.expected[i % rows]) ++out.mismatched;
    } else if (slot.bad_query) {
      ++out.bad_queries;
    } else {
      ++out.rejected;
    }
    drained.store(i + 1, std::memory_order_release);
  }
  out.seconds = Since(start);
  generator.join();
  server.Stop();
  out.stats = server.stats();
  return out;
}

/// Counts a load phase's queries as operations: a rejected submit, a query
/// that does not parse and a wrong answer each fail.
void CountQueries(const LoadResult& load, const std::string& phase,
                  Report* r) {
  r->attempted += load.answered + load.rejected + load.bad_queries;
  const uint64_t failed = load.rejected + load.bad_queries + load.mismatched;
  if (!load.start.ok()) r->Abort(phase + " server start", load.start);
  if (failed > 0) {
    r->Fail(phase + ": " + std::to_string(load.rejected) + " rejected, " +
                std::to_string(load.bad_queries) + " unparsable, " +
                std::to_string(load.mismatched) + " wrong answers",
            failed);
  }
}

void TraceServe(const ServeSetup& s, const WorkloadParams& p,
                const RunConfig& cfg, const std::vector<double>& untraced_bulk,
                Tracer& tr, Report* r) {
  const size_t rows = s.lines.size();
  std::vector<double> traced_bulk;
  TimedLoop(kBulkShare * cfg.traced_s(), p.min_reps, [&] {
    Tracer::Span span(tr, "serve.bulk");
    const LoadResult load =
        DriveServer(s, p.serve_workers, LoadSpec{0.0, rows, true});
    CountQueries(load, "traced bulk", r);
    traced_bulk.push_back(load.seconds);
  });

  const double rate = 50000.0;
  const auto count = static_cast<size_t>(
      rate * std::max(0.1, kFixedRepShare * cfg.traced_s()));
  LoadResult load;
  {
    Tracer::Span span(tr, "serve.fixed_rate");
    load = DriveServer(s, p.serve_workers, LoadSpec{rate, count, true});
  }
  CountQueries(load, "traced fixed rate", r);
  std::vector<double> parse_us;
  std::vector<double> submit_us;
  for (size_t i = 0; i < count; ++i) {
    parse_us.push_back(Micros(load.submit_at[i] - load.parse_at[i]));
    submit_us.push_back(Micros(load.submitted_at[i] - load.submit_at[i]));
    // Every 1024th query as spans on the generator's track.
    if (i % 1024 == 0 && load.answered_at[i] != Clock::time_point{}) {
      const size_t req = tr.Add("serve.request", load.parse_at[i],
                                load.answered_at[i], Tracer::kNoParent, 2);
      tr.Add("serve.parse", load.parse_at[i], load.submit_at[i], req, 2);
      tr.Add("serve.submit", load.submit_at[i], load.submitted_at[i], req, 2);
    }
  }

  // Side measurement: the same queries through a single-thread Assign.
  std::vector<double> assign_us;
  assign_us.reserve(rows);
  TransactionLabeler::Scratch scratch;
  bool same = true;
  for (size_t i = 0; i < rows; ++i) {
    auto tx = s.model->ParseQuery(s.lines[i]);
    if (!tx.ok()) continue;
    const auto t0 = Clock::now();
    const ClusterIndex c = s.model->labeler().Assign(*tx, &scratch, nullptr);
    assign_us.push_back(Micros(Clock::now() - t0));
    same = same && c == s.expected[i];
  }
  r->Op(same && assign_us.size() == rows,
        "single-thread Assign of the parsed queries differs");
  const double latency_p50 = Percentile(load.latency_us, 0.5);
  const double assign_p50 = Median(assign_us);
  r->Layer("serve.parse_us_p50", "us", Median(parse_us));
  r->Layer("serve.submit_us_p99", "us", Percentile(submit_us, 0.99));
  r->Layer("serve.assign_us_p50", "us", assign_p50);
  r->Layer("serve.queue_wait_us_p50", "us", latency_p50 - assign_p50);
  r->Layer("serve.batch_fill", "ratio", load.stats.batch_fill);
  r->Layer("serve.peak_queue_depth", "count",
           static_cast<double>(load.stats.peak_queue_depth));
  r->Layer("serve.generator_lag_us_p99", "us", Percentile(load.lag_us, 0.99));
  r->Layer("serve.latency_p99_us", "us", Percentile(load.latency_us, 0.99));
  r->Layer("serve.latency_p999_us", "us",
           Percentile(load.latency_us, 0.999));
  r->Layer("trace.overhead_frac", "ratio",
           Median(traced_bulk) / Median(untraced_bulk) - 1.0);
  TraceBuildHalf(s.store, PipelineFor(p, cfg.seed), s.model->labeler(), tr,
                 r);
}

/// serve_open: a BuildModel bundle loaded with ModelHandle::Load, queried
/// through ParseQuery + LabelServer in three phases: bulk, a fixed 50k QPS
/// rate, and a rate ladder.
void RunServe(const WorkloadParams& p, const RunConfig& cfg, Report* r,
              Tracer* tr) {
  ServeSetup s;
  s.store = cfg.work_dir + "/baskets.store";
  s.model_path = cfg.work_dir + "/model.bundle";
  const PipelineOptions opt = PipelineFor(p, cfg.seed);
  std::vector<double> setup_s;
  std::vector<double> build_s;
  std::vector<double> load_s;
  for (size_t i = 0; i < p.setups; ++i) {
    s.model.reset();
    s.lines = {};
    s.expected = {};
    ResetDir(cfg.work_dir);
    const auto t0 = Clock::now();
    auto ds = MakeBaskets(p, cfg.seed);
    if (!ds.ok()) return r->Abort("generate", ds.status());
    if (Status st = WriteDatasetToStore(*ds, s.store); !st.ok()) {
      return r->Abort("store write", st);
    }
    if (Status st = BuildAndTime(s.store, opt, s.model_path, &build_s);
        !st.ok()) {
      return r->Abort("BuildModel", st);
    }
    const auto load_t0 = Clock::now();
    auto model = ModelHandle::Load(s.model_path);
    load_s.push_back(Since(load_t0));
    if (!model.ok()) return r->Abort("ModelHandle::Load", model.status());
    s.model = std::make_unique<ModelHandle>(std::move(*model));
    TransactionLabeler::Scratch scratch;
    for (const Transaction& tx : ds->transactions()) {
      s.lines.push_back(QueryLine(tx));
      s.expected.push_back(s.model->labeler().Assign(tx, &scratch, nullptr));
    }
    setup_s.push_back(Since(t0));
  }
  r->Set("setup_s", "s", setup_s);
  r->AddDigest("expected", Digest(s.expected));
  const size_t rows = s.lines.size();
  const double budget = cfg.untraced_s();

  // Bulk: every row with a 4096-deep window; the first pass warms up.
  CountQueries(DriveServer(s, p.serve_workers, LoadSpec{0.0, rows, false}),
               "bulk warm-up", r);
  std::vector<double> bulk_s;
  std::vector<double> qps;
  TimedLoop(kBulkShare * budget, p.min_reps, [&] {
    const LoadResult load =
        DriveServer(s, p.serve_workers, LoadSpec{0.0, rows, false});
    CountQueries(load, "bulk", r);
    bulk_s.push_back(load.seconds);
    qps.push_back(static_cast<double>(rows) / load.seconds);
  });
  r->Set("serve_qps", "queries/s", qps);
  if (tr != nullptr) {
    r->Layer("core.model_build_s", "s", Median(build_s));
    r->Layer("serve.model_load_s", "s", Median(load_s));
    return TraceServe(s, p, cfg, bulk_s, *tr, r);
  }

  // Fixed rate: 50k QPS in three reps, latency from each query's due time.
  // Pooled, the reps are the ladder's first rung.
  double rate = 50000.0;
  const double rep_s = std::max(0.1, kFixedRepShare * budget);
  const double rung_s = std::max(0.1, kRungShare * budget);
  LoadResult rung;
  std::vector<double> rep_p50;
  for (size_t rep = 0; rep < p.min_reps; ++rep) {
    const LoadResult load = DriveServer(
        s, p.serve_workers,
        LoadSpec{rate, static_cast<size_t>(rate * rep_s), false});
    CountQueries(load, "fixed rate", r);
    rep_p50.push_back(Percentile(load.latency_us, 0.5));
    if (!load.start.ok()) rung.start = load.start;
    rung.rejected += load.rejected;
    rung.bad_queries += load.bad_queries;
    rung.mismatched += load.mismatched;
    rung.latency_us.insert(rung.latency_us.end(), load.latency_us.begin(),
                           load.latency_us.end());
    rung.lag_us.insert(rung.lag_us.end(), load.lag_us.begin(),
                       load.lag_us.end());
  }
  const double p50 = Percentile(rung.latency_us, 0.5);
  r->Set("serve_p50_us", "us", p50, rep_p50);
  r->Set("serve_p99_us", "us", Percentile(rung.latency_us, 0.99),
         {Percentile(rung.latency_us, 0.99)});
  r->Set("serve_p999_us", "us", Percentile(rung.latency_us, 0.999),
         {Percentile(rung.latency_us, 0.999)});
  std::vector<double> op_ms;
  for (double us : rep_p50) op_ms.push_back(us / 1e3);
  r->Set("op_ms", "ms", p50 / 1e3, op_ms);
  r->Set("rows_per_s", "rows/s", qps);

  // Ladder: 50k·√2^i QPS up to 400k, one rung_s phase per rung above the
  // first. A rung passes with no rejection, every answer right, median
  // latency and generator lag p99 both ≤ 1 ms. Past saturation rejections
  // are the probe's expected outcome, so only wrong answers count as failed
  // operations there.
  double max_qps = 0.0;
  while (true) {
    const double lag99 = Percentile(rung.lag_us, 0.99);
    const double rung_p50 = Percentile(rung.latency_us, 0.5);
    const bool pass = rung.start.ok() && rung.rejected == 0 &&
                      rung.mismatched == 0 && rung.bad_queries == 0 &&
                      rung_p50 <= 1000.0 && lag99 <= 1000.0;
    std::fprintf(stderr,
                 "serve ladder %8.0f qps: p50 %8.1f us, lag p99 %8.1f us, "
                 "%llu rejected -> %s\n",
                 rate, rung_p50, lag99,
                 static_cast<unsigned long long>(rung.rejected),
                 pass ? "pass" : "fail");
    if (!pass) break;
    max_qps = std::round(rate);
    rate *= std::sqrt(2.0);
    if (rate > 400000.0 * 1.001) break;
    rung = DriveServer(
        s, p.serve_workers,
        LoadSpec{rate, static_cast<size_t>(rate * rung_s), false});
    r->attempted += rung.answered;
    if (rung.mismatched > 0) r->Fail("ladder: wrong answers", rung.mismatched);
  }
  r->Set("serve_max_qps", "queries/s", {max_qps});
}

// -------------------------------------------------------- stream_append --

struct StreamSetup {
  std::string base;
  std::string model_path;
  std::vector<Transaction> held;       ///< rows appended, in order
  std::vector<ClusterIndex> expected;  ///< direct Assign of each held row
};

/// One pass: a fresh copy of the base store, then every held-out row through
/// StreamingSession::Append in batches. Returns each Append's wall.
std::vector<double> StreamPass(const StreamSetup& s, const WorkloadParams& p,
                               const PipelineOptions& opt,
                               const std::string& work, Tracer* tr,
                               Report* r) {
  std::vector<double> append_ms;
  std::error_code ec;
  fs::copy_file(s.base, work, fs::copy_options::overwrite_existing, ec);
  if (ec) {
    r->Abort("store copy", Status::IOError(ec.message()));
    return append_ms;
  }
  StreamOptions options;
  options.build.pipeline = opt;
  auto session = StreamingSession::Open(work, s.model_path, options);
  if (!session.ok()) {
    r->Abort("StreamingSession::Open", session.status());
    return append_ms;
  }
  for (size_t at = 0; at < s.held.size(); at += p.append_batch) {
    const size_t n = std::min(p.append_batch, s.held.size() - at);
    const auto first = s.held.begin() + static_cast<std::ptrdiff_t>(at);
    const std::vector<Transaction> batch(first,
                                         first + static_cast<std::ptrdiff_t>(n));
    std::optional<Tracer::Span> span;
    if (tr != nullptr) span.emplace(*tr, "stream.append");
    const auto t0 = Clock::now();
    auto appended = (*session)->Append(batch, nullptr);
    append_ms.push_back(Since(t0) * 1e3);
    span.reset();
    bool same = appended.ok() && appended->outcomes.size() == n;
    for (size_t j = 0; same && j < n; ++j) {
      same = appended->outcomes[j].cluster == s.expected[at + j];
    }
    r->Op(same, "append at row " + std::to_string(at) +
                    " differs from direct Assign: " +
                    appended.status().ToString());
  }
  return append_ms;
}

void TraceStream(const StreamSetup& s, const WorkloadParams& p,
                 const PipelineOptions& opt, const RunConfig& cfg,
                 const std::vector<double>& untraced_ms, Tracer& tr,
                 Report* r) {
  const std::string work = cfg.work_dir + "/work.store";
  std::vector<double> traced_ms;
  TimedLoop(cfg.traced_s(), p.min_reps, [&] {
    const std::vector<double> pass = StreamPass(s, p, opt, work, &tr, r);
    traced_ms.insert(traced_ms.end(), pass.begin(), pass.end());
  });

  // Side pass: AppendToStore of the same batches onto a copy, then a
  // direct Assign of each batch, one after the other.
  auto model = ModelHandle::Load(s.model_path);
  if (!model.ok()) return r->Abort("ModelHandle::Load", model.status());
  const std::string side = cfg.work_dir + "/side.store";
  std::error_code ec;
  fs::copy_file(s.base, side, fs::copy_options::overwrite_existing, ec);
  if (ec) return r->Abort("store copy", Status::IOError(ec.message()));
  std::vector<double> store_ms;
  std::vector<double> label_ms;
  std::vector<double> bytes_copied;
  TransactionLabeler::Scratch scratch;
  for (size_t at = 0; at < s.held.size(); at += p.append_batch) {
    const size_t n = std::min(p.append_batch, s.held.size() - at);
    const auto first = s.held.begin() + static_cast<std::ptrdiff_t>(at);
    const std::vector<Transaction> batch(first,
                                         first + static_cast<std::ptrdiff_t>(n));
    bytes_copied.push_back(static_cast<double>(fs::file_size(side, ec)));
    auto t0 = Clock::now();
    auto appended = AppendToStore(side, batch, nullptr);
    store_ms.push_back(Since(t0) * 1e3);
    r->Op(appended.ok(), "side AppendToStore: " + appended.status().ToString());
    bool same = true;
    t0 = Clock::now();
    for (size_t j = 0; j < n; ++j) {
      same &= model->labeler().Assign(batch[j], &scratch, nullptr) ==
              s.expected[at + j];
    }
    label_ms.push_back(Since(t0) * 1e3);
    r->Op(same, "side Assign differs");
  }
  const double append_p50 = Median(traced_ms);
  r->Layer("data.store_append_ms_p50", "ms", Median(store_ms));
  r->Layer("data.append_bytes_copied", "bytes",
           std::accumulate(bytes_copied.begin(), bytes_copied.end(), 0.0) /
               static_cast<double>(bytes_copied.size()));
  r->Layer("stream.label_ms_p50", "ms", Median(label_ms));
  r->Layer("stream.residual_ms_p50", "ms",
           append_p50 - Median(store_ms) - Median(label_ms));
  r->Layer("trace.overhead_frac", "ratio",
           append_p50 / Median(untraced_ms) - 1.0);
  TraceBuildHalf(s.base, opt, model->labeler(), tr, r);
}

/// stream_append: the first 80% of the Table 5 rows are the base store and
/// model; the held-out rows go through StreamingSession::Append.
void RunStream(const WorkloadParams& p, const RunConfig& cfg, Report* r,
               Tracer* tr) {
  StreamSetup s;
  s.base = cfg.work_dir + "/base.store";
  s.model_path = cfg.work_dir + "/model.bundle";
  const PipelineOptions opt = PipelineFor(p, cfg.seed);
  std::vector<double> setup_s;
  std::vector<double> build_s;
  for (size_t i = 0; i < p.setups; ++i) {
    s.held = {};
    s.expected = {};
    ResetDir(cfg.work_dir);
    const auto t0 = Clock::now();
    auto ds = MakeBaskets(p, cfg.seed);
    if (!ds.ok()) return r->Abort("generate", ds.status());
    const size_t base_rows = ds->size() * 8 / 10;
    TransactionDataset base;
    for (size_t row = 0; row < ds->size(); ++row) {
      if (row < base_rows) {
        base.AddTransaction(ds->transaction(row));
        base.labels().Append(ds->labels().Name(ds->labels().label(row)));
      } else {
        s.held.push_back(ds->transaction(row));
      }
    }
    if (Status st = WriteDatasetToStore(base, s.base); !st.ok()) {
      return r->Abort("store write", st);
    }
    if (Status st = BuildAndTime(s.base, opt, s.model_path, &build_s);
        !st.ok()) {
      return r->Abort("BuildModel", st);
    }
    auto model = ModelHandle::Load(s.model_path);
    if (!model.ok()) return r->Abort("ModelHandle::Load", model.status());
    TransactionLabeler::Scratch scratch;
    for (const Transaction& tx : s.held) {
      s.expected.push_back(model->labeler().Assign(tx, &scratch, nullptr));
    }
    setup_s.push_back(Since(t0));
  }
  r->Set("setup_s", "s", setup_s);
  r->AddDigest("expected", Digest(s.expected));

  const std::string work = cfg.work_dir + "/work.store";
  StreamPass(s, p, opt, work, nullptr, r);  // untimed warm-up pass
  std::vector<double> all_ms;
  std::vector<double> pass_p50;
  std::vector<double> pass_p95;
  std::vector<double> pass_rows_per_s;
  TimedLoop(cfg.untraced_s(), p.min_reps, [&] {
    const std::vector<double> pass = StreamPass(s, p, opt, work, nullptr, r);
    if (pass.empty()) return;
    all_ms.insert(all_ms.end(), pass.begin(), pass.end());
    pass_p50.push_back(Median(pass));
    pass_p95.push_back(Percentile(pass, 0.95));
    pass_rows_per_s.push_back(
        static_cast<double>(s.held.size()) * 1e3 /
        std::accumulate(pass.begin(), pass.end(), 0.0));
  });
  if (all_ms.empty()) return;
  r->Set("append_p50_ms", "ms", Percentile(all_ms, 0.5), pass_p50);
  r->Set("append_p95_ms", "ms", Percentile(all_ms, 0.95), pass_p95);
  r->Set("append_rows_per_s", "rows/s", pass_rows_per_s);
  r->Set("op_ms", "ms", Percentile(all_ms, 0.5), pass_p50);
  r->Set("rows_per_s", "rows/s", pass_rows_per_s);
  if (tr != nullptr) {
    r->Layer("core.model_build_s", "s", Median(build_s));
    TraceStream(s, p, opt, cfg, all_ms, *tr, r);
  }
}

// ---------------------------------------------------------------- main --

Report RunWorkload(const WorkloadParams& p, const RunConfig& cfg,
                   const std::string& trace_out) {
  Report r;
  r.workload = p.name;
  r.seed = cfg.seed;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", p.scale);
  r.params = {{"scale", buf},
              {"sample_size", std::to_string(p.sample_size)},
              {"theta", Num(p.theta)},
              {"k", std::to_string(p.k)},
              {"threads", std::to_string(p.threads)},
              {"serve_workers", std::to_string(p.serve_workers)},
              {"append_batch", std::to_string(p.append_batch)},
              {"min_reps", std::to_string(p.min_reps)},
              {"setups", std::to_string(p.setups)},
              {"seconds", Num(cfg.seconds)}};
  std::unique_ptr<Tracer> tracer =
      cfg.trace ? std::make_unique<Tracer>() : nullptr;
  std::error_code ec;
  fs::create_directories(cfg.work_dir, ec);
  if (ec) {
    r.Abort("work dir", Status::IOError(ec.message()));
    return r;
  }
  if (p.name == "batch_dense" || p.name == "batch_label") {
    RunBatch(p, cfg, &r, tracer.get());
  } else if (p.name == "mushroom") {
    RunMushroom(p, cfg, &r, tracer.get());
  } else if (p.name == "serve_open") {
    RunServe(p, cfg, &r, tracer.get());
  } else {
    RunStream(p, cfg, &r, tracer.get());
  }
  fs::remove_all(cfg.work_dir, ec);
  r.Set("peak_rss_mb", "MiB", {PeakRssMb()});
  r.Set("failed_frac", "ratio",
        {r.attempted > 0 ? static_cast<double>(r.failed) /
                               static_cast<double>(r.attempted)
                         : 1.0});
  if (tracer != nullptr) {
    if (!tracer->Write(trace_out)) {
      r.Fail("cannot write trace " + trace_out);
    }
    std::fprintf(stderr, "%s trace -> %s\n", p.name.c_str(),
                 trace_out.c_str());
    tracer->PrintSelfTable(stderr);
  }
  return r;
}

bool IsWorkload(const std::string& name) {
  return std::any_of(std::begin(kWorkloads), std::end(kWorkloads),
                     [&](const char* w) { return name == w; });
}

/// Every workload at ~2% scale, one rep, traced: catches a broken
/// benchmark in seconds.
int RunSmoke(const std::string& work_dir) {
  bool ok = true;
  for (const char* name : kWorkloads) {
    RunConfig cfg;
    cfg.seconds = 0.0;
    cfg.work_dir = work_dir + "/" + name;
    cfg.trace = true;
    const auto t0 = Clock::now();
    const Report r = RunWorkload(ParamsFor(name, /*smoke=*/true), cfg,
                                 work_dir + "/" + name + ".trace.json");
    const bool pass = r.attempted > 0 && r.failed == 0;
    std::printf("smoke %-14s %s  attempted=%llu failed=%llu  %.2fs\n", name,
                pass ? "ok  " : "FAIL",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed), Since(t0));
    for (const std::string& f : r.failures) std::printf("  %s\n", f.c_str());
    ok = ok && pass;
  }
  return ok ? 0 : 1;
}

/// True when `arg` is `flag` followed by a value, which goes to `value`.
bool FlagValue(std::string_view arg, std::string_view flag,
               std::string* value) {
  if (arg.substr(0, flag.size()) != flag) return false;
  *value = std::string(arg.substr(flag.size()));
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload=NAME --seed=N [--seconds=S] "
               "[--work-dir=DIR] [--trace-out=FILE]\n"
               "       bench_e2e --smoke [--work-dir=DIR]\n"
               "workloads: batch_dense batch_label mushroom serve_open "
               "stream_append\n");
  return 2;
}

}  // namespace
}  // namespace rock::e2e

int main(int argc, char** argv) {
  using namespace rock::e2e;
  std::string workload;
  std::string trace_out;
  RunConfig cfg;
  std::string work_dir = "bench_e2e_work";
  bool smoke = false;
  for (int a = 1; a < argc; ++a) {
    const std::string_view arg = argv[a];
    std::string v;
    if (arg == "--smoke") {
      smoke = true;
    } else if (FlagValue(arg, "--workload=", &v)) {
      workload = v;
    } else if (FlagValue(arg, "--seed=", &v)) {
      cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (FlagValue(arg, "--seconds=", &v)) {
      cfg.seconds = std::strtod(v.c_str(), nullptr);
    } else if (FlagValue(arg, "--work-dir=", &v)) {
      work_dir = v;
    } else if (FlagValue(arg, "--trace-out=", &v)) {
      trace_out = v;
    } else {
      return Usage();
    }
  }
  if (smoke) return RunSmoke(work_dir);
  if (!IsWorkload(workload) || !(cfg.seconds >= 0.0)) return Usage();
  cfg.work_dir = work_dir + "/" + workload;
  cfg.trace = !trace_out.empty();
  const Report r = RunWorkload(ParamsFor(workload, false), cfg, trace_out);
  for (const std::string& f : r.failures) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }
  std::printf("%s\n", r.ToJson().c_str());
  return r.failed == 0 ? 0 : 1;
}

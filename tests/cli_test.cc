// Tests for cli/cli.h — full in-process runs of the rock CLI commands.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli/cli.h"

namespace rock {
namespace {

/// Reads a whole file into a string.
std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Extracts every JSON object key ("..." immediately followed by a colon),
/// masking all values — the golden assertions below pin the schema, not the
/// machine-dependent timings.
std::set<std::string> JsonKeys(const std::string& json) {
  std::set<std::string> keys;
  for (size_t pos = json.find('"'); pos != std::string::npos;
       pos = json.find('"', pos + 1)) {
    const size_t end = json.find('"', pos + 1);
    if (end == std::string::npos) break;
    size_t after = end + 1;
    while (after < json.size() &&
           (json[after] == ' ' || json[after] == '\n')) {
      ++after;
    }
    if (after < json.size() && json[after] == ':') {
      keys.insert(json.substr(pos + 1, end - pos - 1));
    }
    pos = end;
  }
  return keys;
}

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("rock_cli_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  /// Runs the CLI and returns (exit code, output).
  std::pair<int, std::string> Run(const std::vector<std::string>& args) {
    std::string out;
    const int code = RunCli(args, &out);
    return {code, out};
  }

 private:
  std::filesystem::path dir_;
};

TEST_F(CliTest, HelpAndUnknownCommand) {
  auto [code, out] = Run({"help"});
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.find("usage: rock"), std::string::npos);

  auto [code2, out2] = Run({"frobnicate"});
  EXPECT_EQ(code2, 2);
  EXPECT_NE(out2.find("unknown command"), std::string::npos);

  auto [code3, out3] = Run({});
  EXPECT_EQ(code3, 2);
}

TEST_F(CliTest, SubcommandHelp) {
  for (const char* cmd :
       {"gen", "cluster", "pipeline", "build", "serve", "query", "sweep"}) {
    auto [code, out] = Run({cmd, "--help"});
    EXPECT_EQ(code, 0) << cmd;
    EXPECT_NE(out.find("--"), std::string::npos) << cmd;
  }
}

TEST_F(CliTest, GenVotesThenClusterRock) {
  auto [gcode, gout] = Run({"gen", "--dataset=votes",
                            "--out=" + Path("votes.csv")});
  ASSERT_EQ(gcode, 0) << gout;
  EXPECT_NE(gout.find("435 records"), std::string::npos);

  auto [ccode, cout] =
      Run({"cluster", "--input=" + Path("votes.csv"), "--theta=0.73",
           "--k=2", "--stop-multiple=3", "--min-support=5",
           "--assignments=" + Path("assign.csv")});
  ASSERT_EQ(ccode, 0) << cout;
  EXPECT_NE(cout.find("clusters: 2"), std::string::npos);
  EXPECT_NE(cout.find("purity:"), std::string::npos);

  // The assignments file covers all rows with a header.
  std::ifstream assign(Path("assign.csv"));
  std::string line;
  size_t lines = 0;
  while (std::getline(assign, line)) ++lines;
  EXPECT_EQ(lines, 436u);  // header + 435 rows
}

TEST_F(CliTest, ClusterBaselineAlgos) {
  auto [gcode, gout] = Run({"gen", "--dataset=votes",
                            "--out=" + Path("votes.csv")});
  ASSERT_EQ(gcode, 0) << gout;
  for (const char* algo :
       {"centroid", "single-link", "group-average", "kmeans"}) {
    auto [code, out] = Run({"cluster", "--input=" + Path("votes.csv"),
                            "--algo=" + std::string(algo), "--k=2"});
    EXPECT_EQ(code, 0) << algo << ": " << out;
    EXPECT_NE(out.find("clusters:"), std::string::npos) << algo;
  }
}

TEST_F(CliTest, GenBasketThenPipeline) {
  auto [gcode, gout] = Run({"gen", "--dataset=basket", "--scale=0.02",
                            "--out=" + Path("baskets.store")});
  ASSERT_EQ(gcode, 0) << gout;

  auto [pcode, pout] =
      Run({"pipeline", "--store=" + Path("baskets.store"),
           "--sample-size=400", "--theta=0.5", "--k=10",
           "--assignments=" + Path("pipe.csv")});
  ASSERT_EQ(pcode, 0) << pout;
  EXPECT_NE(pout.find("pipeline: sample=400"), std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(Path("pipe.csv")));
}

TEST_F(CliTest, BuildServeQueryRoundTrip) {
  auto [gcode, gout] = Run({"gen", "--dataset=basket", "--scale=0.02",
                            "--out=" + Path("baskets.store")});
  ASSERT_EQ(gcode, 0) << gout;

  // The batch answer: pipeline assignments for every store row.
  auto [pcode, pout] =
      Run({"pipeline", "--store=" + Path("baskets.store"),
           "--sample-size=400", "--theta=0.5", "--k=10",
           "--assignments=" + Path("batch.csv")});
  ASSERT_EQ(pcode, 0) << pout;

  // Build a model with the same clustering parameters…
  auto [bcode, bout] =
      Run({"build", "--store=" + Path("baskets.store"), "--sample-size=400",
           "--theta=0.5", "--k=10", "--model=" + Path("model.rock")});
  ASSERT_EQ(bcode, 0) << bout;
  EXPECT_NE(bout.find("build: sample=400"), std::string::npos);
  ASSERT_TRUE(std::filesystem::exists(Path("model.rock")));

  // …then serve the whole store through the query path: the CSV must be
  // byte-identical to the batch pipeline's.
  auto [qcode, qout] =
      Run({"query", "--model=" + Path("model.rock"),
           "--from-store=" + Path("baskets.store"), "--threads=2",
           "--assignments=" + Path("served.csv")});
  ASSERT_EQ(qcode, 0) << qout;
  EXPECT_EQ(Slurp(Path("served.csv")), Slurp(Path("batch.csv")));

  // One-shot query: any answer is fine, but it must be a bare integer.
  auto [ocode, oout] =
      Run({"query", "--model=" + Path("model.rock"), "3", "5", "9"});
  ASSERT_EQ(ocode, 0) << oout;
  EXPECT_FALSE(oout.empty());
  EXPECT_NE(oout.find_first_of("-0123456789"), std::string::npos);
}

TEST_F(CliTest, ServeSpeaksTheLineProtocol) {
  auto [gcode, gout] = Run({"gen", "--dataset=basket", "--scale=0.02",
                            "--out=" + Path("baskets.store")});
  ASSERT_EQ(gcode, 0) << gout;
  auto [bcode, bout] =
      Run({"build", "--store=" + Path("baskets.store"), "--sample-size=400",
           "--theta=0.5", "--k=10", "--model=" + Path("model.rock")});
  ASSERT_EQ(bcode, 0) << bout;

  std::istringstream queries(
      "# comment\n"
      "3 5 9\n"
      "bogus\n");
  std::ostringstream answers;
  std::string out;
  const int code = RunCli({"serve", "--model=" + Path("model.rock"),
                           "--threads=2",
                           "--metrics-json=" + Path("serve.json")},
                          &out, &queries, &answers);
  ASSERT_EQ(code, 0) << out;
  // Protocol answers go to the stream — and only there.
  EXPECT_EQ(out, "");
  std::istringstream lines(answers.str());
  std::string line;
  std::vector<std::string> got;
  while (std::getline(lines, line)) got.push_back(line);
  ASSERT_EQ(got.size(), 2u) << answers.str();
  EXPECT_NE(got[0].find_first_of("-0123456789"), std::string::npos);
  EXPECT_EQ(got[1].substr(0, 4), "ERR:");

  const std::string metrics = Slurp(Path("serve.json"));
  EXPECT_NE(metrics.find("serve.requests"), std::string::npos);
  EXPECT_NE(metrics.find("serve.qps"), std::string::npos);

  // Without streams, serve is a flag error.
  auto [scode, sout] = Run({"serve", "--model=" + Path("model.rock")});
  EXPECT_EQ(scode, 2);
  EXPECT_NE(sout.find("stream"), std::string::npos);
}

TEST_F(CliTest, ClusterStoreInputDirectly) {
  auto [gcode, gout] = Run({"gen", "--dataset=basket", "--scale=0.005",
                            "--out=" + Path("tiny.store")});
  ASSERT_EQ(gcode, 0) << gout;
  auto [code, out] = Run({"cluster", "--input=" + Path("tiny.store"),
                          "--format=store", "--theta=0.5", "--k=10"});
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("transactions"), std::string::npos);
}

TEST_F(CliTest, ClusterBasketTextFormat) {
  {
    std::ofstream f(Path("basket.txt"));
    f << "A milk bread eggs\n"
      << "A milk bread butter\n"
      << "A bread eggs butter\n"
      << "B wine cheese grapes\n"
      << "B wine cheese olives\n"
      << "B cheese grapes olives\n"
      << "\n";
  }
  auto [code, out] =
      Run({"cluster", "--input=" + Path("basket.txt"), "--format=basket",
           "--label-first", "--theta=0.4", "--k=2"});
  ASSERT_EQ(code, 0) << out;
  EXPECT_NE(out.find("clusters: 2"), std::string::npos);
  EXPECT_NE(out.find("purity: 1.0000"), std::string::npos);
}

TEST_F(CliTest, ProfilesFlagPrintsProfiles) {
  auto [gcode, gout] = Run({"gen", "--dataset=votes",
                            "--out=" + Path("votes.csv")});
  ASSERT_EQ(gcode, 0) << gout;
  auto [code, out] = Run({"cluster", "--input=" + Path("votes.csv"),
                          "--theta=0.73", "--k=2", "--profiles"});
  ASSERT_EQ(code, 0) << out;
  EXPECT_NE(out.find("Cluster 1 (size"), std::string::npos);
}

TEST_F(CliTest, ErrorsAreReported) {
  auto [code, out] = Run({"cluster", "--input=/no/such/file.csv"});
  EXPECT_EQ(code, 1);
  EXPECT_NE(out.find("error:"), std::string::npos);

  auto [code2, out2] = Run({"cluster"});
  EXPECT_EQ(code2, 2);
  EXPECT_NE(out2.find("--input is required"), std::string::npos);

  auto [code3, out3] = Run({"gen", "--dataset=nonsense",
                            "--out=" + Path("x")});
  EXPECT_EQ(code3, 2);

  auto [code4, out4] = Run({"cluster", "--input=x", "--format=weird"});
  EXPECT_EQ(code4, 1);
  EXPECT_NE(out4.find("unknown --format"), std::string::npos);

  auto [code5, out5] = Run({"pipeline"});
  EXPECT_EQ(code5, 2);
}

// The shared thread flag: the clustering (and so the purity line) is the
// same at any --threads value, and a malformed value is a flag error. The
// test keeps the name it had while `cluster` could switch neighbor
// engines.
TEST_F(CliTest, NeighborEngineFlagSelectsAndValidates) {
  auto [gcode, gout] = Run({"gen", "--dataset=votes",
                            "--out=" + Path("votes.csv")});
  ASSERT_EQ(gcode, 0) << gout;
  std::string purity_line;
  for (const char* threads : {"1", "2"}) {
    auto [code, out] = Run({"cluster", "--input=" + Path("votes.csv"),
                            "--theta=0.73", "--k=2",
                            std::string("--threads=") + threads});
    ASSERT_EQ(code, 0) << out;
    const size_t pos = out.find("purity:");
    ASSERT_NE(pos, std::string::npos) << out;
    const std::string line = out.substr(pos, out.find('\n', pos) - pos);
    if (purity_line.empty()) {
      purity_line = line;
    } else {
      EXPECT_EQ(line, purity_line);
    }
  }
  auto [bcode, bout] = Run({"cluster", "--input=" + Path("votes.csv"),
                            "--threads=many"});
  EXPECT_EQ(bcode, 2);
  EXPECT_NE(bout.find("cannot parse 'many' for --threads"),
            std::string::npos)
      << bout;
}

// `cluster` and `pipeline` share one thread-flag group. Every engine, LSH
// and thread flag retired from it (and the older --merge-threads) is an
// unknown flag on both.
TEST_F(CliTest, MergeEngineFlagRejectsRetiredNames) {
  auto [gcode, gout] = Run({"gen", "--dataset=votes",
                            "--out=" + Path("votes.csv")});
  ASSERT_EQ(gcode, 0) << gout;
  const std::vector<std::string> commands[] = {
      {"cluster", "--input=" + Path("votes.csv"), "--theta=0.73", "--k=2"},
      {"pipeline", "--store=" + Path("missing.store")},
  };
  const std::pair<const char*, const char*> retired[] = {
      {"merge-engine", "flat"},   {"merge-engine", "hashed"},
      {"merge-threads", "2"},     {"neighbor-engine", "scalar"},
      {"link-engine", "hashed"},  {"lsh-bands", "33"},
      {"lsh-rows", "5"},          {"lsh-seed", "7"},
      {"graph-threads", "2"},
  };
  for (const auto& base : commands) {
    SCOPED_TRACE(base.front());
    for (const auto& [flag, value] : retired) {
      SCOPED_TRACE(flag);
      std::vector<std::string> args = base;
      args.push_back(std::string("--") + flag + "=" + value);
      auto [code, out] = Run(args);
      EXPECT_EQ(code, 2) << out;
      EXPECT_NE(out.find(std::string("unknown flag --") + flag),
                std::string::npos)
          << out;
    }
  }
}

TEST_F(CliTest, GenMushroomScaled) {
  auto [code, out] = Run({"gen", "--dataset=mushroom", "--scale=0.02",
                          "--out=" + Path("mush.csv")});
  ASSERT_EQ(code, 0) << out;
  auto [ccode, cout] = Run({"cluster", "--input=" + Path("mush.csv"),
                            "--theta=0.8", "--k=20"});
  EXPECT_EQ(ccode, 0) << cout;
  EXPECT_NE(cout.find("purity:"), std::string::npos);
}

TEST_F(CliTest, GenFundsCsvWithPairwiseMissing) {
  auto [code, out] = Run({"gen", "--dataset=funds",
                          "--out=" + Path("funds.csv")});
  ASSERT_EQ(code, 0) << out;
  auto [ccode, cout] =
      Run({"cluster", "--input=" + Path("funds.csv"),
           "--similarity=pairwise-missing", "--theta=0.8", "--k=40"});
  EXPECT_EQ(ccode, 0) << cout;
  EXPECT_NE(cout.find("clusters: 40"), std::string::npos);
}


TEST_F(CliTest, ClusterArffInput) {
  {
    std::ofstream f(Path("votes.arff"));
    f << "@relation votes\n"
      << "@attribute issue1 {y,n}\n"
      << "@attribute issue2 {y,n}\n"
      << "@attribute issue3 {y,n}\n"
      << "@attribute class {r,d}\n"
      << "@data\n";
    for (int i = 0; i < 8; ++i) f << "y,y,n,r\n";
    for (int i = 0; i < 8; ++i) f << "n,n,y,d\n";
  }
  auto [code, out] = Run({"cluster", "--input=" + Path("votes.arff"),
                          "--format=arff", "--theta=0.6", "--k=2"});
  ASSERT_EQ(code, 0) << out;
  EXPECT_NE(out.find("clusters: 2"), std::string::npos);
  EXPECT_NE(out.find("purity: 1.0000"), std::string::npos);
}

// Golden schema test for --metrics-json: the key set and stage list must
// stay stable (values are masked — timings are machine-dependent).
TEST_F(CliTest, MetricsJsonGoldenSchema) {
  auto [gcode, gout] = Run({"gen", "--dataset=votes",
                            "--out=" + Path("votes.csv")});
  ASSERT_EQ(gcode, 0) << gout;

  auto [code, out] =
      Run({"cluster", "--input=" + Path("votes.csv"), "--theta=0.73",
           "--k=2", "--stop-multiple=3", "--min-support=5",
           "--check-invariants=8",
           "--metrics-json=" + Path("metrics.json")});
  ASSERT_EQ(code, 0) << out;
  EXPECT_NE(out.find("diag: invariant checks="), std::string::npos);
  EXPECT_NE(out.find("violations=0"), std::string::npos);

  const std::string json = Slurp(Path("metrics.json"));
  ASSERT_FALSE(json.empty());

  // Stage list, with values unmasked — stages are stable across machines.
  EXPECT_NE(json.find("\"stages\": [\"criterion\", \"links\", "
                      "\"links.pack\", \"links.seed\", \"merge\", "
                      "\"merge.heap\", \"merge.relink\", "
                      "\"neighbors\", \"neighbors.assemble\", "
                      "\"neighbors.pack\", \"neighbors.sweep\", "
                      "\"total\"]"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"tool\": \"cluster\""), std::string::npos);
  EXPECT_NE(json.find("\"version\": 1"), std::string::npos);

  // Golden key set (values masked).
  const std::set<std::string> expected = {
      "version",         "tool",
      "stages",          "timers",
      "counters",        "gauges",
      "stage.criterion",
      "stage.links",     "stage.links.pack",
      "stage.links.seed",
      "stage.merge",
      "stage.merge.heap",
      "stage.merge.relink",
      "stage.neighbors", "stage.neighbors.pack",
      "stage.neighbors.sweep", "stage.neighbors.assemble",
      "stage.total",
      "neighbors.pairs_evaluated",
      "neighbors.pairs_pruned",
      "count",           "total_seconds",
      "min_seconds",     "max_seconds",
      "diag.invariant_checks",
      "diag.invariant_violations",
      "graph.points",    "graph.edges",
      "graph.max_degree",
      "graph.threads",
      "mem.graph.bytes",
      "prune.isolated_points",
      "links.nonzero_pairs",
      "links.total",
      "links.candidate_pairs",
      "links.pairs_counted",
      "links.span_words",
      "heap.global_peak",
      "heap.local_entries_peak",
      "heap.ops",
      "merge.merges",
      "merge.goodness_updates",
      "merge.relink_partners",
      "merge.relink_dead_skipped",
      "merge.relink_compactions",
      "merge.relink_best_rescans",
      "merge.compact_sweeps",
      "mem.links.upper_bytes",
      "mem.merge.arena_peak_bytes",
      "weed.clusters",   "weed.points",
      "graph.average_degree",
      "criterion.value",
      "decision.neighbors.n",
      "decision.neighbors.words_per_row",
      "decision.neighbors.dense_cost_s",
      "decision.neighbors.scan_cost_s",
      "decision.neighbors.pass",
      "decision.links.scatter_ops",
      "decision.links.plane_word_reads",
      "decision.links.pass",
  };
  EXPECT_EQ(JsonKeys(json), expected);
}

TEST_F(CliTest, MetricsJsonPipeline) {
  auto [gcode, gout] = Run({"gen", "--dataset=basket", "--scale=0.02",
                            "--out=" + Path("baskets.store")});
  ASSERT_EQ(gcode, 0) << gout;
  auto [code, out] =
      Run({"pipeline", "--store=" + Path("baskets.store"),
           "--sample-size=400", "--theta=0.5", "--k=10",
           "--metrics-json=" + Path("pipe_metrics.json")});
  ASSERT_EQ(code, 0) << out;
  const std::string json = Slurp(Path("pipe_metrics.json"));
  EXPECT_NE(json.find("\"tool\": \"pipeline\""), std::string::npos);
  const std::set<std::string> keys = JsonKeys(json);
  for (const char* stage :
       {"stage.sample", "stage.label", "stage.neighbors", "stage.links",
        "stage.merge"}) {
    EXPECT_TRUE(keys.count(stage)) << stage;
  }
  EXPECT_TRUE(keys.count("sample.rows"));
  EXPECT_TRUE(keys.count("label.rows"));
  EXPECT_TRUE(keys.count("label.outliers"));
}

TEST_F(CliTest, MetricsJsonRequiresRockAlgo) {
  auto [gcode, gout] = Run({"gen", "--dataset=votes",
                            "--out=" + Path("votes.csv")});
  ASSERT_EQ(gcode, 0) << gout;
  auto [code, out] = Run({"cluster", "--input=" + Path("votes.csv"),
                          "--algo=kmeans", "--k=2",
                          "--metrics-json=" + Path("m.json")});
  EXPECT_EQ(code, 2);
  EXPECT_NE(out.find("--metrics-json requires --algo=rock"),
            std::string::npos);
}

}  // namespace
}  // namespace rock

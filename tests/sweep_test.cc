// Tests for core/sweep.h and the corresponding CLI surface (sweep command,
// --json summary).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "cli/cli.h"
#include "core/sweep.h"
#include "similarity/jaccard.h"
#include "synth/basket_generator.h"

namespace rock {
namespace {

TEST(ThetaGridTest, EvenSpacing) {
  EXPECT_EQ(ThetaGrid(0.0, 1.0, 5),
            (std::vector<double>{0.0, 0.25, 0.5, 0.75, 1.0}));
  EXPECT_EQ(ThetaGrid(0.5, 0.9, 1), (std::vector<double>{0.5}));
  EXPECT_TRUE(ThetaGrid(0.1, 0.2, 0).empty());
}

TEST(SweepThetaTest, ReportsMonotonicDegreeAndShattering) {
  BasketGeneratorOptions gen;
  gen.cluster_sizes = {80, 60};
  gen.items_per_cluster = {14, 12};
  gen.num_outliers = 10;
  gen.mean_tx_size = 7.0;
  gen.stddev_tx_size = 1.0;
  gen.seed = 21;
  auto ds = GenerateBasketData(gen);
  ASSERT_TRUE(ds.ok());
  TransactionJaccard sim(*ds);

  RockOptions opt;
  opt.num_clusters = 2;
  auto sweep = SweepTheta(sim, opt, {0.2, 0.4, 0.6, 0.8});
  ASSERT_TRUE(sweep.ok());
  ASSERT_EQ(sweep->size(), 4u);

  // Degrees fall monotonically with theta (subgraph property).
  for (size_t i = 0; i + 1 < sweep->size(); ++i) {
    EXPECT_GE((*sweep)[i].average_degree, (*sweep)[i + 1].average_degree);
  }
  // Outliers never decrease with theta on this data.
  for (size_t i = 0; i + 1 < sweep->size(); ++i) {
    EXPECT_LE((*sweep)[i].num_outliers, (*sweep)[i + 1].num_outliers);
  }
  // Each point carries coherent bookkeeping.
  for (const SweepPoint& p : *sweep) {
    EXPECT_GE(p.largest_cluster, 1u);
    EXPECT_GE(p.num_clusters, 1u);
    EXPECT_GE(p.seconds, 0.0);
  }
}

TEST(SweepThetaTest, RejectsBadTheta) {
  TransactionDataset ds;
  ds.AddTransaction({"a"});
  ds.AddTransaction({"a"});
  TransactionJaccard sim(ds);
  EXPECT_TRUE(
      SweepTheta(sim, RockOptions{}, {0.5, 1.5}).status().IsInvalidArgument());
}

class SweepCliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("rock_sweep_cli_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  std::filesystem::path dir_;
};

TEST_F(SweepCliTest, SweepCommandTabulates) {
  std::string out;
  ASSERT_EQ(RunCli({"gen", "--dataset=votes", "--out=" + Path("v.csv")},
                   &out),
            0)
      << out;
  out.clear();
  const int code = RunCli({"sweep", "--input=" + Path("v.csv"), "--lo=0.6",
                           "--hi=0.8", "--steps=3", "--k=2"},
                          &out);
  ASSERT_EQ(code, 0) << out;
  EXPECT_NE(out.find("theta"), std::string::npos);
  EXPECT_NE(out.find("0.600"), std::string::npos);
  EXPECT_NE(out.find("0.800"), std::string::npos);
  // Help path.
  out.clear();
  EXPECT_EQ(RunCli({"sweep", "--help"}, &out), 0);
  EXPECT_NE(out.find("--steps"), std::string::npos);
  // Missing input.
  out.clear();
  EXPECT_EQ(RunCli({"sweep"}, &out), 2);
}

TEST_F(SweepCliTest, JsonSummaryIsWritten) {
  std::string out;
  ASSERT_EQ(RunCli({"gen", "--dataset=votes", "--out=" + Path("v.csv")},
                   &out),
            0);
  out.clear();
  const int code =
      RunCli({"cluster", "--input=" + Path("v.csv"), "--theta=0.73",
              "--k=2", "--json=" + Path("summary.json")},
             &out);
  ASSERT_EQ(code, 0) << out;
  std::ifstream in(Path("summary.json"));
  std::string json((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"num_clusters\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"purity\""), std::string::npos);
  EXPECT_NE(json.find("\"composition\""), std::string::npos);
}

TEST_F(SweepCliTest, LshAndThreadsFlagsWork) {
  std::string out;
  ASSERT_EQ(RunCli({"gen", "--dataset=basket", "--scale=0.005",
                    "--out=" + Path("b.store")},
                   &out),
            0)
      << out;
  out.clear();
  const int code =
      RunCli({"cluster", "--input=" + Path("b.store"), "--format=store",
              "--theta=0.5", "--k=10", "--threads=2"},
             &out);
  ASSERT_EQ(code, 0) << out;
  EXPECT_NE(out.find("clusters:"), std::string::npos);
  // The clusterer's neighbor pass is always exact: `rock cluster` has
  // neither a --neighbors flag nor the retired --neighbor-engine.
  out.clear();
  EXPECT_EQ(RunCli({"cluster", "--input=" + Path("b.store"),
                    "--format=store", "--theta=0.5", "--k=10",
                    "--neighbor-engine=lsh"},
                   &out),
            2);
  EXPECT_NE(out.find("unknown flag --neighbor-engine"), std::string::npos);
  out.clear();
  EXPECT_EQ(RunCli({"cluster", "--input=" + Path("b.store"),
                    "--format=store", "--neighbors=lsh"},
                   &out),
            2);
  EXPECT_NE(out.find("unknown flag --neighbors"), std::string::npos);
}

}  // namespace
}  // namespace rock

// Tests for the production-extension modules: set-similarity measures,
// extra clustering metrics (Fowlkes–Mallows, V-measure), labeler
// persistence through the model bundle, and the ARFF reader.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <numeric>
#include <vector>

#include "core/labeling.h"
#include "core/model_bundle.h"
#include "data/arff_reader.h"
#include "eval/metrics.h"
#include "similarity/set_measures.h"
#include "test_support.h"
#include "util/checksum.h"

namespace rock {
namespace {

// ------------------------------------------------------------ set measures --

TEST(SetMeasuresTest, KnownValues) {
  Transaction a({1, 2, 3});
  Transaction b({2, 3, 4, 5});
  // |∩| = 2.
  EXPECT_DOUBLE_EQ(DiceSimilarity(a, b), 2.0 * 2.0 / 7.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(a, b), 2.0 / std::sqrt(12.0));
  EXPECT_DOUBLE_EQ(OverlapSimilarity(a, b), 2.0 / 3.0);
}

TEST(SetMeasuresTest, EdgeCases) {
  Transaction empty;
  Transaction one({7});
  EXPECT_DOUBLE_EQ(DiceSimilarity(empty, empty), 0.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(empty, one), 0.0);
  EXPECT_DOUBLE_EQ(OverlapSimilarity(empty, one), 0.0);
  // Identical sets: all measures hit 1.
  Transaction s({1, 2});
  EXPECT_DOUBLE_EQ(DiceSimilarity(s, s), 1.0);
  EXPECT_DOUBLE_EQ(CosineSimilarity(s, s), 1.0);
  EXPECT_DOUBLE_EQ(OverlapSimilarity(s, s), 1.0);
}

TEST(SetMeasuresTest, OverlapScoresSubsetsAsOne) {
  Transaction sub({1, 2});
  Transaction super({1, 2, 3, 4, 5, 6});
  EXPECT_DOUBLE_EQ(OverlapSimilarity(sub, super), 1.0);
  EXPECT_LT(DiceSimilarity(sub, super), 1.0);
}

TEST(SetMeasuresTest, OrderingDiceGeJaccard) {
  // Dice ≥ Jaccard always; cosine between them for same-size sets.
  Transaction a({1, 2, 3, 4});
  Transaction b({3, 4, 5, 6});
  TransactionDataset ds;
  ds.AddTransaction(a);
  ds.AddTransaction(b);
  TransactionSetSimilarity jac(ds, SetMeasure::kJaccard);
  TransactionSetSimilarity dice(ds, SetMeasure::kDice);
  TransactionSetSimilarity cos(ds, SetMeasure::kCosine);
  TransactionSetSimilarity over(ds, SetMeasure::kOverlap);
  EXPECT_GT(dice.Similarity(0, 1), jac.Similarity(0, 1));
  EXPECT_GE(over.Similarity(0, 1), cos.Similarity(0, 1));
  EXPECT_DOUBLE_EQ(jac.Similarity(0, 1), 2.0 / 6.0);
}

TEST(SetMeasuresTest, SimpleMatching) {
  CategoricalDataset ds{Schema({"a", "b", "c", "d"})};
  ASSERT_TRUE(ds.AddRecord({"x", "y", "z", "w"}).ok());
  ASSERT_TRUE(ds.AddRecord({"x", "y", "q", "?"}).ok());
  SimpleMatchingSimilarity sim(ds);
  // 2 agreements over 4 attributes (missing counts as disagreement).
  EXPECT_DOUBLE_EQ(sim.Similarity(0, 1), 0.5);
  EXPECT_DOUBLE_EQ(sim.Similarity(0, 0), 1.0);
}

// ----------------------------------------------------------- extra metrics --

ContingencyTable PerfectTable() {
  auto t = ContingencyTable::Build({0, 0, 1, 1}, {0, 0, 1, 1}, 2, 2);
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

TEST(ExtraMetricsTest, FowlkesMallowsPerfect) {
  EXPECT_NEAR(FowlkesMallows(PerfectTable()), 1.0, 1e-12);
}

TEST(ExtraMetricsTest, FowlkesMallowsKnownValue) {
  // One cluster holding both classes evenly: TP = 2·C(2,2) = 2,
  // cluster_pairs = C(4,2) = 6, class_pairs = 2 → FM = 2/√12.
  auto t = ContingencyTable::Build({0, 0, 0, 0}, {0, 1, 0, 1}, 1, 2);
  ASSERT_TRUE(t.ok());
  EXPECT_NEAR(FowlkesMallows(*t), 2.0 / std::sqrt(12.0), 1e-12);
}

TEST(ExtraMetricsTest, VMeasurePerfect) {
  const VMeasure v = ComputeVMeasure(PerfectTable());
  EXPECT_NEAR(v.homogeneity, 1.0, 1e-12);
  EXPECT_NEAR(v.completeness, 1.0, 1e-12);
  EXPECT_NEAR(v.v, 1.0, 1e-12);
}

TEST(ExtraMetricsTest, VMeasureHomogeneousButIncomplete) {
  // Each class split into two pure clusters: homogeneity 1, completeness
  // < 1.
  auto t = ContingencyTable::Build({0, 1, 2, 3}, {0, 0, 1, 1}, 4, 2);
  ASSERT_TRUE(t.ok());
  const VMeasure v = ComputeVMeasure(*t);
  EXPECT_NEAR(v.homogeneity, 1.0, 1e-12);
  EXPECT_LT(v.completeness, 1.0);
  EXPECT_GT(v.v, 0.0);
  EXPECT_LT(v.v, 1.0);
}

TEST(ExtraMetricsTest, VMeasureCompleteButInhomogeneous) {
  // One cluster holding everything: completeness 1, homogeneity 0.
  auto t = ContingencyTable::Build({0, 0, 0, 0}, {0, 0, 1, 1}, 1, 2);
  ASSERT_TRUE(t.ok());
  const VMeasure v = ComputeVMeasure(*t);
  EXPECT_NEAR(v.completeness, 1.0, 1e-12);
  EXPECT_NEAR(v.homogeneity, 0.0, 1e-12);
  EXPECT_NEAR(v.v, 0.0, 1e-12);
}

// ----------------------------------------------------- labeler persistence --
//
// The model bundle is the one persisted form of a labeler: these drive the
// SaveModelBundle → LoadModelBundle → FromParts round trip.

class LabelerIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("rock_labeler_" + std::to_string(::getpid()) + ".bin");
  }
  void TearDown() override {
    std::filesystem::remove(path_);
    std::filesystem::remove(path_.string() + ".tmp");
  }
  std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

TEST_F(LabelerIoTest, SaveLoadRoundTripPreservesAssignments) {
  TransactionDataset sample;
  sample.AddTransaction({"a", "b"});
  sample.AddTransaction({"b", "c"});
  sample.AddTransaction({"a", "c"});
  sample.AddTransaction({"x", "y"});
  sample.AddTransaction({"y", "z"});
  Clustering clustering = Clustering::FromAssignment({0, 0, 0, 1, 1});
  RockOptions rock;
  rock.theta = 0.3;
  LabelingOptions opt;
  opt.fraction = 1.0;
  auto original =
      TransactionLabeler::Build(sample, clustering, rock, opt);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(SaveModelBundle(LabelerBundle(*original), path()).ok());

  auto loaded = LoadLabelerBundle(path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_clusters(), original->num_clusters());
  for (size_t c = 0; c < original->num_clusters(); ++c) {
    EXPECT_EQ(loaded->labeling_set_size(c),
              original->labeling_set_size(c));
  }
  // Identical assignments over a probe battery.
  const Dictionary& items = sample.items();
  std::vector<Transaction> probes = {
      Transaction({items.Lookup("a"), items.Lookup("b")}),
      Transaction({items.Lookup("x"), items.Lookup("y"),
                   items.Lookup("z")}),
      Transaction({items.Lookup("a"), items.Lookup("z")}),
      Transaction({999}),
      Transaction{},
  };
  for (const Transaction& probe : probes) {
    EXPECT_EQ(loaded->Assign(probe), original->Assign(probe));
  }
}

TEST_F(LabelerIoTest, LoadRejectsGarbage) {
  {
    std::FILE* f = std::fopen(path().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "not a labeler, not a model bundle";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  EXPECT_TRUE(LoadLabelerBundle(path()).status().IsCorruption());
  EXPECT_TRUE(LoadLabelerBundle("/no/such/file").status().IsIOError());
}

namespace {

// Frame layout (util/bytes.h): magic u64 | version u32 | payload_size u64 |
// crc32 u32, then the payload.
constexpr long kPayloadSizeOffset = 8 + 4;
constexpr long kCrcOffset = 8 + 4 + 8;
constexpr long kPayloadOffset = 8 + 4 + 8 + 4;
// Payload layout (core/model_bundle.h): fingerprint 11 × 8 | theta f64 |
// f_exponent f64 | num_clusters u64 | per cluster: set_size u64 | ...
constexpr long kNumClustersOffset = kPayloadOffset + 11 * 8 + 8 + 8;
constexpr long kFirstSetSizeOffset = kNumClustersOffset + 8;

/// Builds a small two-cluster labeler and saves its bundle to `path`.
void WriteValidLabelerFile(const std::string& path) {
  TransactionDataset sample;
  sample.AddTransaction({"a", "b"});
  sample.AddTransaction({"b", "c"});
  sample.AddTransaction({"x", "y"});
  sample.AddTransaction({"y", "z"});
  Clustering clustering = Clustering::FromAssignment({0, 0, 1, 1});
  RockOptions rock;
  rock.theta = 0.3;
  LabelingOptions opt;
  opt.fraction = 1.0;
  auto labeler = TransactionLabeler::Build(sample, clustering, rock, opt);
  ASSERT_TRUE(labeler.ok()) << labeler.status().ToString();
  ASSERT_TRUE(SaveModelBundle(LabelerBundle(*labeler), path).ok());
}

std::vector<uint8_t> ReadFile(const std::string& path) {
  std::vector<uint8_t> bytes(std::filesystem::file_size(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr);
  EXPECT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  return bytes;
}

void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// XORs one byte of the file at `offset` with `mask`.
void FlipByte(const std::string& path, long offset, unsigned char mask) {
  std::vector<uint8_t> bytes = ReadFile(path);
  ASSERT_LT(static_cast<size_t>(offset), bytes.size());
  bytes[static_cast<size_t>(offset)] ^= mask;
  WriteFile(path, bytes);
}

/// Rewrites the frame's payload size and crc32 to match the bytes now on
/// disk, so a planted payload defect reaches the payload parser instead of
/// being caught by the frame checks.
void RestampFrame(const std::string& path) {
  std::vector<uint8_t> bytes = ReadFile(path);
  ASSERT_GE(bytes.size(), static_cast<size_t>(kPayloadOffset));
  const uint64_t size = bytes.size() - kPayloadOffset;
  const uint32_t crc = Crc32(bytes.data() + kPayloadOffset, size);
  std::memcpy(bytes.data() + kPayloadSizeOffset, &size, sizeof(size));
  std::memcpy(bytes.data() + kCrcOffset, &crc, sizeof(crc));
  WriteFile(path, bytes);
}

/// Asserts that loading `path` fails as Corruption whose text holds `what`.
void ExpectCorruption(const std::string& path, const std::string& what) {
  auto loaded = LoadLabelerBundle(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption()) << loaded.status().ToString();
  EXPECT_NE(loaded.status().ToString().find(what), std::string::npos)
      << loaded.status().ToString();
}

}  // namespace

TEST_F(LabelerIoTest, LoadRejectsTruncatedFile) {
  WriteValidLabelerFile(path());
  const auto full = std::filesystem::file_size(path());
  ASSERT_GT(full, 8u);
  // Cut mid-payload and mid-header: both must fail as corruption, at every
  // truncation point — a prefix of a bundle is never a bundle.
  for (uintmax_t keep : {full - 5, full / 2, uintmax_t{9}}) {
    std::filesystem::resize_file(path(), keep);
    EXPECT_TRUE(LoadLabelerBundle(path()).status().IsCorruption())
        << "kept " << keep << " of " << full << " bytes";
  }
}

TEST_F(LabelerIoTest, LoadRejectsBitFlippedCounts) {
  // Flipping a high bit of a count field must be caught by the plausibility
  // caps rather than driving a multi-gigabyte allocation. Each flip is
  // re-stamped with a fresh crc32, so the cap rejects it, not the checksum.
  WriteValidLabelerFile(path());
  FlipByte(path(), 0, 0xff);  // magic
  ExpectCorruption(path(), "is not a model bundle");

  WriteValidLabelerFile(path());
  FlipByte(path(), kNumClustersOffset + 6, 0xff);  // high byte
  RestampFrame(path());
  ExpectCorruption(path(), "implausible model cluster count");

  WriteValidLabelerFile(path());
  FlipByte(path(), kFirstSetSizeOffset + 6, 0xff);  // high byte
  RestampFrame(path());
  ExpectCorruption(path(), "implausible model transaction count");
}

TEST_F(LabelerIoTest, LoadRejectsTrailingBytes) {
  WriteValidLabelerFile(path());
  std::vector<uint8_t> bytes = ReadFile(path());
  bytes.push_back(0);
  WriteFile(path(), bytes);
  // Raw: the frame's payload size no longer matches the file.
  ExpectCorruption(path(), "payload size mismatch");
  // Re-framed: the payload parser finds the byte past the profile.
  RestampFrame(path());
  ExpectCorruption(path(), "trailing");
}

TEST_F(LabelerIoTest, SaveRejectsOversizeTransaction) {
  // Every count the loader caps, the saver caps too: a bundle the loader
  // would refuse is InvalidArgument and never reaches disk.
  std::vector<ItemId> huge((1u << 24) + 1);
  std::iota(huge.begin(), huge.end(), ItemId{0});
  ModelBundle oversize_transaction;
  oversize_transaction.theta = 0.5;
  oversize_transaction.f_exponent = 1.0 / 3.0;
  oversize_transaction.labeling_sets = {
      {Transaction(std::move(huge)), Transaction({1, 2})}};

  ModelBundle oversize_name;
  oversize_name.theta = 0.5;
  oversize_name.f_exponent = 1.0 / 3.0;
  oversize_name.labeling_sets = {{Transaction({0, 1})}};
  oversize_name.dictionary = {"a", std::string((1u << 16) + 1, 'n')};

  for (const ModelBundle* bundle : {&oversize_transaction, &oversize_name}) {
    const Status s = SaveModelBundle(*bundle, path());
    EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
    EXPECT_FALSE(std::filesystem::exists(path()));
    EXPECT_FALSE(std::filesystem::exists(path() + ".tmp"));
  }
  // One byte shorter is legal on both sides.
  oversize_name.dictionary[1].pop_back();
  ASSERT_TRUE(SaveModelBundle(oversize_name, path()).ok());
  auto loaded = LoadModelBundle(path());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->dictionary, oversize_name.dictionary);
}

// ------------------------------------------------------------------- ARFF --

constexpr char kArff[] = R"(% UCI-style comment
@relation votes

@attribute 'handicapped-infants' {y, n}
@attribute crime {y, n}
@attribute class {republican, democrat}

@data
y,n,democrat
n,y,republican
?,y,republican
)";

TEST(ArffReaderTest, ParsesNominalFile) {
  auto ds = ReadArffString(kArff);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->size(), 3u);
  EXPECT_EQ(ds->schema().num_attributes(), 2u);
  EXPECT_EQ(ds->schema().attribute_name(0), "handicapped-infants");
  EXPECT_TRUE(ds->record(2).IsMissing(0));
  EXPECT_EQ(ds->labels().Name(ds->labels().label(0)), "democrat");
  EXPECT_EQ(ds->labels().num_classes(), 2u);
}

TEST(ArffReaderTest, NoLabelAttribute) {
  ArffOptions opt;
  opt.label_attribute = "";
  auto ds = ReadArffString(kArff, opt);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->schema().num_attributes(), 3u);
  EXPECT_TRUE(ds->labels().empty());
}

TEST(ArffReaderTest, RejectsNumericAttributes) {
  const std::string text =
      "@relation r\n@attribute age numeric\n@data\n42\n";
  EXPECT_TRUE(ReadArffString(text).status().IsInvalidArgument());
}

TEST(ArffReaderTest, RejectsOutOfDomainValue) {
  const std::string text =
      "@relation r\n@attribute c {a,b}\n@data\nz\n";
  EXPECT_TRUE(ReadArffString(text).status().IsCorruption());
}

TEST(ArffReaderTest, RejectsRaggedRow) {
  const std::string text =
      "@relation r\n@attribute c {a,b}\n@attribute d {a,b}\n@data\na\n";
  EXPECT_TRUE(ReadArffString(text).status().IsCorruption());
}

TEST(ArffReaderTest, RejectsMissingDataSection) {
  EXPECT_TRUE(ReadArffString("@relation r\n@attribute c {a}\n")
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(ReadArffString("@relation r\n@data\n").status().IsCorruption());
}

TEST(ArffReaderTest, MissingLabelValueIsUnlabeled) {
  const std::string text =
      "@relation r\n@attribute c {a,b}\n@attribute class {x,y}\n"
      "@data\na,?\nb,x\n";
  auto ds = ReadArffString(text);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->labels().label(0), kNoLabel);
  EXPECT_EQ(ds->labels().Name(ds->labels().label(1)), "x");
}

TEST(ArffReaderTest, FileNotFound) {
  EXPECT_TRUE(ReadArffFile("/no/such.arff").status().IsIOError());
}

}  // namespace
}  // namespace rock

// Tests for data/: dictionary, transactions, records, datasets, transforms,
// time-series encoding, CSV reading, and the on-disk transaction store.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <vector>

#include "data/csv_reader.h"
#include "data/dataset.h"
#include "data/dictionary.h"
#include "data/disk_store.h"
#include "data/record.h"
#include "data/timeseries.h"
#include "data/transaction.h"
#include "data/transforms.h"

namespace rock {
namespace {

// ------------------------------------------------------------ Dictionary --

TEST(DictionaryTest, InternAssignsDenseIds) {
  Dictionary d;
  EXPECT_EQ(d.Intern("milk"), 0u);
  EXPECT_EQ(d.Intern("bread"), 1u);
  EXPECT_EQ(d.Intern("milk"), 0u);  // idempotent
  EXPECT_EQ(d.size(), 2u);
}

TEST(DictionaryTest, LookupMissingReturnsSentinel) {
  Dictionary d;
  d.Intern("x");
  EXPECT_EQ(d.Lookup("x"), 0u);
  EXPECT_EQ(d.Lookup("y"), kNoItem);
}

TEST(DictionaryTest, NameRoundTrips) {
  Dictionary d;
  const ItemId id = d.Intern("swiss cheese");
  EXPECT_EQ(d.Name(id), "swiss cheese");
}

// ----------------------------------------------------------- Transaction --

TEST(TransactionTest, SortsAndDeduplicates) {
  Transaction t({5, 1, 3, 1, 5});
  EXPECT_EQ(t.items(), (std::vector<ItemId>{1, 3, 5}));
  EXPECT_EQ(t.size(), 3u);
}

TEST(TransactionTest, ContainsUsesBinarySearch) {
  Transaction t({2, 4, 6});
  EXPECT_TRUE(t.Contains(4));
  EXPECT_FALSE(t.Contains(5));
}

TEST(TransactionTest, EmptyTransaction) {
  Transaction t;
  EXPECT_TRUE(t.empty());
  EXPECT_FALSE(t.Contains(0));
}

TEST(TransactionTest, IntersectionAndUnion) {
  // Paper Example 1.1 transactions (a) {1,2,3,5} and (b) {2,3,4,5}.
  Transaction a({1, 2, 3, 5});
  Transaction b({2, 3, 4, 5});
  EXPECT_EQ(IntersectionSize(a, b), 3u);
  EXPECT_EQ(UnionSize(a, b), 5u);
}

TEST(TransactionTest, DisjointSets) {
  Transaction a({1, 4});
  Transaction b({6});
  EXPECT_EQ(IntersectionSize(a, b), 0u);
  EXPECT_EQ(UnionSize(a, b), 3u);
}

TEST(TransactionTest, IntersectionWithSelf) {
  Transaction a({1, 2, 3});
  EXPECT_EQ(IntersectionSize(a, a), 3u);
  EXPECT_EQ(UnionSize(a, a), 3u);
}

TEST(TransactionTest, AssignSortedUniqueChecksEveryAdjacentPair) {
  // Every length 0..40: ascending ids are taken as they are; a duplicate
  // or a descent at any single position empties the row.
  Transaction t({99});
  for (size_t n = 0; n <= 40; ++n) {
    std::vector<ItemId> ids(n);
    for (size_t i = 0; i < n; ++i) ids[i] = static_cast<ItemId>(3 * i + 1);
    ASSERT_TRUE(t.AssignSortedUnique(ids.data(), n)) << "n=" << n;
    EXPECT_EQ(t.items(), ids);
    for (size_t i = 0; i + 1 < n; ++i) {
      std::vector<ItemId> dup = ids;
      dup[i + 1] = dup[i];
      EXPECT_FALSE(t.AssignSortedUnique(dup.data(), n)) << n << " dup " << i;
      EXPECT_TRUE(t.empty());
      std::vector<ItemId> swapped = ids;
      std::swap(swapped[i], swapped[i + 1]);
      EXPECT_FALSE(t.AssignSortedUnique(swapped.data(), n))
          << n << " swap " << i;
    }
  }
  // Ids on both sides of 2^31 compare unsigned.
  const std::vector<ItemId> high = {1, 0x7fffffffu, 0x80000000u, 0x80000001u,
                                    0xfffffffeu, 0xffffffffu};
  EXPECT_TRUE(t.AssignSortedUnique(high.data(), high.size()));
  const std::vector<ItemId> wrap = {1, 2, 0x80000000u, 3, 4, 5};
  EXPECT_FALSE(t.AssignSortedUnique(wrap.data(), wrap.size()));
  // Unaligned source bytes.
  std::vector<unsigned char> bytes(1 + high.size() * sizeof(ItemId));
  std::memcpy(bytes.data() + 1, high.data(), high.size() * sizeof(ItemId));
  ASSERT_TRUE(t.AssignSortedUnique(bytes.data() + 1, high.size()));
  EXPECT_EQ(t.items(), high);
}

// ----------------------------------------------------------------- Record --

TEST(RecordTest, SchemaInternsPerAttributeDomains) {
  Schema s({"color", "size"});
  const ValueId red = s.InternValue(0, "red");
  const ValueId big = s.InternValue(1, "big");
  EXPECT_EQ(red, 0u);
  EXPECT_EQ(big, 0u);  // separate domains both start at 0
  EXPECT_EQ(s.LookupValue(0, "red"), red);
  EXPECT_EQ(s.LookupValue(1, "red"), kNoItem);
  EXPECT_EQ(s.ValueName(0, red), "red");
}

TEST(RecordTest, TotalDomainSize) {
  Schema s({"a", "b"});
  s.InternValue(0, "x");
  s.InternValue(0, "y");
  s.InternValue(1, "z");
  EXPECT_EQ(s.TotalDomainSize(), 3u);
}

TEST(RecordTest, MissingValues) {
  Record r({0, kMissingValue, 2});
  EXPECT_FALSE(r.IsMissing(0));
  EXPECT_TRUE(r.IsMissing(1));
  EXPECT_EQ(r.NumPresent(), 2u);
}

// ---------------------------------------------------------------- Dataset --

TEST(TransactionDatasetTest, AddByNames) {
  TransactionDataset ds;
  ds.AddTransaction({"wine", "cheese"});
  ds.AddTransaction({"cheese", "beer"});
  EXPECT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds.items().size(), 3u);
  // Shared item must map to the same id.
  const ItemId cheese = ds.items().Lookup("cheese");
  EXPECT_TRUE(ds.transaction(0).Contains(cheese));
  EXPECT_TRUE(ds.transaction(1).Contains(cheese));
}

TEST(TransactionDatasetTest, MeanTransactionSize) {
  TransactionDataset ds;
  ds.AddTransaction({"a"});
  ds.AddTransaction({"a", "b", "c"});
  EXPECT_DOUBLE_EQ(ds.MeanTransactionSize(), 2.0);
  EXPECT_DOUBLE_EQ(TransactionDataset{}.MeanTransactionSize(), 0.0);
}

TEST(CategoricalDatasetTest, AddRecordEncodesAndHandlesMissing) {
  CategoricalDataset ds{Schema({"color", "shape"})};
  ASSERT_TRUE(ds.AddRecord({"red", "round"}).ok());
  ASSERT_TRUE(ds.AddRecord({"?", "round"}).ok());
  EXPECT_EQ(ds.size(), 2u);
  EXPECT_TRUE(ds.record(1).IsMissing(0));
  EXPECT_EQ(ds.record(0).value(1), ds.record(1).value(1));
  EXPECT_DOUBLE_EQ(ds.MissingRate(), 0.25);
}

TEST(CategoricalDatasetTest, ArityMismatchFails) {
  CategoricalDataset ds{Schema({"a", "b"})};
  EXPECT_TRUE(ds.AddRecord({"x"}).IsInvalidArgument());
  EXPECT_TRUE(ds.AddRecord(Record({0u})).IsInvalidArgument());
}

TEST(LabelSetTest, InternsAndCounts) {
  LabelSet ls;
  ls.Append("republican");
  ls.Append("democrat");
  ls.Append("republican");
  ls.AppendUnlabeled();
  EXPECT_EQ(ls.num_classes(), 2u);
  EXPECT_EQ(ls.label(0), ls.label(2));
  EXPECT_EQ(ls.label(3), kNoLabel);
  EXPECT_EQ(ls.Name(ls.label(1)), "democrat");
}

// ------------------------------------------------------------- Transforms --

TEST(TransformsTest, RecordsBecomeAvItems) {
  CategoricalDataset ds{Schema({"color", "shape"})};
  ASSERT_TRUE(ds.AddRecord({"red", "round"}).ok());
  ASSERT_TRUE(ds.AddRecord({"red", "square"}).ok());
  ds.labels().Append("a");
  ds.labels().Append("b");

  TransactionDataset tx = RecordsToTransactions(ds);
  ASSERT_EQ(tx.size(), 2u);
  EXPECT_EQ(tx.transaction(0).size(), 2u);
  // Shared "color=red" item appears in both transactions.
  EXPECT_EQ(IntersectionSize(tx.transaction(0), tx.transaction(1)), 1u);
  EXPECT_EQ(tx.labels().Name(tx.labels().label(1)), "b");
}

TEST(TransformsTest, MissingValuesProduceNoItem) {
  CategoricalDataset ds{Schema({"a", "b", "c"})};
  ASSERT_TRUE(ds.AddRecord({"x", "?", "z"}).ok());
  TransactionDataset tx = RecordsToTransactions(ds);
  EXPECT_EQ(tx.transaction(0).size(), 2u);
}

// ------------------------------------------------------------- TimeSeries --

TEST(TimeSeriesTest, ClassifyMove) {
  EXPECT_EQ(ClassifyMove(10.0, 10.5), PriceMove::kUp);
  EXPECT_EQ(ClassifyMove(10.0, 9.5), PriceMove::kDown);
  EXPECT_EQ(ClassifyMove(10.0, 10.0), PriceMove::kNo);
  // Sub-epsilon wiggles count as no change.
  EXPECT_EQ(ClassifyMove(10.0, 10.0 + 1e-12), PriceMove::kNo);
}

TEST(TimeSeriesTest, TransformsToUpDownNo) {
  TimeSeriesSet set;
  set.num_dates = 4;
  set.series.push_back(
      TimeSeries{"F0", "bonds", {10.0, 11.0, 11.0, 10.0}});
  auto ds = TimeSeriesToCategorical(set);
  ASSERT_TRUE(ds.ok());
  ASSERT_EQ(ds->schema().num_attributes(), 3u);
  const Record& r = ds->record(0);
  EXPECT_EQ(ds->schema().ValueName(0, r.value(0)), "Up");
  EXPECT_EQ(ds->schema().ValueName(1, r.value(1)), "No");
  EXPECT_EQ(ds->schema().ValueName(2, r.value(2)), "Down");
  EXPECT_EQ(ds->labels().Name(ds->labels().label(0)), "bonds");
}

TEST(TimeSeriesTest, MissingPricesYieldMissingTransitions) {
  TimeSeriesSet set;
  set.num_dates = 4;
  // Young fund: first two dates unobserved.
  set.series.push_back(
      TimeSeries{"F0", "", {std::nullopt, std::nullopt, 5.0, 6.0}});
  auto ds = TimeSeriesToCategorical(set);
  ASSERT_TRUE(ds.ok());
  const Record& r = ds->record(0);
  EXPECT_TRUE(r.IsMissing(0));
  EXPECT_TRUE(r.IsMissing(1));  // needs both endpoints
  EXPECT_FALSE(r.IsMissing(2));
}

TEST(TimeSeriesTest, LengthMismatchFails) {
  TimeSeriesSet set;
  set.num_dates = 3;
  set.series.push_back(TimeSeries{"F0", "", {1.0, 2.0}});
  EXPECT_TRUE(TimeSeriesToCategorical(set).status().IsInvalidArgument());
}

TEST(TimeSeriesTest, TooFewDatesFails) {
  TimeSeriesSet set;
  set.num_dates = 1;
  EXPECT_TRUE(TimeSeriesToCategorical(set).status().IsInvalidArgument());
}

// -------------------------------------------------------------------- CSV --

TEST(CsvReaderTest, ParsesUciStyleRows) {
  const std::string text =
      "republican,n,y,?\n"
      "democrat,y,y,n\n";
  CsvOptions opt;
  auto ds = ReadCsvString(text, opt);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->size(), 2u);
  EXPECT_EQ(ds->schema().num_attributes(), 3u);
  EXPECT_TRUE(ds->record(0).IsMissing(2));
  EXPECT_EQ(ds->labels().Name(ds->labels().label(0)), "republican");
}

TEST(CsvReaderTest, HeaderNamesAttributes) {
  const std::string text =
      "class,odor,size\n"
      "edible,none,big\n";
  CsvOptions opt;
  opt.has_header = true;
  auto ds = ReadCsvString(text, opt);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->schema().attribute_name(0), "odor");
  EXPECT_EQ(ds->schema().attribute_name(1), "size");
}

TEST(CsvReaderTest, NoLabelColumn) {
  CsvOptions opt;
  opt.label_column = -1;
  auto ds = ReadCsvString("a,b\nc,d\n", opt);
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->schema().num_attributes(), 2u);
  EXPECT_TRUE(ds->labels().empty());
}

TEST(CsvReaderTest, RaggedRowIsCorruption) {
  auto ds = ReadCsvString("l,a,b\nl,a\n", CsvOptions{});
  EXPECT_TRUE(ds.status().IsCorruption());
}

TEST(CsvReaderTest, EmptyInputFails) {
  EXPECT_TRUE(ReadCsvString("", CsvOptions{}).status().IsInvalidArgument());
  EXPECT_TRUE(
      ReadCsvString("\n\n", CsvOptions{}).status().IsInvalidArgument());
}

TEST(CsvReaderTest, HandlesCrLfAndBlankLines) {
  auto ds = ReadCsvString("l,a\r\n\r\nl,b\r\n", CsvOptions{});
  ASSERT_TRUE(ds.ok());
  EXPECT_EQ(ds->size(), 2u);
}

TEST(CsvReaderTest, MissingFileIsIOError) {
  auto ds = ReadCsvFile("/nonexistent/path.data", CsvOptions{});
  EXPECT_TRUE(ds.status().IsIOError());
}

// ------------------------------------------------------------- Disk store --

class DiskStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("rock_store_test_" + std::to_string(::getpid()) + ".bin");
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

TEST_F(DiskStoreTest, RoundTripsTransactionsAndLabels) {
  {
    auto writer = TransactionStoreWriter::Open(path());
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    ASSERT_TRUE(writer->Append(Transaction({1, 2, 3}), 0).ok());
    ASSERT_TRUE(writer->Append(Transaction({4}), 1).ok());
    ASSERT_TRUE(writer->Append(Transaction({}), kNoLabel).ok());
    ASSERT_TRUE(writer->Finish().ok());
  }
  auto reader = TransactionStoreReader::Open(path());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->count(), 3u);

  ASSERT_TRUE(reader->Next());
  EXPECT_EQ(reader->transaction(), Transaction({1, 2, 3}));
  EXPECT_EQ(reader->label(), 0u);
  ASSERT_TRUE(reader->Next());
  EXPECT_EQ(reader->transaction(), Transaction({4}));
  ASSERT_TRUE(reader->Next());
  EXPECT_TRUE(reader->transaction().empty());
  EXPECT_EQ(reader->label(), kNoLabel);
  EXPECT_FALSE(reader->Next());
  EXPECT_TRUE(reader->status().ok());
}

TEST_F(DiskStoreTest, RewindRestartsStream) {
  {
    auto writer = TransactionStoreWriter::Open(path());
    ASSERT_TRUE(writer.ok());
    ASSERT_TRUE(writer->Append(Transaction({7, 8})).ok());
    ASSERT_TRUE(writer->Finish().ok());
  }
  auto reader = TransactionStoreReader::Open(path());
  ASSERT_TRUE(reader.ok());
  ASSERT_TRUE(reader->Next());
  EXPECT_FALSE(reader->Next());
  ASSERT_TRUE(reader->Rewind().ok());
  ASSERT_TRUE(reader->Next());
  EXPECT_EQ(reader->transaction(), Transaction({7, 8}));
}

TEST_F(DiskStoreTest, AppendAfterFinishFails) {
  auto writer = TransactionStoreWriter::Open(path());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer->Finish().ok());
  EXPECT_TRUE(writer->Append(Transaction({1})).IsFailedPrecondition());
}

TEST_F(DiskStoreTest, GarbageFileIsCorruption) {
  {
    std::FILE* f = std::fopen(path().c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char junk[] = "this is not a store";
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  auto reader = TransactionStoreReader::Open(path());
  EXPECT_TRUE(reader.status().IsCorruption());
}

TEST_F(DiskStoreTest, TruncatedBodyIsCorruption) {
  {
    auto writer = TransactionStoreWriter::Open(path());
    ASSERT_TRUE(writer.ok());
    for (uint32_t i = 0; i < 10; ++i) {
      ASSERT_TRUE(writer->Append(Transaction({i, i + 1, i + 2})).ok());
    }
    ASSERT_TRUE(writer->Finish().ok());
  }
  // Chop off the tail of the file.
  std::filesystem::resize_file(path(),
                               std::filesystem::file_size(path()) - 8);
  auto reader = TransactionStoreReader::Open(path());
  ASSERT_TRUE(reader.ok());
  size_t read = 0;
  while (reader->Next()) ++read;
  EXPECT_LT(read, 10u);
  EXPECT_TRUE(reader->status().IsCorruption());
}

TEST_F(DiskStoreTest, MissingFileIsIOError) {
  auto reader = TransactionStoreReader::Open("/does/not/exist.bin");
  EXPECT_TRUE(reader.status().IsIOError());
}

TEST_F(DiskStoreTest, DatasetRoundTripHelpers) {
  TransactionDataset ds;
  ds.AddTransaction({"a", "b"});
  ds.labels().Append("c0");
  ds.AddTransaction({"b", "c"});
  ds.labels().Append("c1");
  ASSERT_TRUE(WriteDatasetToStore(ds, path()).ok());

  auto loaded = ReadStoreToDataset(path(), &ds.labels());
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_EQ(loaded->transaction(0), ds.transaction(0));
  EXPECT_EQ(loaded->labels().Name(loaded->labels().label(1)), "c1");
}

}  // namespace
}  // namespace rock

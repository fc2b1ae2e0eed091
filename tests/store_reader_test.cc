// Tests for the transaction store's block reader (data/disk_store.h): rows
// that straddle the 64 KiB decode block or outgrow it, empty rows and
// stores, version-2 files, Rewind inside a block, range readers at every
// shard boundary, the sorted-and-unique row contract, trailing bytes that
// are already buffered, the writers' item-count cap, and the disk
// pipeline's sample and labeling pinned to recorded digests.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/pipeline.h"
#include "data/disk_store.h"
#include "synth/basket_generator.h"
#include "test_support.h"
#include "util/checksum.h"

namespace rock {
namespace {

/// One store record as the reader should return it.
struct Row {
  LabelId label = kNoLabel;
  std::vector<ItemId> items;

  bool operator==(const Row& other) const = default;
};

void PrintTo(const Row& row, std::ostream* os) {
  *os << "label " << row.label << ", " << row.items.size() << " items";
}

/// Encodes `rows` as a store file of `version` (2 or 3) byte for byte, with
/// a valid header CRC. Items are written exactly as given — unsorted or
/// duplicated ids included — so tests can build rows no writer emits.
std::vector<unsigned char> StoreBytes(uint32_t version,
                                      const std::vector<Row>& rows) {
  std::vector<unsigned char> body;
  auto put = [](std::vector<unsigned char>* out, const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    out->insert(out->end(), b, b + n);
  };
  for (const Row& row : rows) {
    const uint32_t n = static_cast<uint32_t>(row.items.size());
    put(&body, &row.label, sizeof(row.label));
    put(&body, &n, sizeof(n));
    put(&body, row.items.data(), n * sizeof(ItemId));
  }
  const uint64_t magic = 0x524f434b53544f52ULL;
  const uint64_t count = rows.size();
  const uint32_t crc = Crc32(body.data(), body.size());
  std::vector<unsigned char> out;
  put(&out, &magic, sizeof(magic));
  put(&out, &version, sizeof(version));
  put(&out, &count, sizeof(count));
  put(&out, &crc, sizeof(crc));
  if (version >= 3) {
    const uint64_t generation = 0;
    put(&out, &generation, sizeof(generation));
    put(&out, &count, sizeof(count));  // base_count
  }
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

/// Rows of random sizes in [0, max_items], strictly ascending ids.
std::vector<Row> RandomRows(size_t n, size_t max_items, uint64_t seed) {
  ROCK_SEEDED_RNG(rng, seed);
  std::vector<Row> rows(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i].label = i % 5 == 4 ? kNoLabel : static_cast<LabelId>(i % 5);
    const size_t len = static_cast<size_t>(rng.UniformUint64(max_items + 1));
    ItemId next = static_cast<ItemId>(rng.UniformUint64(8));
    for (size_t k = 0; k < len; ++k) {
      rows[i].items.push_back(next);
      next += 1 + static_cast<ItemId>(rng.UniformUint64(4));
    }
  }
  return rows;
}

/// A row of `n` consecutive ids starting at `first`.
Row WideRow(size_t n, ItemId first, LabelId label) {
  Row row{label, std::vector<ItemId>(n)};
  std::iota(row.items.begin(), row.items.end(), first);
  return row;
}

/// Drains `reader` into rows.
std::vector<Row> Drain(TransactionStoreReader* reader) {
  std::vector<Row> out;
  while (reader->Next()) {
    out.push_back(Row{reader->label(), reader->transaction().items()});
  }
  return out;
}

class StoreReaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("rock_store_reader_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name() +
             ".bin");
  }
  void TearDown() override {
    std::filesystem::remove(path_);
    std::filesystem::remove(path() + ".append.tmp");
  }
  std::string path() const { return path_.string(); }

  /// Writes `rows` through TransactionStoreWriter.
  void Write(const std::vector<Row>& rows) {
    auto writer = TransactionStoreWriter::Open(path());
    ASSERT_TRUE(writer.ok()) << writer.status().ToString();
    for (const Row& row : rows) {
      ASSERT_TRUE(writer->Append(Transaction(row.items), row.label).ok());
    }
    ASSERT_TRUE(writer->Finish().ok());
  }

  void WriteBytes(const std::vector<unsigned char>& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  std::vector<unsigned char> ReadBytes() const {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  /// Reads the whole store with Open and expects a clean end.
  std::vector<Row> ReadAll() {
    auto reader = TransactionStoreReader::Open(path());
    EXPECT_TRUE(reader.ok()) << reader.status().ToString();
    if (!reader.ok()) return {};
    std::vector<Row> rows = Drain(&*reader);
    EXPECT_TRUE(reader->status().ok()) << reader->status().ToString();
    return rows;
  }

 private:
  std::filesystem::path path_;
};

TEST_F(StoreReaderTest, RecordsStraddlingAndOutgrowingTheBlockRoundTrip) {
  // ~0.5 MB of records of up to 400 items cross the 64 KiB block boundary
  // at arbitrary offsets; two 20k-item rows (80 KB each) are longer than
  // the block itself, one of them the last record.
  std::vector<Row> rows = RandomRows(1200, 400, 0xb10c);
  rows.insert(rows.begin() + 300, WideRow(20000, 3, 7));
  rows.push_back(WideRow(20000, 100, 1));
  Write(rows);
  EXPECT_EQ(ReadAll(), rows);
}

TEST_F(StoreReaderTest, EmptyRowsAndEmptyStore) {
  Write({});
  EXPECT_TRUE(ReadAll().empty());

  std::vector<Row> rows(3000);  // 24 KB of header-only records
  rows[1500] = WideRow(17000, 0, 2);
  rows.back().label = 9;
  Write(rows);
  EXPECT_EQ(ReadAll(), rows);
}

TEST_F(StoreReaderTest, ReadsAVersion2Store) {
  std::vector<Row> rows = RandomRows(900, 150, 0x2222);
  rows.push_back(WideRow(20000, 5, 0));
  WriteBytes(StoreBytes(2, rows));
  auto reader = TransactionStoreReader::Open(path());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->generation(), 0u);
  EXPECT_EQ(reader->base_count(), rows.size());
  EXPECT_EQ(Drain(&*reader), rows);
  EXPECT_TRUE(reader->status().ok()) << reader->status().ToString();

  // The shard plan starts at the shorter v2 header.
  auto shards = TransactionStoreReader::PlanShards(path(), 3);
  ASSERT_TRUE(shards.ok()) << shards.status().ToString();
  std::vector<Row> ranged;
  for (const StoreShardRange& range : *shards) {
    auto r = TransactionStoreReader::OpenRange(path(), range);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    for (Row& row : Drain(&*r)) ranged.push_back(std::move(row));
    EXPECT_TRUE(r->status().ok()) << r->status().ToString();
  }
  EXPECT_EQ(ranged, rows);
}

TEST_F(StoreReaderTest, RewindInsideABlockRestartsTheStream) {
  const std::vector<Row> rows = RandomRows(2000, 60, 0x4e3d);
  Write(rows);

  auto reader = TransactionStoreReader::Open(path());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  for (int i = 0; i < 37; ++i) ASSERT_TRUE(reader->Next());
  ASSERT_TRUE(reader->Rewind().ok());
  EXPECT_EQ(Drain(&*reader), rows);
  EXPECT_TRUE(reader->status().ok()) << reader->status().ToString();
  // A rewind after the end-of-stream check runs it again.
  ASSERT_TRUE(reader->Rewind().ok());
  EXPECT_EQ(Drain(&*reader), rows);
  EXPECT_TRUE(reader->status().ok()) << reader->status().ToString();

  auto shards = TransactionStoreReader::PlanShards(path(), 4);
  ASSERT_TRUE(shards.ok()) << shards.status().ToString();
  const StoreShardRange range = (*shards)[2];
  auto ranged = TransactionStoreReader::OpenRange(path(), range);
  ASSERT_TRUE(ranged.ok()) << ranged.status().ToString();
  for (int i = 0; i < 11; ++i) ASSERT_TRUE(ranged->Next());
  ASSERT_TRUE(ranged->Rewind().ok());
  const auto first = rows.begin() + static_cast<ptrdiff_t>(range.first_row);
  const std::vector<Row> expect(
      first, first + static_cast<ptrdiff_t>(range.num_rows));
  EXPECT_EQ(Drain(&*ranged), expect);
  EXPECT_TRUE(ranged->status().ok()) << ranged->status().ToString();
}

TEST_F(StoreReaderTest, RangeReadersAtEveryShardBoundaryMatchTheWholeFile) {
  std::vector<Row> rows = RandomRows(3000, 90, 0x5a4d);
  rows[1234] = WideRow(20000, 1, 3);
  Write(rows);
  const std::vector<Row> whole = ReadAll();
  ASSERT_EQ(whole, rows);
  for (uint64_t max_shards = 1; max_shards <= 16; ++max_shards) {
    SCOPED_TRACE(::testing::Message() << "max_shards=" << max_shards);
    auto shards = TransactionStoreReader::PlanShards(path(), max_shards);
    ASSERT_TRUE(shards.ok()) << shards.status().ToString();
    ASSERT_EQ(shards->size(), max_shards);
    std::vector<Row> ranged;
    uint64_t next_row = 0;
    for (const StoreShardRange& range : *shards) {
      EXPECT_EQ(range.first_row, next_row);
      next_row += range.num_rows;
      auto r = TransactionStoreReader::OpenRange(path(), range);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      EXPECT_EQ(r->count(), range.num_rows);
      std::vector<Row> part = Drain(&*r);
      EXPECT_TRUE(r->status().ok()) << r->status().ToString();
      EXPECT_EQ(part.size(), range.num_rows);
      for (Row& row : part) ranged.push_back(std::move(row));
    }
    EXPECT_EQ(ranged, whole);
  }
}

TEST_F(StoreReaderTest, UnsortedOrDuplicateRowIsCorruptionInBothReaders) {
  const std::vector<Row> good = RandomRows(500, 30, 0x50f7);
  for (const std::vector<ItemId>& bad_items :
       {std::vector<ItemId>{9, 3, 12}, std::vector<ItemId>{4, 4},
        std::vector<ItemId>{1, 2, 3, 3, 5}}) {
    SCOPED_TRACE(::testing::Message() << "bad row of " << bad_items.size());
    std::vector<Row> rows = good;
    rows[300] = Row{1, bad_items};
    // The header CRC is valid: only the row contract can reject the file.
    WriteBytes(StoreBytes(3, rows));

    auto whole = TransactionStoreReader::Open(path());
    ASSERT_TRUE(whole.ok()) << whole.status().ToString();
    const std::vector<Row> before = Drain(&*whole);
    EXPECT_TRUE(whole->status().IsCorruption()) << whole->status().ToString();
    EXPECT_EQ(before, std::vector<Row>(good.begin(), good.begin() + 300));

    // The second of two shards holds rows [250, 500).
    auto shards = TransactionStoreReader::PlanShards(path(), 2);
    ASSERT_TRUE(shards.ok()) << shards.status().ToString();
    auto ranged = TransactionStoreReader::OpenRange(path(), (*shards)[1]);
    ASSERT_TRUE(ranged.ok()) << ranged.status().ToString();
    EXPECT_EQ(Drain(&*ranged),
              std::vector<Row>(good.begin() + 250, good.begin() + 300));
    EXPECT_TRUE(ranged->status().IsCorruption())
        << ranged->status().ToString();
  }
}

TEST_F(StoreReaderTest, BufferedTrailingGarbageIsCorruption) {
  const std::vector<Row> rows = RandomRows(40, 10, 0x7a11);
  Write(rows);
  std::vector<unsigned char> bytes = ReadBytes();
  bytes.insert(bytes.end(), {0x00, 0x5a, 0xff});
  WriteBytes(bytes);

  auto reader = TransactionStoreReader::Open(path());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(Drain(&*reader), rows);
  EXPECT_TRUE(reader->status().IsCorruption()) << reader->status().ToString();
}

// ------------------------------------------------------ Item-count cap --

/// A transaction one item past the reader's per-row cap.
Transaction OverlongTransaction() {
  std::vector<ItemId> items(size_t{kMaxTransactionItems} + 1);
  std::iota(items.begin(), items.end(), ItemId{0});
  return Transaction(std::move(items));
}

TEST_F(StoreReaderTest, WriterRejectsAnOverlongRowBeforeWritingIt) {
  auto writer = TransactionStoreWriter::Open(path());
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ASSERT_TRUE(writer->Append(Transaction({1, 2}), 0).ok());
  Status s = writer->Append(OverlongTransaction(), 1);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_EQ(writer->count(), 1u);
  ASSERT_TRUE(writer->Finish().ok());
  EXPECT_EQ(ReadAll(), (std::vector<Row>{Row{0, {1, 2}}}));
}

TEST_F(StoreReaderTest, AppendToStoreRejectsAnOverlongRowLeavingTheStore) {
  Write(RandomRows(20, 8, 0xa99e));
  const std::vector<unsigned char> before = ReadBytes();
  const std::vector<Transaction> batch = {Transaction({1}),
                                          OverlongTransaction()};
  auto appended = AppendToStore(path(), batch, nullptr);
  ASSERT_FALSE(appended.ok());
  EXPECT_TRUE(appended.status().IsInvalidArgument())
      << appended.status().ToString();
  EXPECT_EQ(ReadBytes(), before);
  EXPECT_FALSE(std::filesystem::exists(path() + ".append.tmp"));
}

// ------------------------------------------------- Pipeline digests --

/// FNV-1a over the sample rows and the per-row labeling.
uint64_t PipelineDigest(const PipelineResult& result) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ULL;
    }
  };
  const uint64_t rows = result.sample_rows.size();
  mix(&rows, sizeof(rows));
  mix(result.sample_rows.data(), rows * sizeof(uint64_t));
  mix(result.labeling.assignments.data(),
      result.labeling.assignments.size() * sizeof(ClusterIndex));
  return h;
}

TEST_F(StoreReaderTest, PipelineSampleAndLabelsMatchRecordedDigests) {
  // A ~1,500-row basket store (~100 KB, more than one block). The digests
  // were recorded with the per-row stdio reader this block reader
  // replaced; the sample is drawn and labeled from the same rows.
  BasketGeneratorOptions gen;
  gen.cluster_sizes = {150, 180, 120, 160, 140, 170, 130, 150, 110, 140};
  gen.num_outliers = 75;
  gen.seed = 4242;
  auto data = GenerateBasketData(gen);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  ASSERT_TRUE(WriteDatasetToStore(*data, path()).ok());

  struct Case {
    uint64_t seed;
    size_t sample_size;
    uint64_t digest;
  };
  const Case cases[] = {
      {1, 300, 0x84f8ac4ffc3164c9ULL},
      {7, 300, 0x271a53947bfcb5ebULL},
      {42, 500, 0x11d4ba10c01a99f8ULL},
      {2026, 100000, 0xb77dc6590323167dULL},  // clamped to the whole store
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << "seed=" << c.seed
                                      << " sample=" << c.sample_size);
    PipelineOptions opt;
    opt.rock.theta = 0.5;
    opt.rock.num_clusters = 10;
    opt.sample_size = c.sample_size;
    opt.seed = c.seed;
    auto result = RunRockPipeline(path(), opt);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->labeling.assignments.size(), data->size());
    EXPECT_EQ(result->sample_rows.size(),
              std::min<size_t>(c.sample_size, data->size()));
    EXPECT_EQ(PipelineDigest(*result), c.digest)
        << std::hex << "0x" << PipelineDigest(*result);
  }
}

}  // namespace
}  // namespace rock

// Robustness tests: the readers and parsers must reject arbitrary garbage
// with a Status — never crash, hang, or silently accept — and the CLI's
// JSON output must stay well-formed for adversarial label names.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <numeric>

#include "cli/cli.h"
#include "common/random.h"
#include "data/arff_reader.h"
#include "data/csv_reader.h"
#include "data/disk_store.h"
#include "test_support.h"

namespace rock {
namespace {

std::string RandomBytes(Rng* rng, size_t n) {
  std::string s(n, '\0');
  for (char& c : s) {
    c = static_cast<char>(rng->UniformUint64(256));
  }
  return s;
}

std::string RandomAsciiLines(Rng* rng, size_t n) {
  const char alphabet[] = "abc,?{}@%\n\r\t '\"0123456789";
  std::string s(n, '\0');
  for (char& c : s) {
    c = alphabet[rng->UniformUint64(sizeof(alphabet) - 1)];
  }
  return s;
}

TEST(ReaderRobustnessTest, CsvSurvivesGarbage) {
  ROCK_SEEDED_RNG(rng, 101);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string text =
        trial % 2 == 0 ? RandomBytes(&rng, 200) : RandomAsciiLines(&rng, 200);
    // Must return (either outcome fine), not crash.
    auto r = ReadCsvString(text, CsvOptions{});
    if (r.ok()) {
      EXPECT_GE(r->size(), 1u);
    }
  }
}

TEST(ReaderRobustnessTest, ArffSurvivesGarbage) {
  ROCK_SEEDED_RNG(rng, 202);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string text =
        trial % 2 == 0 ? RandomBytes(&rng, 300) : RandomAsciiLines(&rng, 300);
    auto r = ReadArffString(text);
    // Random bytes essentially never form a valid ARFF header; accept
    // either outcome but require no crash.
    (void)r.ok();
  }
}

TEST(ReaderRobustnessTest, ArffHeaderFuzz) {
  // Structured fuzz around the header grammar.
  const std::vector<std::string> fragments = {
      "@relation",  "@attribute", "@data", "{a,b}", "{}", "'unterminated",
      "numeric",    "x",          ",",     "?",     "%c", "{a,",
  };
  ROCK_SEEDED_RNG(rng, 303);
  for (int trial = 0; trial < 300; ++trial) {
    std::string text;
    const size_t lines = 1 + rng.UniformUint64(8);
    for (size_t l = 0; l < lines; ++l) {
      const size_t tokens = 1 + rng.UniformUint64(4);
      for (size_t t = 0; t < tokens; ++t) {
        text += fragments[rng.UniformUint64(fragments.size())];
        text += ' ';
      }
      text += '\n';
    }
    auto r = ReadArffString(text);
    (void)r.ok();
  }
}

TEST(ReaderRobustnessTest, StoreSurvivesBitFlips) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("rock_fuzz_store_" + std::to_string(::getpid()));
  // A valid store file of ~115 KB: rows of 1-40 items, then one 20k-item
  // row longer than the readers' 64 KiB decode block, so corrupted length
  // fields land on both sides of a block refill and of a block growth...
  {
    auto writer = TransactionStoreWriter::Open(path.string());
    ASSERT_TRUE(writer.ok());
    for (uint32_t i = 0; i < 400; ++i) {
      std::vector<ItemId> items(1 + i % 40);
      std::iota(items.begin(), items.end(), i);
      ASSERT_TRUE(writer->Append(Transaction(std::move(items)), i % 3).ok());
    }
    std::vector<ItemId> wide(20000);
    std::iota(wide.begin(), wide.end(), ItemId{0});
    ASSERT_TRUE(writer->Append(Transaction(std::move(wide)), 1).ok());
    ASSERT_TRUE(writer->Finish().ok());
  }
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  // ...with random single-byte corruptions must never crash the whole-file
  // reader, the shard planner or the range readers. Every fourth trial
  // aims its first flip at the header and the first records.
  ROCK_SEEDED_RNG(rng, 404);
  for (int trial = 0; trial < 200; ++trial) {
    std::string corrupted = bytes;
    const size_t flips = 1 + rng.UniformUint64(4);
    for (size_t fi = 0; fi < flips; ++fi) {
      const size_t span = fi == 0 && trial % 4 == 0 ? 64 : corrupted.size();
      corrupted[rng.UniformUint64(span)] =
          static_cast<char>(rng.UniformUint64(256));
    }
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << corrupted;
    }
    auto reader = TransactionStoreReader::Open(path.string());
    if (reader.ok()) {
      size_t rows = 0;
      while (reader->Next() && rows < 1000) ++rows;
      // Either a clean end or a corruption status — both acceptable.
      EXPECT_LE(rows, 1000u);
    }
    auto shards = TransactionStoreReader::PlanShards(
        path.string(), 1 + static_cast<uint64_t>(trial % 6));
    if (!shards.ok()) continue;
    for (const StoreShardRange& range : *shards) {
      auto ranged = TransactionStoreReader::OpenRange(path.string(), range);
      if (!ranged.ok()) continue;
      uint64_t rows = 0;
      while (ranged->Next() && rows < 1000) ++rows;
      EXPECT_LE(rows, range.num_rows);
    }
  }
  std::filesystem::remove(path);
}

TEST(CliRobustnessTest, JsonStaysValidWithHostileLabels) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("rock_fuzz_cli_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string csv_path = (dir / "hostile.csv").string();
  const std::string json_path = (dir / "out.json").string();
  {
    std::ofstream f(csv_path);
    // Labels containing quotes and backslashes.
    f << "he said \"hi\"\\path,a,b\n"
      << "he said \"hi\"\\path,a,b\n"
      << "tab\there,c,d\n"
      << "tab\there,c,d\n";
  }
  std::string out;
  const int code = RunCli({"cluster", "--input=" + csv_path, "--theta=0.4",
                           "--k=2", "--json=" + json_path},
                          &out);
  ASSERT_EQ(code, 0) << out;
  std::ifstream json_in(json_path);
  std::string json((std::istreambuf_iterator<char>(json_in)),
                   std::istreambuf_iterator<char>());
  // Spot-check escaping: no raw tab inside the JSON, quotes escaped.
  EXPECT_EQ(json.find("said \"hi\""), std::string::npos);
  EXPECT_NE(json.find("\\\"hi\\\""), std::string::npos);
  EXPECT_NE(json.find("\\t"), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rock

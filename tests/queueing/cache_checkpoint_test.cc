/// Checkpoint/recover robustness: round-trips (including from one shard
/// count into another), every corruption class the codec guards against
/// (truncation, bit flips, bad magic, unknown versions, trailing
/// garbage), capacity-limited recovery evicting LRU-first, and the
/// lifecycle counters surfaced through stats().

#include "queueing/cache_checkpoint.h"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "queueing/solve_cache.h"

namespace mrperf {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

OverlapMvaProblem TwoTaskProblem(double overlap) {
  OverlapMvaProblem p;
  p.centers = {{"cpu", CenterType::kQueueing, 1}};
  p.tasks = {{{2.0}}, {{2.0}}};
  p.overlap = {{0.0, overlap}, {overlap, 0.0}};
  return p;
}

/// Fills `cache` with `n` solved problems (thetas 0.01..0.01*n).
void Warm(SolveCache& cache, int n) {
  for (int i = 1; i <= n; ++i) {
    ASSERT_TRUE(cache.SolveThrough(TwoTaskProblem(0.01 * i), {}).ok());
  }
}

TEST(CacheCheckpointCodecTest, RoundTripPreservesEntriesAndOrder) {
  std::vector<CacheCheckpointEntry> entries;
  for (int i = 0; i < 5; ++i) {
    CacheCheckpointEntry e;
    e.key = "key-" + std::to_string(i) + std::string(i, '\0');  // binary keys
    e.solution.residence = {{1.0 * i, 2.0 * i}, {3.0 * i, 4.0 * i}};
    e.solution.response = {3.0 * i, 7.0 * i};
    e.solution.iterations = i;
    entries.push_back(e);
  }
  const std::string path = TempPath("roundtrip.ckpt");
  ASSERT_TRUE(WriteCacheCheckpoint(path, entries).ok());

  auto read = ReadCacheCheckpoint(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->size(), entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ((*read)[i].key, entries[i].key);
    EXPECT_EQ((*read)[i].solution.residence, entries[i].solution.residence);
    EXPECT_EQ((*read)[i].solution.response, entries[i].solution.response);
    EXPECT_EQ((*read)[i].solution.iterations, entries[i].solution.iterations);
  }
  std::remove(path.c_str());
}

TEST(CacheCheckpointCodecTest, EmptyCheckpointRoundTrips) {
  const std::string path = TempPath("empty.ckpt");
  ASSERT_TRUE(WriteCacheCheckpoint(path, {}).ok());
  auto read = ReadCacheCheckpoint(path);
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->empty());
  std::remove(path.c_str());
}

TEST(CacheCheckpointCodecTest, MissingFileIsNotFound) {
  auto read = ReadCacheCheckpoint(TempPath("does-not-exist.ckpt"));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kNotFound);
}

TEST(CacheCheckpointCodecTest, EveryTruncationIsRejected) {
  std::vector<CacheCheckpointEntry> entries(1);
  entries[0].key = "k";
  entries[0].solution.residence = {{1.0}};
  entries[0].solution.response = {1.0};
  const std::string path = TempPath("trunc.ckpt");
  ASSERT_TRUE(WriteCacheCheckpoint(path, entries).ok());
  const std::string bytes = ReadFileBytes(path);
  ASSERT_GT(bytes.size(), 4u);

  // Cut the file at every prefix length: none may parse, none may crash.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    WriteFileBytes(path, bytes.substr(0, cut));
    auto read = ReadCacheCheckpoint(path);
    EXPECT_FALSE(read.ok()) << "truncation at " << cut << " parsed";
  }
  std::remove(path.c_str());
}

TEST(CacheCheckpointCodecTest, EveryBitFlipIsRejected) {
  std::vector<CacheCheckpointEntry> entries(1);
  entries[0].key = "bitflip-key";
  entries[0].solution.residence = {{1.5, 2.5}};
  entries[0].solution.response = {4.0};
  entries[0].solution.iterations = 7;
  const std::string path = TempPath("flip.ckpt");
  ASSERT_TRUE(WriteCacheCheckpoint(path, entries).ok());
  const std::string bytes = ReadFileBytes(path);

  // Flip one bit in every byte (header, payload, CRC itself): the CRC
  // or a structural check must catch each one.
  for (size_t at = 0; at < bytes.size(); ++at) {
    std::string corrupt = bytes;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x10);
    WriteFileBytes(path, corrupt);
    auto read = ReadCacheCheckpoint(path);
    EXPECT_FALSE(read.ok()) << "bit flip at byte " << at << " parsed";
  }
  std::remove(path.c_str());
}

TEST(CacheCheckpointCodecTest, WrongVersionIsRejected) {
  const std::string path = TempPath("version.ckpt");
  ASSERT_TRUE(WriteCacheCheckpoint(path, {}).ok());
  std::string bytes = ReadFileBytes(path);
  bytes[4] = static_cast<char>(kCacheCheckpointVersion + 1);
  // Re-seal the CRC so only the version differs.
  const std::string body = bytes.substr(0, bytes.size() - 4);
  const uint32_t crc = CacheCheckpointCrc32(body);
  for (int i = 0; i < 4; ++i) {
    bytes[body.size() + static_cast<size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xff);
  }
  WriteFileBytes(path, bytes);
  auto read = ReadCacheCheckpoint(path);
  ASSERT_FALSE(read.ok());
  EXPECT_NE(read.status().ToString().find("version"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CacheCheckpointCodecTest, BadMagicIsRejected) {
  const std::string path = TempPath("magic.ckpt");
  ASSERT_TRUE(WriteCacheCheckpoint(path, {}).ok());
  std::string bytes = ReadFileBytes(path);
  bytes[0] = 'X';
  const std::string body = bytes.substr(0, bytes.size() - 4);
  const uint32_t crc = CacheCheckpointCrc32(body);
  for (int i = 0; i < 4; ++i) {
    bytes[body.size() + static_cast<size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xff);
  }
  WriteFileBytes(path, bytes);
  EXPECT_FALSE(ReadCacheCheckpoint(path).ok());
  std::remove(path.c_str());
}

TEST(CacheCheckpointCodecTest, TrailingGarbageIsRejected) {
  const std::string path = TempPath("trailing.ckpt");
  ASSERT_TRUE(WriteCacheCheckpoint(path, {}).ok());
  WriteFileBytes(path, ReadFileBytes(path) + "extra");
  EXPECT_FALSE(ReadCacheCheckpoint(path).ok());
  std::remove(path.c_str());
}

TEST(SolveCacheCheckpointTest, CheckpointRecoverRoundTripsBitIdentically) {
  const std::string path = TempPath("cache-roundtrip.ckpt");
  for (int source_shards : {1, 4}) {
    SolveCache source(source_shards, /*max_entries=*/64);
    Warm(source, 6);
    ASSERT_TRUE(source.Checkpoint(path).ok());
    for (int restored_shards : {1, 4}) {
      SCOPED_TRACE(std::to_string(source_shards) + " -> " +
                   std::to_string(restored_shards) + " shards");
      SolveCache restored(restored_shards, /*max_entries=*/64);
      ASSERT_TRUE(restored.Recover(path).ok());
      EXPECT_EQ(restored.stats().size, 6);
      for (int i = 1; i <= 6; ++i) {
        const std::string key =
            SolveCache::MakeKey(TwoTaskProblem(0.01 * i), {});
        auto original = source.Lookup(key);
        auto recovered = restored.Lookup(key);
        ASSERT_TRUE(original.has_value());
        ASSERT_TRUE(recovered.has_value());
        EXPECT_EQ(original->response, recovered->response);
        EXPECT_EQ(original->residence, recovered->residence);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(SolveCacheCheckpointTest, SingleMutexCheckpointWarmsShardedCache) {
  // The format is independent of the shard count: a single-mutex
  // checkpoint recovers into an 8-shard cache (and the hits stay
  // bit-identical).
  SolveCache source(/*shards=*/1, /*max_entries=*/64);
  Warm(source, 5);
  const std::string path = TempPath("cross-impl.ckpt");
  ASSERT_TRUE(source.Checkpoint(path).ok());

  SolveCache restored(/*shards=*/8, /*max_entries=*/64);
  ASSERT_TRUE(restored.Recover(path).ok());
  EXPECT_EQ(restored.stats().size, 5);
  for (int i = 1; i <= 5; ++i) {
    auto hit = restored.SolveThrough(TwoTaskProblem(0.01 * i), {});
    ASSERT_TRUE(hit.ok());
  }
  EXPECT_EQ(restored.stats().hits, 5);  // every replay was a hit
  std::remove(path.c_str());
}

TEST(SolveCacheCheckpointTest, RecoverIntoSmallerCacheKeepsNewestEntries) {
  SolveCache source(/*shards=*/1, /*max_entries=*/64);
  Warm(source, 8);  // insertion order == recency order here
  const std::string path = TempPath("shrink.ckpt");
  ASSERT_TRUE(source.Checkpoint(path).ok());

  SolveCache small(/*shards=*/1, /*max_entries=*/3);
  ASSERT_TRUE(small.Recover(path).ok());
  EXPECT_EQ(small.stats().size, 3);
  // Entries are replayed LRU-first, so the 3 most recent survive.
  for (int i = 6; i <= 8; ++i) {
    EXPECT_TRUE(
        small.Lookup(SolveCache::MakeKey(TwoTaskProblem(0.01 * i), {}))
            .has_value())
        << "theta index " << i;
  }
  EXPECT_FALSE(
      small.Lookup(SolveCache::MakeKey(TwoTaskProblem(0.01), {})).has_value());
  std::remove(path.c_str());
}

TEST(SolveCacheCheckpointTest, RecoverKeepsExistingEntriesOverFileEntries) {
  SolveCache source(/*shards=*/1, /*max_entries=*/64);
  Warm(source, 3);
  const std::string path = TempPath("merge.ckpt");
  ASSERT_TRUE(source.Checkpoint(path).ok());

  SolveCache target(/*shards=*/1, /*max_entries=*/64);
  Warm(target, 1);  // theta 0.01 already resident
  ASSERT_TRUE(target.Recover(path).ok());
  EXPECT_EQ(target.stats().size, 3);  // duplicate key was a no-op
  std::remove(path.c_str());
}

TEST(SolveCacheCheckpointTest, LifecycleCountersSurviveResetStats) {
  SolveCache cache(/*shards=*/1, /*max_entries=*/64);
  Warm(cache, 4);
  const std::string path = TempPath("lifecycle.ckpt");
  ASSERT_TRUE(cache.Checkpoint(path).ok());

  MvaCacheStats stats = cache.stats();
  EXPECT_EQ(stats.checkpoints, 1);
  EXPECT_EQ(stats.checkpoint_entries, 4);
  EXPECT_EQ(stats.recoveries, 0);

  SolveCache restored(/*shards=*/4, /*max_entries=*/64);
  ASSERT_TRUE(restored.Recover(path).ok());
  stats = restored.stats();
  EXPECT_EQ(stats.recoveries, 1);
  EXPECT_EQ(stats.recovered_entries, 4);

  // Lifecycle counters are gauges: the window reset must not clear them.
  restored.ResetStats();
  stats = restored.stats();
  EXPECT_EQ(stats.recoveries, 1);
  EXPECT_EQ(stats.recovered_entries, 4);
  EXPECT_EQ(stats.size, 4);
  std::remove(path.c_str());
}

TEST(SolveCacheCheckpointTest, RecoverFromCorruptFileFailsWithoutCrashing) {
  const std::string path = TempPath("corrupt-recover.ckpt");
  WriteFileBytes(path, "MRSC this is not a checkpoint");
  SolveCache cache(/*shards=*/1, /*max_entries=*/64);
  const Status status = cache.Recover(path);
  ASSERT_FALSE(status.ok());
  // A failed recovery neither warms the cache nor counts as a recovery.
  EXPECT_EQ(cache.stats().size, 0);
  EXPECT_EQ(cache.stats().recoveries, 0);
  std::remove(path.c_str());
}

TEST(SolveCacheCheckpointTest, CheckpointOverwritesAtomically) {
  SolveCache first(/*shards=*/1, /*max_entries=*/64);
  Warm(first, 2);
  const std::string path = TempPath("overwrite.ckpt");
  ASSERT_TRUE(first.Checkpoint(path).ok());

  SolveCache second(/*shards=*/1, /*max_entries=*/64);
  Warm(second, 5);
  ASSERT_TRUE(second.Checkpoint(path).ok());  // rename over the old file

  auto read = ReadCacheCheckpoint(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->size(), 5u);  // the newer checkpoint won, intact
  std::remove(path.c_str());
}

}  // namespace
}  // namespace mrperf

#include "queueing/solve_cache.h"

#include <algorithm>
#include <functional>
#include <vector>

namespace mrperf {
namespace {

/// Appends the raw bytes of a trivially copyable value to `out`.
template <typename T>
void AppendBytes(std::string* out, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  const char* p = reinterpret_cast<const char*>(&value);
  out->append(p, sizeof(T));
}

void AppendDoubles(std::string* out, const std::vector<double>& values) {
  AppendBytes(out, values.size());
  if (!values.empty()) {
    out->append(reinterpret_cast<const char*>(values.data()),
                values.size() * sizeof(double));
  }
}

/// `shards` rounded up to a power of two, but no more than the largest
/// power of two <= `max_entries`.
size_t ShardCount(int shards, int64_t max_entries) {
  int64_t count = 1;
  while (count < shards && count * 2 <= max_entries) count *= 2;
  return static_cast<size_t>(count);
}

/// SplitMix64 finisher. std::hash<std::string> is a good byte hash but
/// libstdc++ gives no guarantee about its low bits; the finisher
/// redistributes the full hash so masking with (shards - 1) draws on
/// every input bit.
uint64_t MixHash(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

/// Adds a shard's window counters and resident size into `total`.
void AddShardCounters(const MvaCacheStats& shard, MvaCacheStats* total) {
  total->hits += shard.hits;
  total->misses += shard.misses;
  total->insertions += shard.insertions;
  total->evictions += shard.evictions;
  total->size += shard.size;
}

}  // namespace

SolveCache::SolveCache(int shards, int64_t max_entries)
    : shards_(ShardCount(shards, max_entries)) {
  const int64_t total = std::max<int64_t>(1, max_entries);
  const int64_t n = static_cast<int64_t>(shards_.size());
  for (int64_t i = 0; i < n; ++i) {
    shards_[static_cast<size_t>(i)].max_entries =
        total / n + (i < total % n ? 1 : 0);
  }
}

std::string SolveCache::MakeKey(const GroupedOverlapMvaProblem& problem,
                                const OverlapMvaOptions& options) {
  std::string key;
  // Rough upfront estimate: demands + overlap rows dominate.
  size_t doubles = problem.groups.size() * problem.centers.size() +
                   problem.overlap.size() * problem.overlap.size();
  key.reserve(64 + doubles * sizeof(double));

  // `assume_valid` is deliberately excluded: it never affects which
  // solution a key maps to.
  AppendBytes(&key, options.tolerance);
  AppendBytes(&key, options.max_iterations);
  AppendBytes(&key, options.damping);

  AppendBytes(&key, problem.centers.size());
  for (const ServiceCenter& c : problem.centers) {
    // Center names are labels only; they do not affect the solution.
    AppendBytes(&key, c.type);
    AppendBytes(&key, c.server_count);
  }
  AppendBytes(&key, problem.groups.size());
  for (const OverlapTaskGroup& g : problem.groups) {
    AppendBytes(&key, g.count);
    AppendDoubles(&key, g.demand);
  }
  AppendBytes(&key, problem.overlap.size());
  for (const std::vector<double>& row : problem.overlap) {
    AppendDoubles(&key, row);
  }
  return key;
}

namespace {

void FillInfo(SolveThroughInfo* info, int iterations) {
  if (info != nullptr) info->iterations = iterations;
}

}  // namespace

Result<OverlapMvaSolution> SolveCache::SolveThrough(
    const GroupedOverlapMvaProblem& problem, const OverlapMvaOptions& options,
    MvaKernelScratch* scratch, SolveThroughInfo* info) {
  // The cache holds cold solves only (see the header).
  if (options.initial_residence != nullptr) {
    return Status::InvalidArgument(
        "SolveThrough solves cold; initial_residence must be null");
  }
  // Validate once at entry; the hot loop below (hits, the miss solve)
  // never re-walks the O(G²) overlap matrix.
  if (!options.assume_valid) {
    MRPERF_RETURN_NOT_OK(problem.Validate());
  }
  OverlapMvaOptions opts = options;
  opts.assume_valid = true;
  const std::string key = MakeKey(problem, opts);
  if (std::optional<OverlapMvaSolution> hit = Lookup(key)) {
    FillInfo(info, 0);
    return ExpandGroupedMvaSolution(*hit, problem.task_group);
  }
  Result<OverlapMvaSolution> group_sol =
      SolveGroupedOverlapMvaGroupLevel(problem, opts, scratch);
  if (!group_sol.ok()) return group_sol;
  Insert(key, *group_sol);
  RecordSolve(group_sol->iterations);
  FillInfo(info, group_sol->iterations);
  return ExpandGroupedMvaSolution(*group_sol, problem.task_group);
}

SolveCache::Shard& SolveCache::ShardFor(const std::string& key) {
  if (shards_.size() == 1) return shards_.front();
  const uint64_t h = MixHash(std::hash<std::string>{}(key));
  return shards_[h & (shards_.size() - 1)];
}

std::optional<OverlapMvaSolution> SolveCache::Lookup(const std::string& key) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end()) {
    ++shard.window.misses;
    return std::nullopt;
  }
  ++shard.window.hits;
  // Refresh recency: splice the key to the front of the LRU list.
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.recency);
  return it->second.solution;
}

void SolveCache::Insert(const std::string& key,
                        const OverlapMvaSolution& solution) {
  Shard& shard = ShardFor(key);
  MutexLock lock(shard.mu);
  if (shard.entries.count(key) > 0) return;
  if (static_cast<int64_t>(shard.entries.size()) >= shard.max_entries) {
    shard.entries.erase(shard.lru.back());
    shard.lru.pop_back();
    ++shard.window.evictions;
  }
  shard.lru.push_front(key);
  shard.entries.emplace(key, Shard::Entry{solution, shard.lru.begin()});
  ++shard.window.insertions;
}

MvaCacheStats SolveCache::shard_stats(int index) const {
  const Shard& shard = shards_.at(static_cast<size_t>(index));
  MutexLock lock(shard.mu);
  MvaCacheStats snapshot = shard.window;
  snapshot.size = static_cast<int64_t>(shard.entries.size());
  return snapshot;
}

MvaCacheStats SolveCache::stats() const {
  MvaCacheStats total = Effort();
  for (int i = 0; i < shard_count(); ++i) {
    AddShardCounters(shard_stats(i), &total);
  }
  return total;
}

MvaCacheStats SolveCache::ResetStats() {
  MvaCacheStats total = Effort();
  for (Shard& shard : shards_) {
    MutexLock lock(shard.mu);
    AddShardCounters(shard.window, &total);
    total.size += static_cast<int64_t>(shard.entries.size());
    shard.window = MvaCacheStats{};
  }
  return total;
}

void SolveCache::RecordSolve(int iterations) {
  MutexLock lock(effort_mu_);
  ++effort_.solves;
  effort_.solve_iterations += iterations;
}

MvaCacheStats SolveCache::Effort() const {
  MutexLock lock(effort_mu_);
  return effort_;
}

std::unique_ptr<SolveCache> MakeSolveCache(int shards, int64_t max_entries) {
  return std::make_unique<SolveCache>(shards, max_entries);
}

}  // namespace mrperf

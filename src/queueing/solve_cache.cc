#include "queueing/solve_cache.h"

#include <utility>
#include <vector>

#include "queueing/cache_checkpoint.h"
#include "queueing/mva_kernel.h"

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

/// Options + centers prefix shared by the per-task and grouped keys.
/// `assume_valid` and `kernel` are deliberately excluded: neither
/// affects which solution a key maps to (grouped-kernel solves are
/// segregated by the grouped key's tag instead).
void AppendKeyPrefix(std::string* key, const OverlapMvaOptions& options,
                     const std::vector<ServiceCenter>& centers) {
  AppendBytes(key, options.tolerance);
  AppendBytes(key, options.max_iterations);
  AppendBytes(key, options.damping);

  AppendBytes(key, centers.size());
  for (const ServiceCenter& c : centers) {
    // Center names are labels only; they do not affect the solution.
    AppendBytes(key, c.type);
    AppendBytes(key, c.server_count);
  }
}

}  // namespace

std::string SolveCache::MakeKey(const OverlapMvaProblem& problem,
                                const OverlapMvaOptions& options) {
  std::string key;
  // Rough upfront estimate: demands + overlap rows dominate.
  size_t doubles = problem.tasks.size() * problem.centers.size() +
                   problem.overlap.size() * problem.overlap.size();
  key.reserve(64 + doubles * sizeof(double));

  key.push_back('T');  // per-task problem; solution has one row per task
  AppendKeyPrefix(&key, options, problem.centers);
  AppendBytes(&key, problem.tasks.size());
  for (const OverlapTask& t : problem.tasks) {
    AppendDoubles(&key, t.demand);
  }
  AppendBytes(&key, problem.overlap.size());
  for (const std::vector<double>& row : problem.overlap) {
    AppendDoubles(&key, row);
  }
  return key;
}

std::string SolveCache::MakeKey(const GroupedOverlapMvaProblem& problem,
                                const OverlapMvaOptions& options) {
  std::string key;
  size_t doubles = problem.groups.size() * problem.centers.size() +
                   problem.overlap.size() * problem.overlap.size();
  key.reserve(64 + doubles * sizeof(double));

  key.push_back('G');  // grouped problem; solution has one row per class
  AppendKeyPrefix(&key, options, problem.centers);
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

/// The cache holds cold solves only (see SolveThrough in the header).
Status RejectSeed(const OverlapMvaOptions& options) {
  if (options.initial_residence == nullptr) return Status::OK();
  return Status::InvalidArgument(
      "SolveThrough solves cold; initial_residence must be null");
}

void FillInfo(SolveThroughInfo* info, bool hit, int iterations) {
  if (info == nullptr) return;
  info->hit = hit;
  info->iterations = iterations;
}

}  // namespace

Result<OverlapMvaSolution> SolveCache::SolveThrough(
    const OverlapMvaProblem& problem, const OverlapMvaOptions& options,
    MvaKernelScratch* scratch, SolveThroughInfo* info) {
  MRPERF_RETURN_NOT_OK(RejectSeed(options));
  // Validate once at entry; the hot loop below (hits, the miss solve)
  // never re-walks the O(T²) overlap matrix.
  if (!options.assume_valid) {
    MRPERF_RETURN_NOT_OK(problem.Validate());
  }
  OverlapMvaOptions opts = options;
  opts.assume_valid = true;
  const std::string key = MakeKey(problem, opts);
  if (std::optional<OverlapMvaSolution> hit = Lookup(key)) {
    FillInfo(info, true, 0);
    return *std::move(hit);
  }
  Result<OverlapMvaSolution> solved = SolveOverlapMva(problem, opts, scratch);
  if (solved.ok()) {
    Insert(key, *solved);
    RecordSolve(solved->iterations);
    FillInfo(info, false, solved->iterations);
  }
  return solved;
}

Result<OverlapMvaSolution> SolveCache::SolveThrough(
    const GroupedOverlapMvaProblem& problem, const OverlapMvaOptions& options,
    MvaKernelScratch* scratch, SolveThroughInfo* info) {
  MRPERF_RETURN_NOT_OK(RejectSeed(options));
  if (!options.assume_valid) {
    MRPERF_RETURN_NOT_OK(problem.Validate());
  }
  OverlapMvaOptions opts = options;
  opts.assume_valid = true;
  const MvaKernelPath path = ResolveGroupedMvaKernelPath(
      opts.kernel, problem.TotalTasks(), problem.groups.size());
  if (path != MvaKernelPath::kGrouped) {
    // Reference-oracle paths run (and cache) at per-task granularity so
    // their hits stay bit-identical to dense recomputation.
    return SolveThrough(problem.Expand(), opts, scratch, info);
  }
  const std::string key = MakeKey(problem, opts);
  if (std::optional<OverlapMvaSolution> hit = Lookup(key)) {
    FillInfo(info, true, 0);
    return ExpandGroupedMvaSolution(*hit, problem.task_group);
  }
  Result<OverlapMvaSolution> group_sol =
      SolveGroupedOverlapMvaGroupLevel(problem, opts, scratch);
  if (!group_sol.ok()) return group_sol;
  Insert(key, *group_sol);
  RecordSolve(group_sol->iterations);
  FillInfo(info, false, group_sol->iterations);
  return ExpandGroupedMvaSolution(*group_sol, problem.task_group);
}

Status SolveCache::Checkpoint(const std::string& path) {
  std::vector<CacheCheckpointEntry> entries;
  entries.reserve(static_cast<size_t>(stats().size));
  ForEachEntry([&entries](const std::string& key,
                          const OverlapMvaSolution& solution) {
    entries.push_back(CacheCheckpointEntry{key, solution});
  });
  MRPERF_RETURN_NOT_OK(WriteCacheCheckpoint(path, entries));
  {
    MutexLock lock(lifecycle_mu_);
    ++checkpoints_;
    checkpoint_entries_ += static_cast<int64_t>(entries.size());
  }
  return Status::OK();
}

Status SolveCache::Recover(const std::string& path) {
  MRPERF_ASSIGN_OR_RETURN(std::vector<CacheCheckpointEntry> entries,
                          ReadCacheCheckpoint(path));
  // Replay in file order (LRU first): when the checkpoint exceeds this
  // cache's cap, the inserts evict the oldest checkpoint entries and
  // the most-recently-used survive.
  for (CacheCheckpointEntry& entry : entries) {
    Insert(entry.key, entry.solution);
  }
  {
    MutexLock lock(lifecycle_mu_);
    ++recoveries_;
    recovered_entries_ += static_cast<int64_t>(entries.size());
  }
  return Status::OK();
}

void SolveCache::RecordSolve(int iterations) {
  MutexLock lock(lifecycle_mu_);
  ++solves_;
  solve_iterations_ += iterations;
}

void SolveCache::AddLifecycleCounters(MvaCacheStats* stats) const {
  MutexLock lock(lifecycle_mu_);
  stats->checkpoints = checkpoints_;
  stats->checkpoint_entries = checkpoint_entries_;
  stats->recoveries = recoveries_;
  stats->recovered_entries = recovered_entries_;
  stats->solves = solves_;
  stats->solve_iterations = solve_iterations_;
}

}  // namespace mrperf

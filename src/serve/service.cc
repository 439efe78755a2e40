#include "serve/service.h"

#include <algorithm>
#include <utility>

namespace mrperf {
namespace {

/// Quota-bucket map cap: beyond this many distinct peers, buckets that
/// have refilled to capacity (idle peers) are pruned. Bounds transport
/// abuse (one bucket per spoofed peer) without ever forgetting an
/// actively limited peer.
constexpr size_t kMaxQuotaPeers = 4096;

SweepOptions SweepOptionsFor(const PredictServiceOptions& options) {
  SweepOptions sweep;
  sweep.num_threads = options.num_threads;
  sweep.experiment = options.experiment;
  sweep.cache_max_entries = options.cache_max_entries;
  // Irrelevant to RunTasks (every task pins derive_seed = false), set
  // for clarity: seeds always come from the request.
  sweep.derive_point_seeds = false;
  return sweep;
}

/// Cumulative cache stats: the window snapshot, which already carries
/// every gauge (resident size, solver effort), plus the window counters
/// folded from closed windows. Only `folded`'s window counters are
/// read.
MvaCacheStats SumCacheStats(const MvaCacheStats& folded,
                            const MvaCacheStats& window) {
  MvaCacheStats total = window;
  total.hits += folded.hits;
  total.misses += folded.misses;
  total.insertions += folded.insertions;
  total.evictions += folded.evictions;
  return total;
}

}  // namespace

std::optional<ExperimentResult> PredictService::AnswerCache::Lookup(
    const std::string& key, const ExperimentPoint& point) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);
  const Answer& a = it->second->second;
  ExperimentResult result;
  result.point = point;
  result.measured_sec = a.measured_sec;
  result.forkjoin_sec = a.forkjoin_sec;
  result.tripathi_sec = a.tripathi_sec;
  result.forkjoin_error = a.forkjoin_error;
  result.tripathi_error = a.tripathi_error;
  result.model_iterations = a.model_iterations;
  result.model_converged = a.model_converged;
  result.tree_depth = a.tree_depth;
  result.mva_iterations = a.mva_iterations;
  return result;
}

void PredictService::AnswerCache::Insert(std::string key,
                                         const ExperimentResult& result) {
  // Tripwire: a field added to ExperimentResult must be stored here too,
  // or a hit would answer without it.
  static_assert(sizeof(ExperimentResult) ==
                    sizeof(ExperimentPoint) + sizeof(Answer),
                "AnswerCache::Answer must hold every non-point field of "
                "ExperimentResult");
  if (entries_.count(key) != 0) return;
  if (static_cast<int64_t>(entries_.size()) >= max_entries_) {
    entries_.erase(std::string_view(lru_.back().first));
    lru_.pop_back();
    ++evictions_;
  }
  Answer answer;
  answer.measured_sec = result.measured_sec;
  answer.forkjoin_sec = result.forkjoin_sec;
  answer.tripathi_sec = result.tripathi_sec;
  answer.forkjoin_error = result.forkjoin_error;
  answer.tripathi_error = result.tripathi_error;
  answer.model_iterations = result.model_iterations;
  answer.model_converged = result.model_converged;
  answer.tree_depth = result.tree_depth;
  answer.mva_iterations = result.mva_iterations;
  lru_.emplace_front(std::move(key), answer);
  entries_.emplace(std::string_view(lru_.front().first), lru_.begin());
}

PredictService::PredictService(PredictServiceOptions options)
    : options_(std::move(options)),
      runner_(SweepOptionsFor(options_)),
      answers_(options_.cache_max_entries) {
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

PredictService::~PredictService() { Drain(); }

void PredictService::Respond(ResponseCallback& done, std::string response) {
  {
    MutexLock lock(stats_mu_);
    ++responses_total_;
  }
  done(std::move(response));
}

void PredictService::RejectRequestErrorTo(
    const std::optional<std::string>& id, ServeErrorCode code,
    const std::string& message, ResponseCallback done) {
  {
    MutexLock lock(stats_mu_);
    ++request_errors_total_;
  }
  Respond(done, MakeErrorResponse(id, code, message));
}

std::future<std::string> PredictService::Submit(
    const std::string& request_line) {
  auto promise = std::make_shared<std::promise<std::string>>();
  std::future<std::string> future = promise->get_future();
  SubmitLine(request_line, /*peer=*/"", [promise](std::string response) {
    promise->set_value(std::move(response));
  });
  return future;
}

bool PredictService::ConsumeQuotaToken(const std::string& peer) {
  if (options_.quota_rps <= 0) return true;
  const double rate = static_cast<double>(options_.quota_rps);
  const double capacity = std::max(1.0, rate);
  const Clock::time_point now = Clock::now();
  MutexLock lock(mu_);
  if (quota_.size() >= kMaxQuotaPeers) {
    // Prune idle peers: a bucket that would refill to capacity has not
    // been limited for at least a second and carries no state worth
    // keeping.
    for (auto it = quota_.begin(); it != quota_.end();) {
      const double elapsed =
          std::chrono::duration<double>(now - it->second.last_refill)
              .count();
      if (it->first != peer &&
          it->second.tokens + elapsed * rate >= capacity) {
        it = quota_.erase(it);
      } else {
        ++it;
      }
    }
  }
  auto [it, inserted] = quota_.try_emplace(peer);
  TokenBucket& bucket = it->second;
  if (inserted) {
    bucket.tokens = capacity;
    bucket.last_refill = now;
  } else {
    const double elapsed =
        std::chrono::duration<double>(now - bucket.last_refill).count();
    if (elapsed > 0.0) {
      bucket.tokens = std::min(capacity, bucket.tokens + elapsed * rate);
      bucket.last_refill = now;
    }
  }
  if (bucket.tokens < 1.0) return false;
  bucket.tokens -= 1.0;
  return true;
}

void PredictService::SubmitLine(const std::string& request_line,
                                const std::string& peer,
                                ResponseCallback done) {
  Result<ServeRequest> parsed = ParseServeRequest(request_line);
  if (!parsed.ok()) {
    RejectRequestErrorTo(std::nullopt, RequestErrorCode(parsed.status()),
                         parsed.status().message(), std::move(done));
    return;
  }
  ServeRequest& request = *parsed;

  if (request.kind == ServeRequest::Kind::kStats) {
    // Quota-exempt: observability stays reachable for a limited peer.
    const ServeStatsSnapshot snapshot = Stats(request.stats.reset_window);
    Respond(done,
            MakeStatsResponse(request.id, FormatServeStatsJson(snapshot)));
    return;
  }

  if (!ConsumeQuotaToken(peer)) {
    {
      MutexLock lock(stats_mu_);
      ++rejected_quota_total_;
    }
    Respond(done,
            MakeErrorResponse(
                request.id, ServeErrorCode::kQuotaExceeded,
                "per-client quota exceeded (" +
                    std::to_string(options_.quota_rps) +
                    " requests/s); retry later"));
    return;
  }

  Waiter waiter;
  waiter.id = request.id;
  waiter.done = std::move(done);
  waiter.admitted = Clock::now();
  waiter.priority = request.predict.priority;
  if (request.predict.deadline_ms > 0) {
    waiter.has_deadline = true;
    waiter.deadline =
        waiter.admitted +
        std::chrono::milliseconds(request.predict.deadline_ms);
  }

  std::string key = CanonicalPredictKey(request.predict);
  std::string rejection;
  bool rejected_shutdown = false;
  bool rejected_overload = false;
  bool coalesced = false;
  std::optional<ExperimentResult> answer;
  {
    MutexLock lock(mu_);
    if (!draining_) answer = answers_.Lookup(key, request.predict.point);
    if (draining_) {
      rejection = MakeErrorResponse(
          request.id, ServeErrorCode::kShuttingDown,
          "server is draining; request was not admitted");
      rejected_shutdown = true;
    } else if (answer) {
      // Answered before: serialized below, outside the lock.
    } else {
      auto it = pending_.find(key);
      if (it != pending_.end()) {
        // Coalesce: share the queued/in-flight evaluation of this key.
        // An interactive arrival upgrades a still-queued bulk
        // evaluation — the waiters of the lower class ride along.
        EvaluationPtr& evaluation = it->second;
        if (evaluation->queued &&
            waiter.priority > evaluation->priority) {
          auto& from = queues_[static_cast<int>(evaluation->priority)];
          for (auto queued_it = from.begin(); queued_it != from.end();
               ++queued_it) {
            if (queued_it->get() == evaluation.get()) {
              queues_[static_cast<int>(waiter.priority)].push_back(
                  std::move(*queued_it));
              from.erase(queued_it);
              break;
            }
          }
          evaluation->priority = waiter.priority;
        }
        evaluation->waiters.push_back(std::move(waiter));
        coalesced = true;
      } else {
        int64_t queued_evaluations = 0;
        for (const auto& queue : queues_) {
          queued_evaluations += static_cast<int64_t>(queue.size());
        }
        if (queued_evaluations >= std::max(1, options_.max_queue)) {
          rejection = MakeErrorResponse(
              request.id, ServeErrorCode::kOverloaded,
              "admission queue full (" +
                  std::to_string(options_.max_queue) +
                  " evaluations queued); retry later");
          rejected_overload = true;
        } else {
          auto evaluation = std::make_shared<Evaluation>();
          evaluation->request = request.predict;
          evaluation->key = std::move(key);
          evaluation->priority = waiter.priority;
          evaluation->waiters.push_back(std::move(waiter));
          pending_.emplace(evaluation->key, evaluation);
          queues_[static_cast<int>(evaluation->priority)].push_back(
              std::move(evaluation));
        }
      }
    }
  }

  if (!rejection.empty()) {
    {
      MutexLock lock(stats_mu_);
      if (rejected_shutdown) ++rejected_shutdown_total_;
      if (rejected_overload) ++rejected_overload_total_;
    }
    Respond(waiter.done, std::move(rejection));
    return;
  }

  if (answer) {
    {
      MutexLock lock(stats_mu_);
      ++requests_total_;
      ++answered_from_cache_total_;
    }
    // The stored result goes through the response path an evaluation
    // takes, so a hit's bytes differ from an evaluation's only in id.
    const Result<ExperimentResult> result(std::move(*answer));
    std::vector<Waiter> waiters;
    waiters.push_back(std::move(waiter));
    FulfillWaiters(std::move(waiters), &result, /*pool_down=*/false);
    return;
  }

  {
    MutexLock lock(stats_mu_);
    ++requests_total_;
    if (coalesced) ++coalesced_total_;
  }
  if (!coalesced) work_cv_.NotifyOne();
}

void PredictService::DispatcherLoop() {
  for (;;) {
    std::vector<EvaluationPtr> batch;
    std::vector<Waiter> expired;
    {
      MutexLock lock(mu_);
      // Explicit loop, not the predicate overload: the analysis treats
      // a predicate lambda as a separate function, where the guarded
      // reads of draining_/queues_ would look unlocked.
      while (!draining_ && queues_[0].empty() && queues_[1].empty()) {
        work_cv_.Wait(lock);
      }
      if (queues_[0].empty() && queues_[1].empty()) {
        if (draining_) return;  // fully drained
        continue;
      }
      const size_t max_batch =
          static_cast<size_t>(std::max(1, options_.max_batch));
      const Clock::time_point now = Clock::now();
      // Higher classes drain first; FIFO within a class.
      for (int p = kRequestPriorityCount - 1;
           p >= 0 && batch.size() < max_batch; --p) {
        auto& queue = queues_[p];
        while (!queue.empty() && batch.size() < max_batch) {
          EvaluationPtr evaluation = std::move(queue.front());
          queue.pop_front();
          evaluation->queued = false;
          // Deadline check at dequeue: expired waiters get a
          // structured answer now instead of a useless late one.
          std::vector<Waiter> live;
          for (Waiter& waiter : evaluation->waiters) {
            if (waiter.has_deadline && waiter.deadline < now) {
              expired.push_back(std::move(waiter));
            } else {
              live.push_back(std::move(waiter));
            }
          }
          evaluation->waiters = std::move(live);
          if (evaluation->waiters.empty()) {
            // Every waiter expired: skip the evaluation entirely (late
            // coalescers will start a fresh one).
            pending_.erase(evaluation->key);
            continue;
          }
          batch.push_back(std::move(evaluation));
        }
      }
      // The popped evaluations stay in pending_, so duplicates arriving
      // during the evaluation still coalesce onto them.
    }
    ExpireWaiters(std::move(expired));
    if (batch.empty()) continue;
    if (options_.dispatch_hook) options_.dispatch_hook(batch.size());

    std::vector<SweepRunner::Task> tasks;
    tasks.reserve(batch.size());
    for (const EvaluationPtr& evaluation : batch) {
      tasks.push_back(
          TaskForRequest(evaluation->request, options_.experiment));
    }

    SweepReport report;
    bool pool_down = false;
    try {
      report = runner_.RunTasks(tasks);
    } catch (const std::exception&) {
      // ThreadPool::Submit after Shutdown — the pool was torn down with
      // batches still queued. Every waiter gets a clean structured
      // shutting_down rejection instead of a dropped connection.
      pool_down = true;
    }

    if (!pool_down) {
      // Counted before any waiter resolves, so a client that observed
      // its response also observes the evaluation in /stats.
      MutexLock lock(stats_mu_);
      evaluations_total_ += static_cast<int64_t>(batch.size());
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      std::vector<Waiter> waiters;
      {
        // One critical section takes the waiters and moves the key from
        // pending_ to answers_, so a racing duplicate either coalesced
        // above or hits the answer: it is never evaluated twice.
        MutexLock lock(mu_);
        waiters = std::move(batch[i]->waiters);
        pending_.erase(batch[i]->key);
        if (!pool_down && report.results[i].ok()) {
          answers_.Insert(std::move(batch[i]->key), *report.results[i]);
        }
      }
      FulfillWaiters(std::move(waiters),
                     pool_down ? nullptr : &report.results[i], pool_down);
    }
  }
}

void PredictService::ExpireWaiters(std::vector<Waiter> waiters) {
  for (Waiter& waiter : waiters) {
    {
      MutexLock lock(stats_mu_);
      ++deadline_exceeded_total_;
      // No latency sample: expirations answered at dequeue would drag
      // the served percentiles toward the queue wait alone.
    }
    Respond(waiter.done,
            MakeErrorResponse(
                waiter.id, ServeErrorCode::kDeadlineExceeded,
                "deadline expired before the evaluation was dispatched"));
  }
}

void PredictService::FulfillWaiters(std::vector<Waiter> waiters,
                                    const Result<ExperimentResult>* result,
                                    bool pool_down) {
  for (Waiter& waiter : waiters) {
    std::string response;
    if (pool_down) {
      response = MakeErrorResponse(
          waiter.id, ServeErrorCode::kShuttingDown,
          "worker pool shut down before the evaluation ran");
    } else if (result->ok()) {
      response = MakePredictResponse(waiter.id, **result);
    } else {
      response =
          MakeErrorResponse(waiter.id, ServeErrorCodeFromStatus(
                                           result->status()),
                            result->status().ToString());
    }
    const double latency_ms =
        std::chrono::duration<double, std::milli>(Clock::now() -
                                                  waiter.admitted)
            .count();
    {
      MutexLock lock(stats_mu_);
      if (pool_down) {
        ++rejected_shutdown_total_;
      } else {
        // Latency covers answered requests only, split per dispatch
        // class; rejections would drag the percentiles toward zero.
        latency_by_priority_[static_cast<int>(waiter.priority)].Add(
            latency_ms);
      }
    }
    Respond(waiter.done, std::move(response));
  }
}

void PredictService::BeginDrain() {
  {
    MutexLock lock(mu_);
    draining_ = true;
  }
  work_cv_.NotifyAll();
}

void PredictService::Drain() {
  BeginDrain();
  MutexLock lock(drain_mu_);
  if (dispatcher_.joinable()) dispatcher_.join();
}

void PredictService::ShutdownWorkerPool() { runner_.Shutdown(); }

ServeStatsSnapshot PredictService::Stats(bool reset_window) {
  ServeStatsSnapshot snapshot;
  {
    MutexLock lock(mu_);
    int64_t queued = 0;
    for (const auto& queue : queues_) {
      queued += static_cast<int64_t>(queue.size());
    }
    snapshot.queue_depth = queued;
    snapshot.draining = draining_;
    snapshot.response_cache.size = answers_.size();
    snapshot.response_cache.evictions = answers_.evictions();
  }
  snapshot.threads = runner_.thread_count();
  snapshot.cache_shards = runner_.cache().shard_count();
  // ResetCacheStats is an atomic snapshot-and-reset, so no lookup is
  // ever lost between the window we report and the fresh one.
  const MvaCacheStats window =
      reset_window ? runner_.ResetCacheStats() : runner_.cache_stats();
  {
    MutexLock lock(stats_mu_);
    snapshot.requests_total = requests_total_;
    snapshot.evaluations_total = evaluations_total_;
    snapshot.coalesced_total = coalesced_total_;
    snapshot.response_cache.hits = answered_from_cache_total_;
    snapshot.response_cache.misses =
        requests_total_ - answered_from_cache_total_;
    snapshot.rejected_overload_total = rejected_overload_total_;
    snapshot.rejected_shutdown_total = rejected_shutdown_total_;
    snapshot.rejected_quota_total = rejected_quota_total_;
    snapshot.deadline_exceeded_total = deadline_exceeded_total_;
    snapshot.request_errors_total = request_errors_total_;
    snapshot.responses_total = responses_total_;
    LatencyHistogram overall;
    for (int p = 0; p < kRequestPriorityCount; ++p) {
      snapshot.latency_by_priority[p] = latency_by_priority_[p].Snapshot();
      overall.Merge(latency_by_priority_[p]);
    }
    snapshot.latency_count = overall.count();
    snapshot.latency_mean_ms = overall.mean_ms();
    snapshot.latency_min_ms = overall.min_ms();
    snapshot.latency_max_ms = overall.max_ms();
    snapshot.latency_p50_ms = overall.PercentileMs(50);
    snapshot.latency_p95_ms = overall.PercentileMs(95);
    snapshot.latency_p99_ms = overall.PercentileMs(99);
    snapshot.cache_window = window;
    snapshot.cache = SumCacheStats(cache_folded_, window);
    if (reset_window) cache_folded_ = snapshot.cache;
  }
  // Outside every service lock: the hook reaches back into the owning
  // transport, which must be free to take its own locks.
  if (options_.transport_stats_hook) {
    options_.transport_stats_hook(snapshot);
  }
  return snapshot;
}

int64_t PredictService::queue_depth() const {
  MutexLock lock(mu_);
  int64_t queued = 0;
  for (const auto& queue : queues_) {
    queued += static_cast<int64_t>(queue.size());
  }
  return queued;
}

bool PredictService::draining() const {
  MutexLock lock(mu_);
  return draining_;
}

}  // namespace mrperf

/// \file service.h
/// \brief The prediction service: request scheduling over the sweep
/// engine, independent of any transport.
///
/// PredictService is the serving analogue of a SweepRunner sweep with
/// requests arriving online instead of as a grid:
///
///  - **Bounded admission with backpressure.** Predict requests enter a
///    bounded queue; when it is full the request is rejected immediately
///    with a structured `overloaded` error — never silently dropped.
///  - **QoS dispatch.** The queue is split per RequestPriority:
///    interactive evaluations are always dequeued ahead of bulk ones
///    (FIFO within a class), so a person's what-if query is never stuck
///    behind a bulk sweep. A request's `deadline_ms` is checked when its
///    evaluation is dequeued: expired waiters get a structured
///    `deadline_exceeded` response instead of a useless late answer, and
///    an evaluation all of whose waiters expired is skipped entirely.
///  - **Per-client quotas.** With `quota_rps` configured, each peer
///    address holds a token bucket (capacity = one second's tokens);
///    predict requests beyond the rate are rejected `quota_exceeded`.
///    Stats requests are exempt — observability stays reachable.
///  - **Micro-batching.** A single dispatcher thread pops up to
///    `max_batch` queued evaluations and fans them out through one
///    SweepRunner::RunTasks call on the shared worker pool, so bursts
///    amortize pool wakeups exactly like an offline sweep.
///  - **In-flight coalescing.** Requests whose CanonicalPredictKey
///    matches a queued or currently evaluating request attach to that
///    evaluation instead of consuming a queue slot — the serving
///    analogue of the MVA cache's key dedup, one layer up. Each waiter
///    still receives its own response (its own id, its own latency).
///    The key excludes priority, so an interactive duplicate coalesces
///    onto a queued bulk evaluation and upgrades its dispatch class.
///  - **Response cache.** A predict whose CanonicalPredictKey already
///    has a successful evaluation is answered from SubmitLine with
///    MakePredictResponse(its own id, the stored ExperimentResult) —
///    byte-identical to evaluating, by the argument coalescing relies
///    on — without queueing or touching the worker pool. An entry keeps
///    the result without its point: the key determines the point field
///    for field, so a hit puts back the admitted request's own. A key
///    moves from the coalescing map to the cache inside the critical
///    section that takes its waiters, so a duplicate racing the
///    completion either coalesces or hits: it is never evaluated twice.
///    Only ok results are stored, LRU-bounded by `cache_max_entries`.
///  - **Shared solver state.** One process-wide SolveCache (inside the
///    runner, one lock shard per worker) memoizes the A4 overlap-MVA
///    solves of the requests the response cache cannot answer;
///    per-worker kernel scratch is reused across requests as in batch
///    sweeps.
///
/// Determinism: request seeds are carried by the request itself
/// (TaskForRequest pins derive_seed off), so a response is
/// byte-identical to an offline evaluation of the same request no
/// matter how requests were batched, coalesced, or interleaved.
///
/// Lifecycle: BeginDrain() stops admission (new predicts get
/// `shutting_down` rejections); Drain() additionally waits until every
/// admitted request has been answered. If the worker pool is shut down
/// while batches remain (ShutdownWorkerPool, or a racing teardown), the
/// dispatcher converts the pool's Submit-after-Shutdown exception into
/// clean `shutting_down` rejection responses — every accepted request
/// always gets exactly one response.

#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "engine/sweep_runner.h"
#include "serve/request.h"
#include "serve/stats.h"

namespace mrperf {

/// \brief Service configuration.
struct PredictServiceOptions {
  /// Worker threads of the evaluation pool; 0 = hardware concurrency.
  int num_threads = 0;
  /// Admission bound: distinct queued evaluations (coalesced duplicates
  /// attach for free). Beyond this, requests are rejected `overloaded`.
  int max_queue = 256;
  /// Micro-batch cap: queued evaluations dispatched per RunTasks call.
  int max_batch = 32;
  /// Per-peer predict-request rate limit (token bucket refilled at this
  /// rate, capacity = max(1, quota_rps)); 0 disables quotas. Stats
  /// requests are always exempt.
  int64_t quota_rps = 0;
  /// Resident-entry cap of the solve cache and, separately, of the
  /// response cache (each LRU, minimum 1).
  int64_t cache_max_entries = 4096;
  /// Base evaluation options; per-request seed/repetitions override
  /// these (see TaskForRequest). The profile configured here is what an
  /// unset/"default" request profile resolves to. Defaults to the
  /// paper's calibrated WordCount options — the same baseline the
  /// offline sweeps run, so served and offline results agree.
  ExperimentOptions experiment = DefaultExperimentOptions();
  /// Test/diagnostic seam: invoked on the dispatcher thread with the
  /// batch size after the batch is popped (its keys now coalesce as
  /// in-flight) and before evaluation. Keep it cheap in production.
  std::function<void(size_t)> dispatch_hook;
  /// Transport seam: invoked by Stats() (outside every service lock)
  /// so the owning transport can fold its gauges — connection counts,
  /// event-loop depth, /metrics scrapes — into the same snapshot.
  std::function<void(ServeStatsSnapshot&)> transport_stats_hook;
};

/// \brief Transport-independent prediction service (see file comment).
///
/// Thread-safe: SubmitLine/Submit may be called from any number of
/// transport threads. Every accepted line produces exactly one
/// single-line JSON response, delivered through the caller's callback
/// (or future).
class PredictService {
 public:
  /// Receives the single-line JSON response. Invoked exactly once per
  /// submitted line — synchronously (rejections, stats) from the
  /// submitting thread or later from the dispatcher thread — so
  /// callbacks must be cheap and must not call back into the service.
  using ResponseCallback = std::function<void(std::string)>;

  explicit PredictService(PredictServiceOptions options);
  /// Drains (every admitted request answered) and stops the dispatcher.
  ~PredictService();

  PredictService(const PredictService&) = delete;
  PredictService& operator=(const PredictService&) = delete;

  /// Parses and routes one request line; `done` receives the response.
  /// Stats requests, all rejections and response-cache hits resolve
  /// synchronously; other predict requests resolve when their (possibly
  /// shared) evaluation completes. `peer` keys the per-client quota
  /// bucket (the transport's peer address; empty = a shared anonymous
  /// bucket).
  void SubmitLine(const std::string& request_line, const std::string& peer,
                  ResponseCallback done);

  /// Future-flavored SubmitLine with no peer (quota-anonymous); the
  /// in-process convenience used by tests and embedding callers.
  std::future<std::string> Submit(const std::string& request_line);

  /// Builds, counts and immediately resolves a request-level error the
  /// transport detected itself (e.g. an oversized line), so those
  /// responses still show up in request_errors_total/responses_total.
  void RejectRequestErrorTo(const std::optional<std::string>& id,
                            ServeErrorCode code, const std::string& message,
                            ResponseCallback done);

  /// Stops admitting predict requests; already-admitted ones keep
  /// evaluating. Idempotent.
  void BeginDrain();

  /// BeginDrain, then blocks until the queue is fully served and the
  /// dispatcher has exited. Idempotent, safe from multiple threads.
  void Drain();

  /// Immediately shuts the evaluation pool down (in-flight batch
  /// finishes, later batches are rejected `shutting_down`). For fast
  /// teardown and fault-injection tests; normal shutdown is Drain().
  void ShutdownWorkerPool();

  /// Snapshot of the observability counters. With `reset_window`, the
  /// cache window is atomically folded into the cumulative counters and
  /// restarted (the returned snapshot's window is the one that just
  /// closed).
  ServeStatsSnapshot Stats(bool reset_window = false);

  int64_t queue_depth() const;
  bool draining() const;
  int thread_count() const { return runner_.thread_count(); }

 private:
  using Clock = std::chrono::steady_clock;

  /// One response-awaiting request (its own id, deadline and admission
  /// time).
  struct Waiter {
    std::optional<std::string> id;
    ResponseCallback done;
    Clock::time_point admitted;
    /// Absolute deadline; admitted + deadline_ms. Meaningful only when
    /// has_deadline.
    Clock::time_point deadline;
    bool has_deadline = false;
    RequestPriority priority = RequestPriority::kBulk;
  };

  /// One scheduled evaluation; coalesced requests share it.
  struct Evaluation {
    PredictRequest request;
    std::string key;
    /// Guarded by the owning service's mu_ (a nested struct cannot name
    /// the outer instance's mutex in a GUARDED_BY expression): waiters
    /// attach in SubmitLine and are moved out in DispatcherLoop, both
    /// under mu_; FulfillWaiters then owns them exclusively.
    std::vector<Waiter> waiters;
    /// Dispatch class == the queue the evaluation sits in while queued
    /// (an interactive coalescer upgrades a queued bulk evaluation).
    /// Guarded by mu_, same note as waiters.
    RequestPriority priority = RequestPriority::kBulk;
    /// Still sitting in a queue (false once popped for dispatch); an
    /// upgrade can only move a still-queued evaluation. Guarded by mu_.
    bool queued = true;
  };
  using EvaluationPtr = std::shared_ptr<Evaluation>;

  /// One peer's quota state: a token bucket refilled at quota_rps.
  struct TokenBucket {
    double tokens = 0.0;
    Clock::time_point last_refill;
  };

  /// The response cache: canonical key -> result of a successful
  /// evaluation, LRU-bounded. An entry keeps only the fields the point
  /// does not determine. Not synchronized; the service guards it with
  /// mu_.
  class AnswerCache {
   public:
    explicit AnswerCache(int64_t max_entries)
        : max_entries_(std::max<int64_t>(1, max_entries)) {}
    /// The stored result with `point` (the admitted request's, which
    /// `key` determines) put back, now most recently used.
    std::optional<ExperimentResult> Lookup(const std::string& key,
                                           const ExperimentPoint& point);
    /// Stores `result` as most recently used, evicting the least
    /// recently used answer when full.
    void Insert(std::string key, const ExperimentResult& result);
    int64_t size() const { return static_cast<int64_t>(entries_.size()); }
    int64_t evictions() const { return evictions_; }

   private:
    /// ExperimentResult without its point.
    struct Answer {
      double measured_sec;
      double forkjoin_sec;
      double tripathi_sec;
      double forkjoin_error;
      double tripathi_error;
      int model_iterations;
      bool model_converged;
      int tree_depth;
      int64_t mva_iterations;
    };
    using Lru = std::list<std::pair<std::string, Answer>>;
    int64_t max_entries_;
    int64_t evictions_ = 0;
    /// Most recently used first; owns the keys.
    Lru lru_;
    /// Views the key stored in its lru_ node (list nodes never move),
    /// so each key is held once; erased before its node.
    std::unordered_map<std::string_view, Lru::iterator> entries_;
  };

  void DispatcherLoop();
  /// Builds one waiter's response and records latency/response counters.
  void FulfillWaiters(std::vector<Waiter> waiters,
                      const Result<ExperimentResult>* result,
                      bool pool_down);
  /// Answers one waiter `deadline_exceeded` (counted, no latency
  /// sample — expirations must not skew the served percentiles).
  void ExpireWaiters(std::vector<Waiter> waiters);
  /// Counts a response and hands it to `done`.
  void Respond(ResponseCallback& done, std::string response);
  /// True when the peer's bucket has a token (consuming it); always
  /// true with quotas disabled.
  bool ConsumeQuotaToken(const std::string& peer);

  PredictServiceOptions options_;
  SweepRunner runner_;

  /// Admission state: per-priority queues, coalescing map, quota
  /// buckets, lifecycle flag.
  mutable Mutex mu_;
  CondVar work_cv_;
  /// Indexed by RequestPriority; dispatch drains higher classes first.
  std::array<std::deque<EvaluationPtr>, kRequestPriorityCount> queues_
      GUARDED_BY(mu_);
  /// Canonical key -> queued or in-flight evaluation (coalescing map).
  std::unordered_map<std::string, EvaluationPtr> pending_ GUARDED_BY(mu_);
  /// Canonical key -> answered evaluation (response cache). A key is in
  /// at most one of pending_ and answers_.
  AnswerCache answers_ GUARDED_BY(mu_);
  /// Peer address -> token bucket (quota_rps > 0 only).
  std::unordered_map<std::string, TokenBucket> quota_ GUARDED_BY(mu_);
  bool draining_ GUARDED_BY(mu_) = false;

  /// Serializes Drain() joiners; held while joining the dispatcher, so
  /// it must never be acquired under mu_ (the dispatcher needs mu_ to
  /// make progress toward exiting).
  Mutex drain_mu_ ACQUIRED_BEFORE(mu_);
  std::thread dispatcher_;

  mutable Mutex stats_mu_;
  /// One histogram per dispatch class; the /stats overall view is
  /// their merge (satellite fix: a shared histogram let bulk sweeps
  /// skew the interactive percentiles).
  std::array<LatencyHistogram, kRequestPriorityCount> latency_by_priority_
      GUARDED_BY(stats_mu_);
  int64_t requests_total_ GUARDED_BY(stats_mu_) = 0;
  int64_t evaluations_total_ GUARDED_BY(stats_mu_) = 0;
  int64_t coalesced_total_ GUARDED_BY(stats_mu_) = 0;
  /// Admitted predicts answered from answers_; the rest of
  /// requests_total_ are response-cache misses.
  int64_t answered_from_cache_total_ GUARDED_BY(stats_mu_) = 0;
  int64_t rejected_overload_total_ GUARDED_BY(stats_mu_) = 0;
  int64_t rejected_shutdown_total_ GUARDED_BY(stats_mu_) = 0;
  int64_t rejected_quota_total_ GUARDED_BY(stats_mu_) = 0;
  int64_t deadline_exceeded_total_ GUARDED_BY(stats_mu_) = 0;
  int64_t request_errors_total_ GUARDED_BY(stats_mu_) = 0;
  int64_t responses_total_ GUARDED_BY(stats_mu_) = 0;
  /// Cache counters of windows closed by reset_window (cumulative =
  /// folded + live).
  MvaCacheStats cache_folded_ GUARDED_BY(stats_mu_);
};

}  // namespace mrperf

#include "sim/ps_resource.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.h"

namespace mrperf {
namespace {

// Completions within this many seconds of the minimum are batched; guards
// float jitter from repeated rate changes.
constexpr double kCompletionEpsilon = 1e-9;

}  // namespace

PsResource::PsResource(EventQueue* queue, int servers)
    : queue_(queue), servers_(servers) {
  MRPERF_CHECK(queue != nullptr) << "PsResource requires an event queue";
  MRPERF_CHECK(servers >= 1) << "PsResource requires servers >= 1";
}

double PsResource::RatePerJob() const {
  const int n = static_cast<int>(jobs_.size());
  if (n == 0) return 0.0;
  return std::min(1.0, static_cast<double>(servers_) / n);
}

void PsResource::Advance() {
  const double now = queue_->Now();
  const double dt = now - last_advance_;
  if (dt > 0 && !jobs_.empty()) {
    const double rate = RatePerJob();
    for (auto& [id, job] : jobs_) {
      job.remaining = std::max(0.0, job.remaining - dt * rate);
    }
    busy_integral_ +=
        dt * std::min<double>(servers_, static_cast<double>(jobs_.size()));
  }
  last_advance_ = now;
}

double PsResource::BusyIntegral() const {
  // Include the partially accumulated current interval.
  const double dt = queue_->Now() - last_advance_;
  double extra = 0.0;
  if (dt > 0 && !jobs_.empty()) {
    extra = dt * std::min<double>(servers_, static_cast<double>(jobs_.size()));
  }
  return busy_integral_ + extra;
}

Status PsResource::Submit(double demand, CompletionFn on_done) {
  if (demand < 0) {
    return Status::InvalidArgument("resource demand must be >= 0");
  }
  if (!on_done) {
    return Status::InvalidArgument("completion callback must be callable");
  }
  Advance();
  const int64_t id = next_id_++;
  jobs_.emplace(id, Job{demand, queue_->Now(), std::move(on_done)});
  ScheduleNextCompletion();
  return Status::OK();
}

void PsResource::ScheduleNextCompletion() {
  ++version_;
  if (jobs_.empty()) return;
  const double rate = RatePerJob();
  double min_left = 1e300;
  for (const auto& [id, job] : jobs_) {
    min_left = std::min(min_left, job.remaining);
  }
  const double eta = rate > 0 ? min_left / rate : 1e300;
  const uint64_t v = version_;
  // Status ignored: ScheduleAfter only fails on negative delay, and eta>=0.
  (void)queue_->ScheduleAfter(eta, [this, v]() { OnCompletionEvent(v); });
}

void PsResource::OnCompletionEvent(uint64_t version) {
  if (version != version_) return;  // superseded by a later membership change
  Advance();
  // Collect everything that has (numerically) finished.
  std::vector<std::pair<double, CompletionFn>> done;
  for (auto it = jobs_.begin(); it != jobs_.end();) {
    if (it->second.remaining <= kCompletionEpsilon) {
      done.emplace_back(queue_->Now() - it->second.enqueue_time,
                        std::move(it->second.on_done));
      it = jobs_.erase(it);
    } else {
      ++it;
    }
  }
  ScheduleNextCompletion();
  for (auto& [elapsed, fn] : done) fn(elapsed);
}

}  // namespace mrperf

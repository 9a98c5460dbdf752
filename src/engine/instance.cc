#include "engine/instance.h"

#include "common/logging.h"
#include "common/strings.h"

namespace cdes::engine {

InstanceManager::InstanceManager(size_t shards, size_t max_in_flight,
                                 obs::TraceRecorder* tracer)
    : shards_(shards), max_in_flight_(max_in_flight), tracer_(tracer) {
  CDES_CHECK(shards_ > 0);
  latency_ = metrics_.histogram("engine.latency_us");
  admission_wait_ = metrics_.histogram("engine.admission_wait_us");
  if (tracer_ != nullptr) {
    tracer_->NameProcess(kEngineTracePid, "engine");
    for (size_t k = 0; k < shards_; ++k) {
      tracer_->NameProcess(static_cast<int>(k), StrCat("shard ", k));
    }
  }
}

void InstanceManager::RecordSubmit(uint64_t id, uint64_t submitted_at_us,
                                   uint64_t wait_us) {
  std::lock_guard<std::mutex> lock(mu_);
  admission_wait_->Observe(wait_us);
  if (tracer_ != nullptr) {
    tracer_->Complete(obs::SpanCategory::kSim, StrCat("submit ", id),
                      submitted_at_us - wait_us, wait_us, kEngineTracePid, 0,
                      {{"wait_us", StrCat(wait_us)}});
    // Flow origin on the engine lane; the matching FlowEnd fires inside the
    // completion span on the owning shard's lane, so viewers draw a
    // submit→complete arrow across threads.
    tracer_->FlowStart(obs::SpanCategory::kSim, "instance", id,
                       submitted_at_us, kEngineTracePid, 0);
  }
}

Result<uint64_t> InstanceManager::Admit(bool block) {
  std::unique_lock<std::mutex> lock(mu_);
  if (max_in_flight_ > 0) {
    auto has_room = [this] {
      return submitted_ - completed_ < max_in_flight_;
    };
    if (!has_room()) {
      if (!block) {
        ++rejected_;
        return Status::ResourceExhausted(
            StrCat("engine admission limit (", max_in_flight_,
                   " instances in flight) reached"));
      }
      capacity_cv_.wait(lock, has_room);
    }
  }
  ++submitted_;
  return next_id_++;
}

Status InstanceManager::AdmitRecovered(uint64_t id) {
  std::unique_lock<std::mutex> lock(mu_);
  if (max_in_flight_ > 0) {
    capacity_cv_.wait(
        lock, [this] { return submitted_ - completed_ < max_in_flight_; });
  }
  ++submitted_;
  if (id >= next_id_) next_id_ = id + 1;
  return Status::OK();
}

void InstanceManager::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  drained_cv_.wait(lock, [this] { return completed_ == submitted_; });
}

void InstanceManager::Complete(InstanceResult result, uint64_t submitted_at_us,
                               uint64_t completed_at_us) {
  std::lock_guard<std::mutex> lock(mu_);
  ++completed_;
  events_total_ += result.events;
  uint64_t dur = completed_at_us > submitted_at_us
                     ? completed_at_us - submitted_at_us
                     : 0;
  latency_->Observe(dur);
  if (tracer_ != nullptr) {
    tracer_->Complete(obs::SpanCategory::kSim,
                      StrCat("instance ", result.id), submitted_at_us, dur,
                      static_cast<int>(result.shard), result.id,
                      {{"tag", StrCat(result.tag)},
                       {"events", StrCat(result.events)},
                       {"consistent", result.consistent ? "true" : "false"}});
    // Terminate the submit→complete flow inside the instance span ("bp":"e"
    // in the export binds the arrow head to the enclosing slice).
    tracer_->FlowEnd(obs::SpanCategory::kSim, "instance", result.id,
                     completed_at_us, static_cast<int>(result.shard),
                     result.id);
  }
  results_.push_back(std::move(result));
  capacity_cv_.notify_one();
  if (completed_ == submitted_) drained_cv_.notify_all();
}

uint64_t InstanceManager::submitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return submitted_;
}

uint64_t InstanceManager::completed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return completed_;
}

uint64_t InstanceManager::rejected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejected_;
}

uint64_t InstanceManager::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return submitted_ - completed_;
}

uint64_t InstanceManager::events_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_total_;
}

void InstanceManager::MergeMetricsInto(obs::MetricsRegistry* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out->MergeFrom(metrics_);
}

std::vector<InstanceResult> InstanceManager::TakeResults() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<InstanceResult> out;
  out.swap(results_);
  return out;
}

}  // namespace cdes::engine

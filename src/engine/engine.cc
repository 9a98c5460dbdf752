#include "engine/engine.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <thread>
#include <utility>

#include "common/file.h"
#include "common/strings.h"
#include "obs/json.h"
#include "runtime/event_log.h"

namespace cdes::engine {
namespace {

size_t AutoShards() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw >= 2 ? hw / 2 : 1;
}

std::string JsonDouble(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", v);
  return buffer;
}

}  // namespace

void EngineMetricsSnapshot::PublishTo(obs::MetricsRegistry* registry) const {
  registry->gauge("engine.shards")->Set(static_cast<double>(shards));
  registry->gauge("engine.instances.submitted")
      ->Set(static_cast<double>(instances_submitted));
  registry->gauge("engine.instances.completed")
      ->Set(static_cast<double>(instances_completed));
  registry->gauge("engine.instances.rejected")
      ->Set(static_cast<double>(instances_rejected));
  registry->gauge("engine.instances.in_flight")
      ->Set(static_cast<double>(instances_in_flight));
  registry->gauge("engine.events")->Set(static_cast<double>(events));
  registry->gauge("engine.sim_steps")->Set(static_cast<double>(sim_steps));
  registry->gauge("engine.wall_seconds")->Set(wall_seconds);
  registry->gauge("engine.events_per_sec")->Set(events_per_sec);
  registry->gauge("guards.reduction_cache_hit_rate")
      ->Set(ReductionCacheHitRate());
  registry->gauge("algebra.residuation_cache_hits")
      ->Set(static_cast<double>(residuation_cache_hits));
  registry->gauge("algebra.residuation_cache_misses")
      ->Set(static_cast<double>(residuation_cache_misses));
  for (const HistogramSummary& h : histograms) {
    registry->gauge(StrCat(h.name, ".count"))
        ->Set(static_cast<double>(h.count));
    registry->gauge(StrCat(h.name, ".mean"))->Set(h.mean);
    registry->gauge(StrCat(h.name, ".p50"))->Set(static_cast<double>(h.p50));
    registry->gauge(StrCat(h.name, ".p99"))->Set(static_cast<double>(h.p99));
    registry->gauge(StrCat(h.name, ".max"))->Set(static_cast<double>(h.max));
  }
  for (size_t k = 0; k < shards; ++k) {
    registry->gauge(StrCat("engine.shard", k, ".queue_depth"))
        ->Set(static_cast<double>(shard_queue_depth[k]));
    registry->gauge(StrCat("engine.shard", k, ".resident"))
        ->Set(static_cast<double>(shard_resident[k]));
    registry->gauge(StrCat("engine.shard", k, ".events"))
        ->Set(static_cast<double>(shard_events[k]));
    registry->gauge(StrCat("engine.shard", k, ".instances"))
        ->Set(static_cast<double>(shard_instances[k]));
  }
}

std::string EngineMetricsSnapshot::ToString() const {
  std::string out = StrCat(
      "engine: ", shards, " shard(s)\n  instances: ", instances_submitted,
      " submitted, ", instances_completed, " completed, ", instances_rejected,
      " rejected, ", instances_in_flight, " in flight\n  events: ", events,
      " (", sim_steps, " sim steps) in ", wall_seconds, "s  =>  ",
      static_cast<uint64_t>(events_per_sec), " events/sec\n");
  for (size_t k = 0; k < shards; ++k) {
    out += StrCat("  shard ", k, ": ", shard_instances[k], " instances, ",
                  shard_events[k], " events, queue=", shard_queue_depth[k],
                  " resident=", shard_resident[k], "\n");
  }
  for (const HistogramSummary& h : histograms) {
    out += StrCat("  ", h.name, ": count=", h.count,
                  " mean=", JsonDouble(h.mean), " p50=", h.p50,
                  " p99=", h.p99, " max=", h.max, "\n");
  }
  if (reduction_cache_hits + reduction_cache_misses +
          residuation_cache_hits + residuation_cache_misses >
      0) {
    out += StrCat("  symbolic caches: reduction ", reduction_cache_hits, "/",
                  reduction_cache_hits + reduction_cache_misses,
                  " hit, residuation ", residuation_cache_hits, "/",
                  residuation_cache_hits + residuation_cache_misses,
                  " hit\n");
  }
  return out;
}

std::string EngineMetricsSnapshot::ToJsonLine(
    uint64_t ts_us, const obs::GuardProfiler* profiler) const {
  std::string out = StrCat(
      "{\"schema_version\": 2, \"ts_us\": ", ts_us, ", \"shards\": ", shards,
      ", \"submitted\": ", instances_submitted,
      ", \"completed\": ", instances_completed,
      ", \"rejected\": ", instances_rejected,
      ", \"in_flight\": ", instances_in_flight, ", \"events\": ", events,
      ", \"sim_steps\": ", sim_steps,
      ", \"wall_seconds\": ", JsonDouble(wall_seconds),
      ", \"events_per_sec\": ", JsonDouble(events_per_sec));
  auto array = [&out](const char* key, const auto& values) {
    out += StrCat(", \"", key, "\": [");
    for (size_t k = 0; k < values.size(); ++k) {
      out += StrCat(k == 0 ? "" : ", ", values[k]);
    }
    out += "]";
  };
  array("shard_queue_depth", shard_queue_depth);
  array("shard_resident", shard_resident);
  array("shard_events", shard_events);
  array("shard_instances", shard_instances);
  out += ", \"histograms\": {";
  for (size_t i = 0; i < histograms.size(); ++i) {
    const HistogramSummary& h = histograms[i];
    out += StrCat(i == 0 ? "" : ", ", "\"", obs::JsonEscape(h.name),
                  "\": {\"count\": ", h.count,
                  ", \"mean\": ", JsonDouble(h.mean), ", \"p50\": ", h.p50,
                  ", \"p99\": ", h.p99, ", \"max\": ", h.max, "}");
  }
  out += "}";
  out += StrCat(", \"caches\": {\"reduction_hits\": ", reduction_cache_hits,
                ", \"reduction_misses\": ", reduction_cache_misses,
                ", \"residuation_hits\": ", residuation_cache_hits,
                ", \"residuation_misses\": ", residuation_cache_misses, "}");
  if (profiler != nullptr) {
    out += ", \"hot_guards\": [";
    std::vector<obs::GuardSiteStats> top = profiler->TopK(5);
    for (size_t i = 0; i < top.size(); ++i) {
      out += StrCat(i == 0 ? "" : ", ", "{\"site\": \"",
                    obs::JsonEscape(top[i].Label()),
                    "\", \"evaluations\": ", top[i].evaluations,
                    ", \"wall_ns\": ", top[i].EstimatedWallNs(),
                    ", \"steps\": ", top[i].residuation_steps, "}");
    }
    out += "]";
  }
  out += "}";
  return out;
}

Engine::Engine(EngineSpecRef spec, const EngineOptions& options)
    : spec_(std::move(spec)),
      options_(options),
      epoch_(std::chrono::steady_clock::now()) {
  if (options_.shards == 0) options_.shards = AutoShards();
  if (!options_.wal_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.wal_dir, ec);
    CDES_CHECK(!ec) << "cannot create wal_dir '" << options_.wal_dir
                    << "': " << ec.message();
  }
  manager_ = std::make_unique<InstanceManager>(
      options_.shards, options_.max_in_flight, options_.tracer);
  shards_.reserve(options_.shards);
  for (size_t k = 0; k < options_.shards; ++k) {
    shards_.push_back(
        std::make_unique<Shard>(spec_, options_, k, epoch_, manager_.get()));
  }
  for (auto& shard : shards_) shard->Start();
}

Engine::~Engine() { Stop(); }

uint64_t Engine::NowUs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

Result<uint64_t> Engine::Submit(InstanceScript script) {
  return SubmitInternal(std::move(script), /*block=*/true);
}

Result<uint64_t> Engine::TrySubmit(InstanceScript script) {
  return SubmitInternal(std::move(script), /*block=*/false);
}

Result<uint64_t> Engine::SubmitInternal(InstanceScript script, bool block) {
  CDES_CHECK(!stopped_) << "Submit after Stop";
  uint64_t entered_at_us = NowUs();
  Result<uint64_t> id = manager_->Admit(block);
  if (!id.ok()) return id;
  EngineCommand cmd;
  cmd.kind = EngineCommand::Kind::kRun;
  cmd.id = id.value();
  cmd.script = std::move(script);
  cmd.submitted_at_us = NowUs();
  manager_->RecordSubmit(id.value(), cmd.submitted_at_us,
                         cmd.submitted_at_us - entered_at_us);
  shards_[manager_->ShardFor(id.value())]->Push(std::move(cmd));
  return id;
}

Status Engine::Recover(std::vector<std::string> logs) {
  CDES_CHECK(!stopped_) << "Recover after Stop";
  // Validate the whole batch before materializing anything: two logs
  // naming the same instance would otherwise double-submit it onto one
  // shard (two worlds racing under one id). Deterministic — the check
  // depends only on the headers, and fires before any side effect.
  std::vector<uint64_t> ids;
  ids.reserve(logs.size());
  std::set<uint64_t> seen;
  for (const std::string& text : logs) {
    Result<uint64_t> id = EventLog::PeekInstance(text);
    if (!id.ok()) return id.status();
    if (!seen.insert(id.value()).second) {
      return Status::InvalidArgument(StrCat(
          "duplicate instance id ", id.value(), " in recovery logs"));
    }
    ids.push_back(id.value());
  }
  for (size_t i = 0; i < logs.size(); ++i) {
    // Route by the header's instance id: id % shards is stable across
    // restarts, so the log lands on the shard index that owned it.
    uint64_t id = ids[i];
    uint64_t entered_at_us = NowUs();
    Status admitted = manager_->AdmitRecovered(id);
    if (!admitted.ok()) return admitted;
    EngineCommand cmd;
    cmd.kind = EngineCommand::Kind::kRecover;
    cmd.id = id;
    cmd.log_text = std::move(logs[i]);
    cmd.submitted_at_us = NowUs();
    manager_->RecordSubmit(id, cmd.submitted_at_us,
                           cmd.submitted_at_us - entered_at_us);
    shards_[manager_->ShardFor(id)]->Push(std::move(cmd));
  }
  return Status::OK();
}

Status Engine::RecoverDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    return Status::NotFound(
        StrCat("cannot list recovery dir '", dir, "': ", ec.message()));
  }
  std::vector<std::string> paths;
  for (const auto& entry : it) {
    if (entry.path().extension() == ".log") {
      paths.push_back(entry.path().string());
    }
  }
  // Directory iteration order is unspecified; sort for a deterministic
  // submission (and hence error) order.
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> logs;
  logs.reserve(paths.size());
  for (const std::string& path : paths) {
    Result<std::string> text = ReadFile(path);
    if (!text.ok()) return text.status();
    logs.push_back(std::move(text).value());
  }
  return Recover(std::move(logs));
}

void Engine::Checkpoint() {
  CDES_CHECK(!stopped_) << "Checkpoint after Stop";
  for (auto& shard : shards_) {
    EngineCommand cmd;
    cmd.kind = EngineCommand::Kind::kCheckpoint;
    shard->Push(std::move(cmd));
  }
}

void Engine::Abort() {
  if (stopped_) return;
  if (telemetry_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(telemetry_mu_);
      telemetry_stop_ = true;
    }
    telemetry_cv_.notify_all();
    telemetry_thread_.join();
  }
  for (auto& shard : shards_) shard->Abort();
  for (auto& shard : shards_) shard->Join();
  stopped_at_us_ = NowUs();
  stopped_ = true;
}

void Engine::Resume() {
  for (auto& shard : shards_) shard->Resume();
}

void Engine::Drain() {
  Resume();  // a paused engine can never drain
  manager_->Drain();
}

void Engine::Stop() {
  if (stopped_) return;
  Resume();
  // Park the telemetry publisher before the shards go away; its final
  // line is emitted below, after the per-shard registries are mergeable.
  if (telemetry_thread_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(telemetry_mu_);
      telemetry_stop_ = true;
    }
    telemetry_cv_.notify_all();
    telemetry_thread_.join();
  }
  for (auto& shard : shards_) {
    EngineCommand cmd;
    cmd.kind = EngineCommand::Kind::kStop;
    shard->Push(std::move(cmd));
  }
  for (auto& shard : shards_) shard->Join();
  stopped_at_us_ = NowUs();
  stopped_ = true;  // only after the joins (see its declaration)
  if (telemetry_sink_) EmitTelemetryLine();
}

EngineMetricsSnapshot Engine::Metrics() const {
  EngineMetricsSnapshot snap;
  snap.shards = shards_.size();
  snap.instances_submitted = manager_->submitted();
  snap.instances_completed = manager_->completed();
  snap.instances_rejected = manager_->rejected();
  snap.instances_in_flight = manager_->in_flight();
  snap.events = manager_->events_total();
  for (const auto& shard : shards_) {
    snap.sim_steps += shard->sim_steps();
    snap.shard_queue_depth.push_back(shard->queue_depth());
    snap.shard_resident.push_back(shard->resident());
    snap.shard_events.push_back(shard->events());
    snap.shard_instances.push_back(shard->instances_completed());
  }
  uint64_t now_us = stopped_ ? stopped_at_us_ : NowUs();
  snap.wall_seconds = static_cast<double>(now_us) / 1e6;
  snap.events_per_sec = snap.wall_seconds > 0
                            ? static_cast<double>(snap.events) / snap.wall_seconds
                            : 0;
  obs::MetricsRegistry merged;
  MergeMetricsInto(&merged);
  obs::SymbolicCacheStats caches = obs::CacheStatsFrom(merged);
  snap.reduction_cache_hits = caches.reduction_hits;
  snap.reduction_cache_misses = caches.reduction_misses;
  snap.residuation_cache_hits = caches.residuation_hits;
  snap.residuation_cache_misses = caches.residuation_misses;
  for (const auto& [name, h] : merged.histograms()) {
    EngineMetricsSnapshot::HistogramSummary summary;
    summary.name = name;
    summary.count = h->count();
    summary.mean = h->Mean();
    summary.p50 = h->Percentile(0.5);
    summary.p99 = h->Percentile(0.99);
    summary.max = h->max();
    snap.histograms.push_back(std::move(summary));
  }
  return snap;
}

void Engine::MergeMetricsInto(obs::MetricsRegistry* out) const {
  manager_->MergeMetricsInto(out);
  if (!stopped_) return;  // shard registries are worker-confined until then
  // A shard's gauges are its own tallies (the residuator's cache hits and
  // misses), so the engine-wide value is their sum; MergeFrom alone would
  // keep the last shard's.
  std::map<std::string, double> gauge_sums;
  for (const auto& shard : shards_) {
    out->MergeFrom(shard->metrics());
    for (const auto& [name, gauge] : shard->metrics().gauges()) {
      gauge_sums[name] += gauge->value();
    }
  }
  for (const auto& [name, sum] : gauge_sums) out->gauge(name)->Set(sum);
}

std::vector<InstanceResult> Engine::TakeResults() {
  return manager_->TakeResults();
}

void Engine::StartTelemetry(std::chrono::milliseconds interval,
                            TelemetrySink sink) {
  CDES_CHECK(!stopped_) << "StartTelemetry after Stop";
  if (telemetry_thread_.joinable()) return;  // one publisher per engine
  telemetry_sink_ = std::move(sink);
  telemetry_thread_ =
      std::thread([this, interval] { TelemetryMain(interval); });
}

Status Engine::StartTelemetryFile(std::chrono::milliseconds interval,
                                  const std::string& path) {
  std::shared_ptr<std::FILE> f(std::fopen(path.c_str(), "w"), [](std::FILE* p) {
    if (p != nullptr) std::fclose(p);
  });
  if (f == nullptr) {
    return Status::NotFound(StrCat("cannot open ", path, " for writing"));
  }
  StartTelemetry(interval, [f](const std::string& line) {
    std::fwrite(line.data(), 1, line.size(), f.get());
    std::fputc('\n', f.get());
    std::fflush(f.get());  // tailers see whole lines promptly
  });
  return Status::OK();
}

void Engine::TelemetryMain(std::chrono::milliseconds interval) {
  std::unique_lock<std::mutex> lock(telemetry_mu_);
  while (!telemetry_stop_) {
    if (telemetry_cv_.wait_for(lock, interval,
                               [this] { return telemetry_stop_; })) {
      break;  // Stop() emits the final line once the shards have joined
    }
    lock.unlock();
    EmitTelemetryLine();
    lock.lock();
  }
}

void Engine::EmitTelemetryLine() {
  telemetry_sink_(Metrics().ToJsonLine(NowUs(), options_.profiler));
}

}  // namespace cdes::engine

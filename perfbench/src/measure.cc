// Measurement pieces shared by the untraced and the traced run: statistics,
// engine set-up, the closed loop, crash-image recovery, correctness
// checks, span recording, and process facts.

#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "bench.h"
#include "common/strings.h"
#include "engine/engine_spec.h"
#include "obs/chrome_trace.h"

namespace perfbench {
namespace {

using cdes::StrCat;
namespace fs = std::filesystem;

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Tag of the empty instance SetUpEngine runs on every shard.
constexpr uint64_t kProbeTag = ~uint64_t{0};

}  // namespace

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double TrimmedMean(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t cut = v.size() / 10;
  double sum = 0;
  for (size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

void Report::Fail(std::string message) {
  correct = false;
  // Keep the first few messages; a systematic failure repeats.
  if (errors.size() < 20) errors.push_back(std::move(message));
}

void CheckResult(const cdes::engine::InstanceResult& r,
                 const std::string& expected, Report* report) {
  ++report->attempted;
  std::string problem;
  if (!r.error.empty()) {
    problem = r.error;
  } else if (!r.consistent || !r.maximal) {
    problem = StrCat("ended ", r.consistent ? "" : "inconsistent ",
                     r.maximal ? "" : "non-maximal ", "with '", r.history,
                     "'");
  } else if (r.history != expected) {
    problem = StrCat("history '", r.history, "' != expected '", expected,
                     "'");
  }
  if (!problem.empty()) {
    ++report->failed;
    report->Fail(StrCat("instance ", r.id, ": ", problem));
  }
}

void CheckFindings(const Workload& w,
                   const std::vector<cdes::analysis::Diagnostic>& diagnostics,
                   Report* report) {
  std::vector<std::string> found;
  for (const auto& d : diagnostics) {
    size_t open = d.message.find('\'');
    size_t close = d.message.find('\'', open + 1);
    std::string name = open == std::string::npos || close == std::string::npos
                           ? d.message
                           : d.message.substr(open + 1, close - open - 1);
    found.push_back(StrCat(cdes::analysis::RuleCode(d.rule), " ", name));
  }
  std::vector<std::string> expected = w.expected_findings;
  std::sort(found.begin(), found.end());
  std::sort(expected.begin(), expected.end());
  if (found != expected) {
    report->Fail(StrCat("analysis findings differ from the expected ones:\n",
                        cdes::analysis::FormatDiagnostics(diagnostics)));
  }
}

std::unique_ptr<cdes::engine::Engine> SetUpEngine(
    const Workload& w, const cdes::engine::EngineOptions& options,
    double* seconds) {
  Clock::time_point start = Clock::now();
  auto spec = cdes::engine::EngineSpec::FromText(w.spec_text);
  CDES_CHECK(spec.ok()) << spec.status();
  auto engine = std::make_unique<cdes::engine::Engine>(spec.value(), options);
  // Shards materialize and compile on their own threads after the
  // constructor returns. The first ids route one per shard (id mod
  // shards), so an empty instance on each completes only once every shard
  // can run instances.
  for (size_t k = 0; k < engine->shard_count(); ++k) {
    cdes::engine::InstanceScript probe;
    probe.tag = kProbeTag;
    probe.close = false;
    CDES_CHECK(engine->Submit(std::move(probe)).ok());
  }
  engine->Drain();
  *seconds = SecondsSince(start);
  for (const auto& r : engine->TakeResults()) {
    CDES_CHECK(r.error.empty() && r.tag == kProbeTag) << r.error;
  }
  return engine;
}

WindowStats RunClosedLoop(cdes::engine::Engine* engine, const Workload& w,
                          JourneyStream* journeys, double seconds,
                          double sub_seconds, Report* report) {
  WindowStats stats;
  std::unordered_map<uint64_t, Clock::time_point> admitted;
  Clock::time_point start = Clock::now();
  // The open sub-window. Samples are reduced as each sub-window closes, so
  // the benchmark's own memory does not grow with the engine's throughput.
  size_t sub_index = 0;
  std::vector<double> sub_latency, sub_wait;
  auto close_sub_windows = [&](double at) {
    while (at >= static_cast<double>(sub_index + 1) * sub_seconds) {
      if (!sub_latency.empty()) {
        stats.p50_us.push_back(Quantile(sub_latency, 0.50));
        stats.p90_us.push_back(Quantile(sub_latency, 0.90));
      }
      if (!sub_wait.empty()) stats.submit_wait_us.push_back(Median(sub_wait));
      sub_latency.clear();
      sub_wait.clear();
      ++sub_index;
    }
  };
  auto collect = [&](bool in_window) {
    // A blocking Submit returns only after some instance completed, so
    // taking results right after it stamps completions without polling.
    std::vector<cdes::engine::InstanceResult> results = engine->TakeResults();
    Clock::time_point now = Clock::now();
    if (in_window) close_sub_windows(SecondsBetween(start, now));
    for (const auto& r : results) {
      auto it = admitted.find(r.id);
      if (it == admitted.end() || r.tag >= w.journeys.size()) {
        ++report->attempted;
        ++report->failed;
        report->Fail(StrCat("unexpected result for instance ", r.id));
        continue;
      }
      if (in_window) {
        sub_latency.push_back(Micros(now - it->second));
        stats.events += r.events;
        ++stats.instances;
      }
      admitted.erase(it);
      CheckResult(r, w.journeys[r.tag].expected, report);
    }
  };

  Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  Clock::time_point now = start;
  while (now < deadline) {
    cdes::engine::InstanceScript script = ScriptFor(w, journeys->Next());
    Clock::time_point before = Clock::now();
    auto id = engine->Submit(std::move(script));
    Clock::time_point after = Clock::now();
    if (!id.ok()) {
      ++report->attempted;
      ++report->failed;
      report->Fail(StrCat("submit failed: ", id.status().ToString()));
      break;
    }
    sub_wait.push_back(Micros(after - before));
    admitted.emplace(id.value(), after);
    collect(true);
    now = Clock::now();
  }
  stats.seconds = SecondsBetween(start, now);
  // The partial last sub-window is dropped. Instances still outstanding
  // finish outside the window: checked, but not timed.
  engine->Drain();
  collect(false);
  if (!admitted.empty()) {
    report->attempted += admitted.size();
    report->failed += admitted.size();
    report->Fail(StrCat(admitted.size(), " instances never completed"));
  }
  return stats;
}

void WriteImageDir(const CrashImage& image, const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  for (size_t i = 0; i < image.logs.size(); ++i) {
    std::ofstream out(StrCat(dir, "/", image.ids[i], ".log"),
                      std::ios::binary | std::ios::trunc);
    out << image.logs[i];
  }
}

double RecoverImage(cdes::engine::Engine* engine, const CrashImage& image,
                    const std::string& dir, Report* report) {
  Clock::time_point start = Clock::now();
  cdes::Status status =
      dir.empty() ? engine->Recover(image.logs) : engine->RecoverDir(dir);
  engine->Drain();
  double seconds = SecondsSince(start);
  if (!status.ok()) report->Fail(StrCat("recovery: ", status.ToString()));
  size_t matched = 0;
  for (const auto& r : engine->TakeResults()) {
    if (r.id < kImageBaseId || r.id - kImageBaseId >= image.ids.size()) {
      ++report->attempted;
      ++report->failed;
      report->Fail(StrCat("recovery produced unknown instance ", r.id));
      continue;
    }
    // Byte-for-byte against the uncrashed run of the same prefix.
    CheckResult(r, image.expected[r.id - kImageBaseId], report);
    ++matched;
  }
  if (matched != image.ids.size()) {
    size_t missing = image.ids.size() - std::min(matched, image.ids.size());
    report->attempted += missing;
    report->failed += missing;
    report->Fail(StrCat("recovered ", matched, " of ", image.ids.size(),
                        " instances"));
  }
  return seconds;
}

double HostLoopMs() {
  Clock::time_point start = Clock::now();
  volatile uint64_t sink = 0;
  uint64_t x = 1;
  for (uint32_t i = 0; i < (1u << 24); ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    x ^= x >> 29;
  }
  sink = x;
  static_cast<void>(sink);
  return SecondsSince(start) * 1e3;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0;
}

std::string FilesystemType(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<uint64_t>(info.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0x858458f6: return "ramfs";
    case 0xEF53: return "ext2/3/4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x794c7630: return "overlayfs";
    default: return StrCat("0x", std::to_string(info.f_type));
  }
}

// ---- Tracer -----------------------------------------------------------

Tracer::Tracer() : epoch_(Clock::now()) { spans_.reserve(1 << 16); }

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int Tracer::Begin(const char* name, uint64_t instance) {
  int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(SpanRecord{name, instance, NowNs(), 0, parent});
  int index = static_cast<int>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Tracer::End(int index) {
  spans_[index].end_ns = NowNs();
  CDES_CHECK(!stack_.empty() && stack_.back() == index);
  stack_.pop_back();
}

std::vector<double> Tracer::Seconds(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& s : spans_) {
    if (name == s.name) out.push_back((s.end_ns - s.start_ns) * 1e-9);
  }
  return out;
}

std::map<std::string, double> Tracer::SelfSecondsByModule() const {
  std::vector<int64_t> covered(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) covered[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    std::string name = spans_[i].name;
    std::string module = name.substr(0, name.find('.'));
    out[module] +=
        (spans_[i].end_ns - spans_[i].start_ns - covered[i]) * 1e-9;
  }
  return out;
}

cdes::Status Tracer::WriteChromeTrace(const std::string& path) const {
  cdes::obs::TraceRecorder recorder;
  recorder.set_capacity(0);
  recorder.NameProcess(1, "perfbench");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::string name = s.name;
    recorder.Complete(cdes::obs::SpanCategory::kSim, name,
                      static_cast<uint64_t>(s.start_ns / 1000),
                      static_cast<uint64_t>((s.end_ns - s.start_ns) / 1000),
                      1, 1,
                      {{"module", name.substr(0, name.find('.'))},
                       {"span", StrCat(i)},
                       {"parent", StrCat(s.parent)},
                       {"instance", StrCat(s.instance)}});
  }
  return cdes::obs::WriteChromeTrace(recorder, path);
}

}  // namespace perfbench

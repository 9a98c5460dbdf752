// perfbench — the repository's benchmark program; runs one workload.
//
//   perfbench --workload <travel_mix|fanin_promise|chain_wal> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir> [--smoke]
//
// Run it from the root of a checkout: spec files are read relative to the
// working directory.
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (a separate run whose numbers never feed the end-to-end metrics). The
// last stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}; the line before it holds the run's provenance. Exit status
// is 1 when any correctness check failed, 2 on usage errors. perfbench/run.py
// builds this binary and is the command to use.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "bench.h"
#include "common/strings.h"
#include "obs/json.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using cdes::StrCat;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --work-dir <dir> [--smoke]\n");
  return 2;
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintReport(const perfbench::Report& r) {
  for (const auto& [name, m] : r.metrics) {
    std::printf("%-40s %18.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", e.c_str());
  }
  std::string prov = "{";
  bool first = true;
  for (const auto& [k, v] : r.provenance) {
    prov += StrCat(first ? "" : ", ", "\"", cdes::obs::JsonEscape(k),
                   "\": \"", cdes::obs::JsonEscape(v), "\"");
    first = false;
  }
  std::printf("provenance %s}\n", prov.c_str());
  std::string metrics = "{";
  first = true;
  for (const auto& [name, m] : r.metrics) {
    metrics += StrCat(first ? "" : ", ", "\"", name, "\": {\"value\": ",
                      JsonNumber(m.value), ", \"unit\": \"", m.unit, "\"}");
    first = false;
  }
  metrics += "}";
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  int trace = -1;
  bool smoke = false;
  perfbench::RunOptions opts;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) std::exit(Usage());
      return argv[++i];
    };
    if (arg == "--workload") {
      workload_name = value();
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = std::atoi(value().c_str());
    } else if (arg == "--work-dir") {
      opts.work_dir = value();
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      return Usage();
    }
  }
  if (workload_name.empty() || (trace != 0 && trace != 1) ||
      opts.work_dir.empty() || !(opts.seconds > 0)) {
    return Usage();
  }
  std::filesystem::create_directories(opts.work_dir);

  perfbench::Workload w = perfbench::LoadWorkload(workload_name);
  // About 2.5 s of closed loop per round.
  opts.rounds = std::max<size_t>(2, static_cast<size_t>(opts.seconds / 2.5));
  if (smoke) {
    // Every phase, at a small size: the benchmark's own test.
    opts.rounds = 2;
    opts.sub_window = 0.1;
    w.image_instances = std::max<size_t>(w.image_instances / 20, 4);
    w.image_size = w.smoke_image_size;
    w.traced_instances = std::max<size_t>(w.traced_instances / 20, 6);
    w.setup_samples = std::min<size_t>(w.setup_samples, 4);
    w.recover_samples = std::min<size_t>(w.recover_samples, 2);
    w.verify_samples = std::min<size_t>(w.verify_samples, 2);
  }

  perfbench::Report report;
  auto& p = report.provenance;
  p["workload"] = w.name;
  p["seed"] = StrCat(opts.seed);
  p["seconds"] = StrCat(opts.seconds);
  p["trace"] = StrCat(trace);
  p["smoke"] = smoke ? "1" : "0";
  p["nproc"] = StrCat(sysconf(_SC_NPROCESSORS_ONLN));
  p["hardware_concurrency"] = StrCat(std::thread::hardware_concurrency());
  p["build_type"] = PERFBENCH_BUILD_TYPE;
  p["wal_fs"] = perfbench::FilesystemType(opts.work_dir);
  p["durable_logs"] = w.durable_logs ? "1" : "0";
  p["shards"] = StrCat(w.shards);
  p["clients"] = StrCat(w.clients);
  p["journey_kinds"] = StrCat(w.journeys.size());
  p["rounds"] = StrCat(opts.rounds);

  if (trace == 1) {
    perfbench::RunTraced(w, opts, &report);
  } else {
    perfbench::RunEndToEnd(w, opts, &report);
  }
  PrintReport(report);
  return report.correct && report.failed == 0 ? 0 : 1;
}
